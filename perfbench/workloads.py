"""The four benchmark workloads: inputs made from a seed, ops, output checks.

Each workload's ``prepare(seed, workdir)`` generates its inputs, writes the
files its ops read, and returns the ops of one pass.  An op's ``run`` is the
timed call into the package; its ``check`` runs afterwards, outside the
timed region, and returns the list of problems found in the outputs.
NOTES.md gives the reason for each workload and what it measured.
"""

import contextlib
import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

import spans
from reference import parse, pivots
from rejectsvm import cli, sim, theory, train
from rejectsvm.lp import LpError
from rejectsvm.train import split_lp

# the reject arm of the study and every CLI job use the package default d
D_REJECT = 0.25
TAU = 0.5


@dataclass
class Op:
    label: str
    run: object            # () -> raw outcome, timed
    check: object          # (raw, fits) -> (error or None, [problems])
    rows: int = 0          # data rows the op scores, for rows_per_s
    calls: list = None     # a round's ops, timed one by one; run is None


class FitLog:
    """Records each training fit the ops make, for the output checks.

    Rebinds ``fit`` in rejectsvm.train and rejectsvm.sim and
    ``fit_population`` in rejectsvm.train and rejectsvm.theory.  An entry is
    [kind, design, cp, r, objective, pivots]; objective and pivots stay None
    when the fit raised.
    """

    def __init__(self):
        self.entries = []
        self._saved = []

    def _logged(self, kind, fn):
        entries = self.entries

        def logged(*args, **kwargs):
            entry = [kind, args[0], args[1], args[2], None, None]
            entries.append(entry)
            model = fn(*args, **kwargs)
            entry[4], entry[5] = model.objective, model.iterations
            return model

        return logged

    def install(self):
        self._saved = spans.rebind(
            (mod, attr, functools.partial(self._logged, attr))
            for mod, attr in ((train, "fit"), (sim, "fit"),
                              (train, "fit_population"),
                              (theory, "fit_population")))

    def uninstall(self):
        spans.restore(self._saved)

    def summary(self):
        """(kind, d, pivots) per logged fit; d is None for population fits."""
        return [(e[0], e[2].d if e[0] == "fit" else None, e[5])
                for e in self.entries]


# ---------------------------------------------------------------------------
# checks shared by the solver workloads

def highs_objective(design, cp, r):
    """Optimal objective of train.split_lp by scipy's HiGHS."""
    lp = split_lp(design, cp, r)
    res = linprog(lp.objective, A_ub=-lp.rows, b_ub=-lp.rhs,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return float(res.fun)


def check_fits(fits):
    """Every completed training fit must be optimal by HiGHS's measure."""
    problems = []
    for k, (kind, design, cp, r, objective, _) in enumerate(fits):
        if kind != "fit" or objective is None:
            continue
        ref = highs_objective(design, cp, r)
        # objective is the exact penalized risk at the returned lambda,
        # so it can sit below HiGHS only by HiGHS's own 1e-7 tolerance
        gap = (objective - ref) / (1.0 + abs(ref))
        if gap > 1e-9 or gap < -1e-7:
            problems.append(f"fit {k} (d={cp.d}, r={r!r}): objective "
                            f"{objective!r} but HiGHS gives {ref!r}")
    return problems


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_error(rc, err):
    if rc == 0:
        return None
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return f"exit {rc}: {last}"


def _write_csv(path, header, columns):
    """One header row, then the columns' rows.

    %.17g reads back as the same float64; savetxt writes one row at a time,
    so that writing takes far less memory than parsing.
    """
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def _write_xy(path, x, y):
    _write_csv(path, [f"x{j}" for j in range(x.shape[1])] + ["y"], [x, y])


def _seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


# ---------------------------------------------------------------------------
# study: one run_reject_vs_plain at paper size per op

class Study:
    name = "study"
    why = ("paper-size reject-vs-plain sweep (14 fits per op): the simplex "
           "does most of the work, so pivot-count cuts and warm-started paths "
           "show here")
    ops_per_pass = 2
    reference = staticmethod(pivots)
    pass_seconds = 11.5

    def prepare(self, seed, workdir):
        return [self._op(k, s) for k, s in
                enumerate(_seeds(seed, self.ops_per_pass))]

    def _op(self, k, data_seed):
        config = sim.ExperimentConfig("two_gaussian", repetitions=1,
                                      seed=data_seed)

        def run():
            try:
                return None, sim.run_reject_vs_plain(config)
            except LpError as exc:
                return f"{type(exc).__name__}: {exc}", None

        def check(raw, fits):
            error, rows = raw
            problems = check_fits(fits)
            if error is None:
                problems += self._check_rows(config, rows, fits)
            return error, problems

        return Op(f"study{k}", run, check, rows=config.n_test)

    @staticmethod
    def _check_rows(config, rows, fits):
        problems = []
        cells = len(config.r_grid) * 2
        if len(rows) != cells or len(fits) != cells:
            return [f"expected {cells} rows and fits, got {len(rows)} rows "
                    f"and {len(fits)} fits"]
        for row in rows:
            ell, mis, rej = row["ell_risk"], row["misclass"], row["reject"]
            if row["arm"] == "reject":
                ok = abs(ell - (mis + config.d * rej)) <= 1e-12
            else:
                ok = ell == mis and rej == 0.0
            if not ok or not 0.0 <= mis <= 1.0 or not 0.0 <= rej <= 1.0:
                problems.append(f"inconsistent risks in row {row}")
        return problems

    @staticmethod
    def pivot_matrix(records, grid=7):
        """Pivots per (arm, r) cell, summed over the given op records."""
        matrix = {"reject": [0] * grid, "plain": [0] * grid}
        for rec in records:
            # fits alternate reject, plain for each r of the grid in turn
            for k, (_, d, pivots) in enumerate(rec.fits):
                arm = "reject" if d == D_REJECT else "plain"
                matrix[arm][(k // 2) % grid] += pivots or 0
        return matrix


# ---------------------------------------------------------------------------
# cv_train: in-process `rejectsvm train --cv` jobs

class CvTrain:
    name = "cv_train"
    why = ("in-process `train --cv` jobs, the user's training path; keeps the "
           "seed-3 RBF short sweep that hits the fallback-chain failure in "
           "every pass")
    reference = staticmethod(pivots)
    pass_seconds = 40.0
    # the known fallback-chain failure: RBF short sweep on mixture seed 3
    PROBE_SEED = 3
    jobs_per_pass = 3
    FOLDS, POINTS = 5, 10

    def prepare(self, seed, workdir):
        probe = os.path.join(workdir, "mixture_seed3.csv")
        x, y, _ = sim.gen_mixture(200, self.PROBE_SEED)
        _write_xy(probe, x, y)
        ops = [self._op("probe_rbf_seed3", probe, "rbf_lattice:10x10",
                        workdir)]
        for k, s in enumerate(_seeds(seed, self.jobs_per_pass)):
            path = os.path.join(workdir, f"gauss20_{k}.csv")
            x, y, _ = sim.gen_two_gaussian(100, 20, s)
            _write_xy(path, x, y)
            ops.append(self._op(f"linear{k}", path, "linear", workdir))
        return ops

    def _op(self, label, data, dic, workdir):
        model_path = os.path.join(workdir, f"{label}.json")
        argv = ["train", "--cv", "--data", data, "--dict", dic, "--folds",
                str(self.FOLDS), "--cv-points", str(self.POINTS), "--out",
                model_path]
        n_fits = self.FOLDS * self.POINTS + 1

        def run():
            if os.path.exists(model_path):
                os.remove(model_path)
            return _run_cli(argv)

        def check(raw, fits):
            rc, out, err = raw
            problems = check_fits(fits)
            if rc == 0:
                if len(fits) != n_fits:
                    problems.append(f"{len(fits)} fits, expected {n_fits}")
                with open(model_path) as fh:
                    saved = json.load(fh)["train_meta"]["objective"]
                if fits and saved != fits[-1][4]:
                    problems.append("saved model objective differs from the "
                                    "final fit")
                if "cross-validation picked r=" not in out:
                    problems.append("no cross-validation line on stdout")
            return _cli_error(rc, err), problems

        return Op(label, run, check, rows=200)


# ---------------------------------------------------------------------------
# certify: predict / eval / bounds against two models trained in set-up

def _margins(model_doc, x):
    """Scores recomputed from the model file, independent of the package."""
    lam = np.asarray(model_doc["lambda"])
    dic = model_doc["dictionary"]
    if dic["kind"] == "linear":
        return x @ lam
    centers = np.asarray(dic["centers"])
    sq = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-dic["beta"] * sq) @ lam


def _round(label, calls):
    """One op that makes the given calls in turn, each timed on its own.

    The calls differ in cost by up to 300x, so as ops of their own their
    median and tail fell between two kinds of call and jumped with the host's
    speed; a round of all of them is one op of steady size.  Each call is
    checked on its own.
    """
    def check(raws, fits):
        errors, problems = [], []
        for call, raw in zip(calls, raws):
            error, found = call.check(raw, fits)
            if error is not None:
                errors.append(f"{call.label}: {error}")
            problems += [f"{call.label}: {p}" for p in found]
        return "; ".join(errors) or None, problems

    return Op(label, None, check, sum(c.rows for c in calls), calls)


class Certify:
    name = "certify"
    why = ("rounds of predict/eval/bounds on 20,000-row CSVs against models "
           "trained in set-up: no solver calls, so a solver change must read "
           "no change here")
    reference = staticmethod(parse)
    pass_seconds = 2.5
    N_SCORE = 20000

    def prepare(self, seed, workdir):
        s = _seeds(seed, 4)
        calls = []
        for tag, dic, r, train_xy, score_xy in (
            ("linear", "linear", 0.02,
             sim.gen_two_gaussian(100, 50, s[0]),
             sim.gen_two_gaussian(self.N_SCORE // 2, 50, s[1])),
            ("rbf", "rbf_lattice:10x10", 0.01,
             sim.gen_mixture(200, s[2]), sim.gen_mixture(self.N_SCORE, s[3])),
        ):
            paths = {k: os.path.join(workdir, f"{tag}_{k}")
                     for k in ("train.csv", "score.csv", "model.json",
                               "pred.csv")}
            _write_xy(paths["train.csv"], *train_xy[:2])
            _write_xy(paths["score.csv"], *score_xy[:2])
            rc, _, err = _run_cli(["train", "--data", paths["train.csv"],
                                   "--dict", dic, "--r", str(r), "--out",
                                   paths["model.json"]])
            if rc != 0:
                raise RuntimeError(f"set-up training of the {tag} model "
                                   f"failed: {_cli_error(rc, err)}")
            with open(paths["model.json"]) as fh:
                doc = json.load(fh)
            calls += self._calls(tag, paths, doc, train_xy, score_xy)
        return [_round("round", calls)]

    def _calls(self, tag, paths, doc, train_xy, score_xy):
        model, pred = paths["model.json"], paths["pred.csv"]
        x, y = score_xy[:2]
        f_score = _margins(doc, x)
        x_tr, y_tr = train_xy[:2]
        f_train = _margins(doc, x_tr)
        tol = 1e-9 * (1.0 + float(np.abs(doc["lambda"]).sum()))

        def run_predict():
            if os.path.exists(pred):
                os.remove(pred)
            return _run_cli(["predict", "--model", model, "--data",
                             paths["score.csv"], "--out", pred])

        def check_predict(raw, fits):
            rc, out, err = raw
            if rc != 0:
                return _cli_error(rc, err), []
            problems = []
            with open(pred, newline="") as fh:
                table = list(csv.reader(fh))
            if table[0] != ["margin", "decision"] or len(table) - 1 != len(x):
                return None, [f"prediction file has header {table[0]} and "
                              f"{len(table) - 1} rows for {len(x)} inputs"]
            body = np.array(table[1:], dtype=float)
            margin, decision = body[:, 0], body[:, 1]
            want = np.where(np.abs(margin) <= TAU, 0.0, np.sign(margin))
            if np.any(decision != want):
                problems.append(f"{int(np.sum(decision != want))} decisions "
                                "break the reject rule")
            if np.max(np.abs(margin - f_score)) > tol:
                problems.append("margins differ from the model's scores")
            counts = [int(np.sum(decision == v)) for v in (-1, 0, 1)]
            line = (f"rows={len(x)} predicted -1:{counts[0]} "
                    f"reject:{counts[1]} +1:{counts[2]}")
            if line not in out:
                problems.append(f"summary line missing: {line}")
            return None, problems

        def run_eval():
            return _run_cli(["eval", "--model", model, "--data",
                             paths["score.csv"]])

        def check_eval(raw, fits):
            rc, out, err = raw
            if rc != 0:
                return _cli_error(rc, err), []
            rep = dict(line.split("=", 1) for line in out.splitlines())
            mis, rej = float(rep["misclass_rate"]), float(rep["reject_rate"])
            ell = float(rep["ell_risk"])
            problems = []
            if int(rep["n_eval"]) != len(x):
                problems.append(f"n_eval={rep['n_eval']} for {len(x)} rows")
            if abs(ell - (mis + D_REJECT * rej)) > 1e-12:
                problems.append(f"ell={ell!r} != misclass + d*reject")
            yf = y * f_score
            # a few rows may sit on the threshold to rounding
            if (abs(mis - np.mean(yf < -TAU)) > 3.0 / len(x)
                    or abs(rej - np.mean(np.abs(f_score) <= TAU))
                    > 3.0 / len(x)):
                problems.append("rates differ from the model's scores")
            return None, problems

        def run_bounds():
            return _run_cli(["bounds", "--model", model, "--data",
                             paths["train.csv"]])

        def check_bounds(raw, fits):
            rc, out, err = raw
            if rc != 0:
                return _cli_error(rc, err), []
            vals = {}
            for line in out.splitlines():
                for part in line.split():
                    if part.startswith("bound_"):
                        k, v = part.split("=", 1)
                        vals[k] = float(v)
            problems = []
            n = len(y_tr)
            mis = float(np.mean(y_tr * f_train < -TAU))
            rej = float(np.mean(np.abs(f_train) <= TAU))
            if not (math.isfinite(vals.get("bound_misclass", math.nan))
                    and vals["bound_misclass"] >= mis
                    and math.isfinite(vals.get("bound_reject", math.nan))
                    and vals["bound_reject"] >= rej):
                problems.append(f"bounds {vals} below the training rates "
                                f"{mis}, {rej}")
            if f"probability >= {1.0 - 0.05 - n ** -1.0!r}" not in out:
                problems.append("confidence line missing or wrong")
            return None, problems

        return [Op(f"{tag}_predict", run_predict, check_predict, len(x)),
                Op(f"{tag}_eval", run_eval, check_eval, len(x)),
                Op(f"{tag}_bounds", run_bounds, check_bounds)]


# ---------------------------------------------------------------------------
# diagnose: in-process `rejectsvm diagnose --checks all`

REPORT_NAMES = {"weighted_norm_excess_risk", "population_path_shrinkage",
                "excess_risk_domination", "plateau"}


def make_distribution(seed, atoms=200):
    """Seeded atoms in [-2, 2]^2 with random masses and a noisy logistic eta."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(atoms, 2))
    p = rng.uniform(0.5, 1.5, size=atoms)
    p /= p.sum()
    score = 2.0 * (x[:, 0] + 0.5 * x[:, 1]) + 0.3 * rng.normal(size=atoms)
    eta = 1.0 / (1.0 + np.exp(-score))
    return x, p, eta


class Diagnose:
    name = "diagnose"
    why = ("`diagnose --checks all`: 23 small population LPs per job where "
           "per-pivot cost sets the time; the only user of fit_population, "
           "theory and losses")
    reference = staticmethod(pivots)
    pass_seconds = 12.6
    jobs_per_pass = 3

    def prepare(self, seed, workdir):
        ops = []
        for k, s in enumerate(_seeds(seed, self.jobs_per_pass)):
            x, p, eta = make_distribution(s)
            path = os.path.join(workdir, f"dist{k}.csv")
            _write_csv(path, ["p", "eta", "x1", "x2"], [p, eta, x])
            ops.append(self._op(f"dist{k}", path, s % 1000, workdir, len(p)))
        return ops

    def _op(self, label, path, check_seed, workdir, atoms):
        report = os.path.join(workdir, f"{label}_report.csv")
        argv = ["diagnose", "--dist", path, "--dict", "rbf_lattice:6x6",
                "--checks", "all", "--seed", str(check_seed), "--out",
                report]

        def run():
            if os.path.exists(report):
                os.remove(report)
            return _run_cli(argv)

        def check(raw, fits):
            rc, out, err = raw
            if rc != 0:
                return _cli_error(rc, err), []
            with open(report, newline="") as fh:
                table = list(csv.DictReader(fh))
            problems = []
            if {row["name"] for row in table} != REPORT_NAMES:
                problems.append(f"report names {[r['name'] for r in table]}")
            for row in table:
                try:
                    float(row["slack"])
                except ValueError:
                    problems.append(f"unparsable slack in {row['name']}")
                if row["status"] not in ("pass", "fail", "skipped"):
                    problems.append(f"status {row['status']!r}")
                head = f"{row['name']}: {row['status']} (slack={row['slack']})"
                if head not in out:
                    problems.append(f"stdout lacks the line {head!r}")
            return None, problems

        return Op(label, run, check, rows=atoms)


WORKLOADS = {w.name: w for w in (Study, CvTrain, Certify, Diagnose)}
