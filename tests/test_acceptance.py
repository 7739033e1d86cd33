"""End-to-end acceptance battery.

One test per shipped guarantee, each printing a single pass/fail line (run
with -s to see them; under plain pytest the test outcome itself is the
line).  The two repeated-sampling studies, criteria 08 and 09, dominate
the runtime: expect a minute or two in total, not hours.
"""

import json
import math
import time

import numpy as np
import pytest

from rejectsvm.cli import main as cli_main
from rejectsvm.dictionary import build_linear, evaluate as dic_eval
from rejectsvm.evaluate import bounds, report_from_margins, risk_report
from rejectsvm.losses import (
    CostParams,
    bayes_phi_risk,
    gen_hinge,
    population_risk,
    reject_loss,
)
from rejectsvm.lp import solve_lp
from rejectsvm.sim import (
    ExperimentConfig,
    _gaussian_risks,
    gen_two_gaussian,
    run_mixture_boundaries,
    run_reject_vs_plain,
)
from rejectsvm.theory import (
    check_excess_domination,
    check_lemma_a1,
    check_prop21,
    make_context,
    population_path,
)
from rejectsvm.train import fit, fit_population, split_lp

from helpers import (
    plateau_fixture,
    random_design,
    random_distribution,
    random_lp,
)
from oracle import enumerate_vertices_oracle
from test_train import scan_1d_objective


def _verdict(num, label, ok, note=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{note}]" if note else ""
    print(f"criterion {num:02d} {label}: {tag}{suffix}")
    return ok


def test_criterion_01_lp_matches_vertex_oracle():
    rng = np.random.default_rng(20260814)
    start = time.perf_counter()
    solved = 0
    worst = 0.0
    attempts = 0
    while solved < 200 and attempts < 2000:
        attempts += 1
        lp = random_lp(rng)
        ref = enumerate_vertices_oracle(lp)
        if ref.status != "optimal":
            continue
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        worst = max(worst, abs(sol.objective_value - ref.objective_value))
        solved += 1
    elapsed = time.perf_counter() - start
    ok = solved >= 200 and worst <= 1e-7 and elapsed < 10.0
    assert _verdict(1, "lp_vertex_oracle", ok,
                    f"{solved} programs, max |gap|={worst:.2e}, "
                    f"{elapsed:.1f}s")


def test_criterion_02_training_optimality():
    cp = CostParams(d=0.25, tau=0.5)
    worst_1d = 0.0
    fixtures = (
        (np.array([[1.0], [-1.0], [1.0], [-1.0]]),
         np.array([1.0, -1.0, 1.0, -1.0])),
        (np.array([[1.0], [2.0], [-1.0], [1.5], [-2.0]]),
         np.array([1.0, 1.0, -1.0, -1.0, 1.0])),
    )
    from rejectsvm.dictionary import DesignMatrix
    for phi, y in fixtures:
        design = DesignMatrix(phi=phi, y=y)
        for r in (0.0, 0.05, 0.3, 0.9):
            model = fit(design, cp, r)
            _, obj_ref = scan_1d_objective(phi, y, cp, r)
            worst_1d = max(worst_1d, abs(model.objective - obj_ref))

    rng = np.random.default_rng(7)
    worst_tiny = 0.0
    for _ in range(10):
        design = random_design(rng, int(rng.integers(1, 5)),
                               int(rng.integers(1, 4)))
        for r in (0.0, 0.1, 0.7):
            model = fit(design, cp, r)
            ref = enumerate_vertices_oracle(split_lp(design, cp, r))
            assert ref.status == "optimal"
            worst_tiny = max(worst_tiny,
                             abs(model.objective - ref.objective_value))
    ok = worst_1d <= 1e-6 and worst_tiny <= 1e-7
    assert _verdict(2, "training_optimality", ok,
                    f"1-D gap={worst_1d:.2e}, tiny gap={worst_tiny:.2e}")


def test_criterion_03_l1_budget_invariant():
    rng = np.random.default_rng(11)
    cp = CostParams(d=0.25, tau=0.5)
    worst = -math.inf
    checked = 0
    for _ in range(8):
        design = random_design(rng, int(rng.integers(5, 30)),
                               int(rng.integers(1, 8)))
        for r in (0.01, 0.05, 0.2, 1.0, 3.0):
            model = fit(design, cp, r)
            worst = max(worst, model.l1_norm() - 1.0 / r)
            checked += 1
    ok = worst <= 1e-7
    assert _verdict(3, "l1_budget", ok,
                    f"{checked} fits, worst overshoot={worst:.2e}")


def test_criterion_04_loss_identities():
    z = np.linspace(-4.0, 4.0, 10_000)
    ok = True
    for d in (0.1, 0.25, 0.4, 0.5):
        for tau in np.linspace(d, 1.0 - d, 5):
            cp = CostParams(d=d, tau=tau)
            ok &= gen_hinge(np.array([0.0]), cp)[0] == 1.0
            ok &= bool(np.all(reject_loss(z, cp) <= gen_hinge(z, cp)))
    half = CostParams(d=0.5)
    ok &= bool(np.array_equal(gen_hinge(z, half), np.maximum(0.0, 1.0 - z)))

    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(30):
        cp = CostParams(d=float(rng.uniform(0.05, 0.5)))
        n = int(rng.integers(1, 200))
        f = rng.normal(scale=2.0, size=n)
        y = rng.choice([-1.0, 1.0], size=n)
        rep = report_from_margins(y * f, f, cp, n)
        worst = max(worst, abs(rep.ell_risk - (rep.misclass_rate
                                               + cp.d * rep.reject_rate)))
    ok &= worst <= 1e-12
    assert _verdict(4, "loss_identities", ok,
                    f"decomposition residual={worst:.2e}")


def test_criterion_05_excess_risk_domination():
    rng = np.random.default_rng(15)
    dic = build_linear(2)
    worst = math.inf
    for _ in range(500):
        dist = random_distribution(rng)
        d = float(rng.uniform(0.05, 0.5))
        tau = float(rng.uniform(d, 1.0 - d))
        ctx = make_context(dist, dic, CostParams(d=d, tau=tau))
        rng.integers(2**31)  # a spent draw keeps the 500 distributions
        rep = check_excess_domination(ctx)
        assert rep.status == "pass"
        worst = min(worst, rep.slack)
    ok = worst >= -1e-12
    assert _verdict(5, "excess_domination", ok,
                    f"500 distributions, min slack={worst:.2e}")


def test_criterion_06_weighted_norm_lower_bound():
    dist, dic, cp = plateau_fixture()
    rep1 = check_lemma_a1(make_context(dist, dic, cp), seed=1)

    # second fixture: eta spread across (0, 1) so the exponent is finite
    # and near 1, with mass at both thresholds
    k = 41
    spread = type(dist)(
        x=np.column_stack([np.linspace(-2.0, 2.0, k), np.ones(k)]),
        p=np.full(k, 1.0 / k),
        eta=np.linspace(0.0125, 0.9875, k),
    )
    rep2 = check_lemma_a1(make_context(spread, dic, cp), seed=2)

    ok = all(r.status == "pass" and r.detail["n_checked"] >= 200
             and r.slack >= 0.0 for r in (rep1, rep2))
    assert _verdict(6, "weighted_norm_bound", ok,
                    f"slacks {rep1.slack:.3g} / {rep2.slack:.3g}")


def test_criterion_07_population_path_and_plateau():
    dist, dic, cp = plateau_fixture()
    grid = np.linspace(0.03, 0.6, 20)
    ctx = make_context(dist, dic, cp)
    rep = check_prop21(ctx, population_path(ctx, grid))
    ok = rep.status == "pass"

    base = fit_population(dist, dic, cp, 0.0)
    phi = dic_eval(dic, dist.x).phi
    risk0 = population_risk(dist, phi @ base.lam, cp, "hinge")
    worst_l1 = 0.0
    worst_risk = 0.0
    plateau_points = 0
    for r in grid[grid < 0.4]:
        m = fit_population(dist, dic, cp, float(r))
        worst_l1 = max(worst_l1, float(np.abs(m.lam - base.lam).sum()))
        risk = population_risk(dist, phi @ m.lam, cp, "hinge")
        worst_risk = max(worst_risk, abs(risk - risk0))
        plateau_points += 1
    ok &= plateau_points >= 10 and worst_l1 <= 1e-6 and worst_risk <= 1e-6
    ok &= risk0 == pytest.approx(bayes_phi_risk(dist, cp), abs=1e-9)
    assert _verdict(7, "population_path_plateau", ok,
                    f"{plateau_points} plateau points, "
                    f"max l1 drift={worst_l1:.2e}")


@pytest.mark.slow
def test_criterion_08_bound_coverage():
    n_per_class, M = 50, 200
    cp = CostParams(d=0.25, tau=0.5)
    dic = build_linear(M)
    seeds = np.random.SeedSequence(20260814).generate_state(200)

    covered = 0
    min_slack = math.inf
    start = time.perf_counter()
    for rep in range(200):
        x_tr, y_tr, _ = gen_two_gaussian(n_per_class, M, int(seeds[rep]))
        model = fit(dic_eval(dic, x_tr, y_tr), cp, 0.2, dic=dic)
        report = bounds(model, x_tr, y_tr, delta=0.1, p=1.0)
        # exact misclassification rate of the fitted rule, whose margin
        # y lam'x is N(mu'lam, |lam|^2) with mu = (1, 1, 0, ...)/sqrt(2)
        lam = model.lam
        _, _, true_mis, _ = _gaussian_risks(
            lam[:2].sum() / math.sqrt(2.0), np.linalg.norm(lam), cp, cp.tau)
        slack = report.bound_misclass - true_mis
        min_slack = min(min_slack, slack)
        covered += slack >= 0.0
    elapsed = time.perf_counter() - start
    ok = covered >= 180
    assert _verdict(8, "bound_coverage", ok,
                    f"{covered}/200 covered, min slack={min_slack:.3g}, "
                    f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_09_reject_beats_plain():
    config = ExperimentConfig(scenario="two_gaussian")
    assert CostParams(d=config.d).a == pytest.approx(3.0)
    rows = run_reject_vs_plain(config)

    best = {}
    for row in rows:
        key = (row["repetition"], row["arm"])
        best[key] = min(best.get(key, math.inf), row["excess_ell"])
    reject = np.array([best[(i, "reject")] for i in range(50)])
    plain = np.array([best[(i, "plain")] for i in range(50)])
    wins = int(np.sum(reject < plain))
    med_r, med_p = float(np.median(reject)), float(np.median(plain))
    ok = med_r < med_p and wins >= 35
    assert _verdict(9, "reject_vs_plain", ok,
                    f"wins {wins}/50, median excess {med_r:.4f} vs "
                    f"{med_p:.4f}")


def test_criterion_10_mixture_boundary_map():
    config = ExperimentConfig(scenario="mixture", n_train=200, seed=3)
    rows, info = run_mixture_boundaries(config, grid_shape=(50, 50),
                                        folds=10)
    dens = np.array([row["density"] for row in rows])
    est = np.array([row["estimated"] for row in rows])
    opt = np.array([row["optimal"] for row in rows])
    busy = dens > np.median(dens)
    agreement = float(np.mean(est[busy] == opt[busy]))
    n_reject = int(np.sum(est == 0.0))
    ok = agreement >= 0.80 and n_reject > 0
    assert _verdict(10, "mixture_boundary_map", ok,
                    f"agreement={agreement:.3f}, {n_reject} reject cells, "
                    f"r*={info['r_star']:.4g}")


def test_criterion_11_determinism(tmp_path, capsys):
    data = tmp_path / "train.csv"
    data.write_text("x1,x2,y\n1.0,0.2,1\n0.8,-0.1,1\n1.2,0.4,1\n"
                    "-0.9,0.1,-1\n-1.1,-0.3,-1\n-0.7,0.2,-1\n")
    pairs = []
    for tag in ("a", "b"):
        model = tmp_path / f"model_{tag}.json"
        pred = tmp_path / f"pred_{tag}.csv"
        sim = tmp_path / f"sim_{tag}.csv"
        assert cli_main(["train", "--data", str(data), "--d", "0.25",
                         "--r", "0.1", "--out", str(model)]) == 0
        assert cli_main(["predict", "--model", str(model), "--data",
                         str(data), "--out", str(pred)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"repetitions": 2, "n_test": 500,
                                   "n_train": 16, "M": 4,
                                   "r_grid": [0.1, 0.4], "seed": 11}))
        assert cli_main(["simulate", "--scenario", "two_gaussian",
                         "--config", str(cfg), "--out", str(sim)]) == 0
        pairs.append((model.read_bytes(), pred.read_bytes(),
                      sim.read_bytes()))
    capsys.readouterr()
    ok = pairs[0] == pairs[1]
    assert _verdict(11, "determinism", ok,
                    "model/predictions/study bytes identical" if ok
                    else "outputs differ between reruns")
