"""Command-line surface binding training, evaluation, bounds and studies.

Exit codes: 0 success, 2 usage (bad flags or parameter values), 3 data
(unreadable or malformed files), 4 numerical (the solver aborted).
"""

import argparse
import json
import os
import sys

import numpy as np

from . import dictionary, evaluate, sim, theory, train
from .losses import CostParams
from .lp import LpInputError, LpNumericalError
from .model_io import (
    DataError,
    load_data,
    load_distribution,
    load_model,
    save_model,
    write_reports_csv,
    write_rows_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

SEED_ENV_VAR = "REJECTSVM_SEED"


def _seed(args):
    """--seed if given, else $REJECTSVM_SEED, else 0; read only to draw."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def parse_dict_spec(spec, x):
    """Build a dictionary from a CLI spec string over the data's bounding box.

    Accepted: "linear", "constant_linear", "rbf_lattice:R1xR2[,beta]",
    with one lattice count per feature axis and at most one beta.
    """
    if spec == "linear":
        return dictionary.build_linear(x.shape[1])
    if spec == "constant_linear":
        return dictionary.build_constant_linear(x.shape[1])
    if spec.startswith("rbf_lattice:"):
        counts, comma, beta = spec.split(":", 1)[1].partition(",")
        try:  # float() refuses a second comma in beta
            grid = tuple(int(g) for g in counts.lower().split("x"))
            beta = float(beta) if comma else 2.0
        except ValueError:
            raise ValueError(f"malformed lattice spec {spec!r}") from None
        if len(grid) != x.shape[1]:
            raise ValueError(
                f"lattice spec has {len(grid)} axes but data has "
                f"{x.shape[1]} features"
            )
        lo, hi = x.min(axis=0), x.max(axis=0)
        return dictionary.build_rbf_lattice(grid, lo, hi, beta=beta)
    raise ValueError(f"unknown dictionary spec {spec!r}")


def cmd_train(args):
    x, y = load_data(args.data, require_y=True)
    dic = parse_dict_spec(args.dict, x)
    cp = CostParams(d=args.d, tau=args.tau)
    design = dictionary.evaluate(dic, x, y)
    if args.cv:
        c_f = dictionary.estimated_c_f(dic, design)
        grid = train.default_r_grid(cp, c_f, num=args.cv_points)
        r, table = train.cross_validate(design, cp, grid, folds=args.folds)
        print(f"cross-validation picked r={r!r} over {len(table)} grid points")
    else:
        r = args.r
        if r == 0.0:
            print("warning: r=0 trains without a penalty; the solution may "
                  "be non-unique", file=sys.stderr)
    model = train.fit(design, cp, r, dic=dic)
    save_model(model, args.out)
    print(f"n={design.n} M={design.M} l1_norm={model.l1_norm()!r} "
          f"objective={model.objective!r} support={model.support_size()}")
    return EXIT_OK


def _model_and_data(args, require_y=False):
    """Load --model and --data; a feature-count mismatch is a data error."""
    model = load_model(args.model)
    x, y = load_data(args.data, require_y=require_y)
    if x.shape[1] != model.dic.dim:
        raise DataError(
            f"data has {x.shape[1]} features, model expects {model.dic.dim}"
        )
    return model, x, y


def cmd_predict(args):
    model, x, _ = _model_and_data(args)
    dec, f = evaluate.predict(model, x)
    # int() refuses the nan decision of a nan margin (x @ lam at inf - inf)
    decision = np.array([int(d) for d in dec.tolist()])
    if args.out:
        write_rows_csv(args.out, {"margin": f, "decision": decision})
    counts = {v: int(np.sum(dec == v)) for v in (-1, 0, 1)}
    print(f"rows={len(f)} predicted -1:{counts[-1]} "
          f"reject:{counts[0]} +1:{counts[1]}")
    return EXIT_OK


def cmd_eval(args):
    model, x, y = _model_and_data(args, require_y=True)
    rep = evaluate.risk_report(model, x, y)
    print(f"n_eval={rep.n_eval}")
    print(f"phi_risk={rep.phi_risk!r}")
    print(f"ell_risk={rep.ell_risk!r}")
    print(f"misclass_rate={rep.misclass_rate!r}")
    print(f"reject_rate={rep.reject_rate!r}")
    if args.out:
        write_rows_csv(args.out, {
            "n_eval": [rep.n_eval], "phi_risk": [rep.phi_risk],
            "ell_risk": [rep.ell_risk], "misclass_rate": [rep.misclass_rate],
            "reject_rate": [rep.reject_rate]})
    return EXIT_OK


def cmd_bounds(args):
    model, x, y = _model_and_data(args, require_y=True)
    rep = evaluate.bounds(model, x, y, delta=args.delta, p=args.p)
    print(f"bound_misclass={rep.bound_misclass!r} "
          f"(gamma*={rep.gamma_star_misclass!r})")
    print(f"bound_reject={rep.bound_reject!r} "
          f"(gamma*={rep.gamma_star_reject!r})")
    print(f"confidence: holds with probability >= "
          f"{1.0 - args.delta - len(x) ** -args.p!r}")
    if args.out:
        write_rows_csv(args.out, {
            "bound_misclass": [rep.bound_misclass],
            "bound_reject": [rep.bound_reject],
            "gamma_star_misclass": [rep.gamma_star_misclass],
            "gamma_star_reject": [rep.gamma_star_reject],
            "empirical_misclass": [rep.components_misclass[0]],
            "penalty_misclass": [rep.components_misclass[1]],
            "tail_misclass": [rep.components_misclass[2]],
            "empirical_reject": [rep.components_reject[0]],
            "penalty_reject": [rep.components_reject[1]],
            "tail_reject": [rep.components_reject[2]],
            "delta": [rep.delta],
            "p": [rep.p],
        })
    return EXIT_OK


def _columns(rows, names):
    """Dict rows as the {name: cells} table write_rows_csv takes."""
    return {c: [row[c] for row in rows] for c in names}


def cmd_simulate(args):
    overrides = {}
    if args.config:
        try:
            with open(args.config) as fh:
                overrides = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise DataError("config must be a JSON object")
        if "r_grid" in overrides:
            grid = overrides["r_grid"]
            if not isinstance(grid, list) or not all(
                    isinstance(v, (int, float, str))
                    and not isinstance(v, bool) for v in grid):
                raise ValueError(f"r_grid must be a list of numbers, "
                                 f"got {grid!r}")
            overrides["r_grid"] = tuple(float(v) for v in grid)
    if "seed" not in overrides:  # a config's seed wins over --seed
        overrides["seed"] = _seed(args)
    try:
        config = sim.ExperimentConfig(scenario=args.scenario, **overrides)
    except TypeError as exc:
        raise DataError(f"bad config field: {exc}") from exc
    if args.scenario == "two_gaussian":
        rows = sim.run_reject_vs_plain(config)
        write_rows_csv(args.out, _columns(rows, sim.RESULT_COLUMNS))
        print(f"wrote {len(rows)} result rows to {args.out}")
    else:
        rows, info = sim.run_mixture_boundaries(config)
        write_rows_csv(args.out, _columns(rows, sim.GRID_COLUMNS))
        agree = [r for r in rows if r["estimated"] == r["optimal"]]
        print(f"wrote {len(rows)} grid rows to {args.out}")
        print(f"cv picked r={info['r_star']!r}; "
              f"agreement {len(agree)}/{len(rows)} cells")
    return EXIT_OK


def cmd_diagnose(args):
    wanted = set(args.checks)
    if "all" in wanted:
        wanted = {"lemma_a1", "prop21", "domination", "plateau"}
    seed = _seed(args) if "lemma_a1" in wanted else None
    dist = load_distribution(args.dist)
    dic = parse_dict_spec(args.dict, dist.x)
    ctx = theory.make_context(dist, dic, CostParams(d=args.d, tau=args.tau))
    r_grid = (None if args.r_grid is None
              else np.asarray([float(v) for v in args.r_grid.split(",")]))
    # prop21 and plateau read the same population fits, solved once; only
    # they need a grid
    if wanted & {"prop21", "plateau"}:
        if r_grid is None:
            design = dictionary.DesignMatrix(ctx.phi)
            top = ctx.cp.a * dictionary.estimated_c_f(dic, design)
            r_grid = np.linspace(top / 20.0, top, 20)
        fits = theory.population_path(ctx, r_grid)
    reports = []
    if "lemma_a1" in wanted:
        reports.append(theory.check_lemma_a1(ctx, seed=seed))
    if "prop21" in wanted:
        reports.append(theory.check_prop21(ctx, fits))
    if "domination" in wanted:
        reports.append(theory.check_excess_domination(ctx))
    if "plateau" in wanted:
        reports.append(theory.check_plateau(fits))
    for rep in reports:
        print(f"{rep.name}: {rep.status} (slack={rep.slack!r}) {rep.witness}")
    if args.out:
        write_reports_csv(args.out, reports)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rejectsvm",
        description="Sparse linear classification with a reject option.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")

    p = sub.add_parser("train", help="fit a model on a labeled CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--dict", default="linear",
                   help="linear | constant_linear | rbf_lattice:R1xR2[,beta]")
    p.add_argument("--d", type=float, default=0.25, help="rejection cost")
    p.add_argument("--tau", type=float, default=0.5, help="reject threshold")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=float, help="penalty weight")
    group.add_argument("--cv", action="store_true",
                       help="pick r by cross-validation")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--cv-points", type=int, default=30,
                   help="size of the cross-validation r grid")
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="margins and decisions for a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="per-row CSV: margin, decision")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="risk report on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="one-row CSV of the report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bounds", help="data-driven error/reject bounds")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--p", type=float, default=1.0,
                   help="tail exponent, a finite number > 0: the bounds "
                        "add n^-p")
    p.add_argument("--out", help="one-row CSV of the bounds")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="run a synthetic study, write CSV")
    p.add_argument("--scenario", required=True,
                   choices=["two_gaussian", "mixture"])
    p.add_argument("--config", help="JSON file of config overrides")
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("diagnose",
                       help="run population-level checks on a distribution")
    p.add_argument("--dist", required=True,
                   help="CSV with columns p, eta, then features")
    p.add_argument("--dict", default="linear")
    p.add_argument("--d", type=float, default=0.25)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--checks", nargs="+", default=["all"],
                   choices=["lemma_a1", "prop21", "domination", "plateau",
                            "all"])
    p.add_argument("--r-grid", help="comma-separated penalty grid")
    p.add_argument("--out", help="report CSV: name, status, slack, witness")
    add_seed(p)
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LpNumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, LpInputError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
