"""Model fitting: L1-penalized hinge-type risk minimization by linear programming.

fit(design, cp, r) returns a coefficient vector minimizing

    (1/n) sum_i gen_hinge(y_i f(x_i)) + r ||lambda||_1,

exactly, as the solution of a linear program.  Two equivalent LP builds are
provided: assemble_lp mirrors the textbook slack formulation (one slack per
sample for the hinge plus one per coefficient for the absolute value), while
the default solve path splits lambda into positive and negative parts, which
halves the constraint count.  At any simplex vertex the split parts cannot
both be positive, so the optimal objectives of the two builds coincide; the
test suite asserts this.

r enters the LP only through the objective, so every point of a penalty
grid shares one set of constraints and the optimal basis at one r is
feasible at the next.  walk_penalty_path exploits this: it solves a grid
from the largest r down, each step starting from the previous optimal
tableau with only its cost row re-priced.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import SUPPORT_TOL
from .dictionary import estimated_c_f, evaluate
from .losses import CostParams, gen_hinge, population_risk, reject_loss
from .lp import LinearProgram, LpNumericalError, LpPath, solve_lp


@dataclass
class Model:
    lam: np.ndarray
    dic: object
    cp: CostParams
    r: float
    n_train: int
    objective: float
    iterations: int
    c_f: float
    c_f_estimated: bool

    def l1_norm(self):
        return float(np.abs(self.lam).sum())

    def support_size(self, tol=SUPPORT_TOL):
        return int(np.sum(np.abs(self.lam) > tol))


def assemble_lp(design, cp, r):
    """Slack-variable LP for the penalized empirical risk.

    Variables are [lambda (free), xi_1..xi_n, xi_{n+1}..xi_{n+M}] with
    xi_i covering the hinge at sample i (xi_i >= 0, >= 1 - y_i h_i,
    >= 1 - a y_i h_i) and xi_{n+j} covering |lambda_j|.  The objective
    (1/n) sum xi_i + r sum xi_{n+j} equals the penalized risk at the optimum.
    """
    if design.y is None:
        raise ValueError("training requires labeled data")
    if r < 0:
        raise ValueError("penalty weight r must be non-negative")
    n, M = design.n, design.M
    yphi = design.y[:, None] * design.phi
    nvar = M + n + M
    rows = np.zeros((2 * n + 2 * M, nvar))
    rows[:n, :M] = yphi
    rows[:n, M:M + n] = np.eye(n)
    rows[n:2 * n, :M] = cp.a * yphi
    rows[n:2 * n, M:M + n] = np.eye(n)
    rows[2 * n:2 * n + M, :M] = -np.eye(M)
    rows[2 * n:2 * n + M, M + n:] = np.eye(M)
    rows[2 * n + M:, :M] = np.eye(M)
    rows[2 * n + M:, M + n:] = np.eye(M)
    rhs = np.concatenate([np.ones(2 * n), np.zeros(2 * M)])
    objective = np.concatenate([np.zeros(M), np.full(n, 1.0 / n), np.full(M, r)])
    lower = np.concatenate([np.full(M, -np.inf), np.zeros(n + M)])
    return LinearProgram(objective, rows, [">="] * (2 * n + 2 * M), rhs, lower=lower)


def split_lp(design, cp, r):
    """Equivalent LP over [u, v, xi] with lambda = u - v and penalty r sum(u+v)."""
    if design.y is None:
        raise ValueError("training requires labeled data")
    if r < 0:
        raise ValueError("penalty weight r must be non-negative")
    n, M = design.n, design.M
    yphi = design.y[:, None] * design.phi
    nvar = 2 * M + n
    rows = np.zeros((2 * n, nvar))
    rows[:n, :M] = yphi
    rows[:n, M:2 * M] = -yphi
    rows[:n, 2 * M:] = np.eye(n)
    rows[n:, :M] = cp.a * yphi
    rows[n:, M:2 * M] = -cp.a * yphi
    rows[n:, 2 * M:] = np.eye(n)
    rhs = np.ones(2 * n)
    objective = np.concatenate([np.full(2 * M, r), np.full(n, 1.0 / n)])
    return LinearProgram(objective, rows, [">="] * (2 * n), rhs, lower=np.zeros(nvar))


def _finish_model(design, dic, cp, r, lam, sol):
    margins = design.y * (design.phi @ lam)
    emp = float(np.mean(gen_hinge(margins, cp)))
    objective = emp + r * float(np.abs(lam).sum())
    if abs(objective - sol.objective_value) > 1e-6 * (1.0 + abs(objective)):
        raise LpNumericalError(
            "LP objective disagrees with the re-evaluated penalized risk: "
            f"{sol.objective_value!r} vs {objective!r}"
        )
    if dic is not None:
        c_f = estimated_c_f(dic, design)
        flagged = dic.C_F_estimated
    else:
        c_f = float(np.abs(design.phi).max())
        flagged = True
    return Model(
        lam=lam, dic=dic, cp=cp, r=float(r), n_train=design.n,
        objective=objective, iterations=sol.iterations,
        c_f=c_f, c_f_estimated=flagged,
    )


def fit(design, cp, r, dic=None, formulation="split", pivot_rule="dantzig_bland",
        debug_dump=None, path=None):
    """Minimize the penalized empirical hinge risk exactly.

    formulation "split" (default) solves the reduced LP; "slack" solves the
    full slack form from assemble_lp.  Both yield the same optimal objective.
    path optionally passes an LpPath from a fit of the same design and cost
    at another r (see walk_penalty_path); without one, the solve starts from
    the crash basis.
    """
    n, M = design.n, design.M
    if formulation == "split":
        lp = split_lp(design, cp, r)
        # lambda = 0, xi = 1 is a vertex: hinge slacks basic in the steeper
        # rows, surpluses basic (at 0) in the plainer ones; skips phase 1
        nv = 2 * M + n
        start = np.concatenate([nv + np.arange(n), 2 * M + np.arange(n)])
    elif formulation == "slack":
        lp = assemble_lp(design, cp, r)
        start = None
    else:
        raise ValueError(f"unknown formulation {formulation!r}")
    sol = solve_lp(lp, pivot_rule=pivot_rule, initial_basis=start,
                   debug_dump=debug_dump, path=path)
    if sol.status != "optimal":
        raise LpNumericalError(f"training LP reported {sol.status}")
    if formulation == "split":
        lam = sol.x[:M] - sol.x[M:2 * M]
    else:
        lam = sol.x[:M].copy()
    return _finish_model(design, dic, cp, r, lam, sol)


def fit_population(dist, dic, cp, r, pivot_rule="dantzig_bland", path=None):
    """Exact population minimizer lambda(r) for a finite-support distribution.

    Uses the split build with two weighted hinge slacks per atom, one for
    each label, weighted by p(x) eta(x) and p(x)(1 - eta(x)).  path works as
    in fit.
    """
    if r < 0:
        raise ValueError("penalty weight r must be non-negative")
    phi = evaluate(dic, dist.x).phi
    k, M = phi.shape
    nvar = 2 * M + 2 * k
    rows = np.zeros((4 * k, nvar))
    eye = np.eye(k)
    for block, (sign, slope) in enumerate(
        [(1.0, 1.0), (1.0, cp.a), (-1.0, 1.0), (-1.0, cp.a)]
    ):
        sl = slice(block * k, (block + 1) * k)
        rows[sl, :M] = sign * slope * phi
        rows[sl, M:2 * M] = -sign * slope * phi
        rows[sl, 2 * M + (0 if block < 2 else k):][:, :k] = eye
    rhs = np.ones(4 * k)
    weights_pos = dist.p * dist.eta
    weights_neg = dist.p * (1.0 - dist.eta)
    objective = np.concatenate([np.full(2 * M, r), weights_pos, weights_neg])
    lp = LinearProgram(objective, rows, [">="] * (4 * k), rhs, lower=np.zeros(nvar))
    # lambda = 0, t = s = 1 vertex start, mirroring fit's crash basis
    start = np.concatenate([
        nvar + np.arange(k),
        2 * M + np.arange(k),
        nvar + 2 * k + np.arange(k),
        2 * M + k + np.arange(k),
    ])
    sol = solve_lp(lp, pivot_rule=pivot_rule, initial_basis=start, path=path)
    if sol.status != "optimal":
        raise LpNumericalError(f"population LP reported {sol.status}")
    lam = sol.x[:M] - sol.x[M:2 * M]
    f_vals = phi @ lam
    objective_val = population_risk(dist, f_vals, cp, "hinge") + r * float(
        np.abs(lam).sum()
    )
    if abs(objective_val - sol.objective_value) > 1e-6 * (1.0 + abs(objective_val)):
        raise LpNumericalError("population LP objective failed re-evaluation")
    return Model(
        lam=lam, dic=dic, cp=cp, r=float(r), n_train=dist.n_atoms,
        objective=objective_val, iterations=sol.iterations,
        c_f=float(np.abs(phi).max()) if dic.C_F_estimated else dic.C_F,
        c_f_estimated=dic.C_F_estimated,
    )


def walk_penalty_path(r_grid, *solvers):
    """Call each solver at every r of r_grid, from the largest r down.

    A solver is called as solver(r, path) and passes path on to fit or
    fit_population; each solver keeps its own LpPath for the whole walk, so
    every step after its first starts from its last optimal tableau.  At
    each r the solvers run in the order given.  The walk starts at the
    largest r, where the crash basis (lambda = 0) is optimal or nearly so.
    Returns one list per solver of its results in grid order.
    """
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    paths = [LpPath() for _ in solvers]
    results = [[None] * r_grid.size for _ in solvers]
    for i in np.argsort(-r_grid, kind="stable"):
        for solve, path, out in zip(solvers, paths, results):
            out[i] = solve(float(r_grid[i]), path)
    return results


def default_r_grid(cp, c_f, num=30):
    """Log-spaced penalty grid from 1e-4 up to a*C_F (where 0 is optimal)."""
    return np.geomspace(1e-4, cp.a * c_f, num)


def cross_validate(design, cp, r_grid, folds=10, formulation="split"):
    """Held-out reject-loss risk over a penalty grid.

    Folds are assigned round-robin by row index, so the split is
    deterministic.  Each fold walks the grid as one warm path (see
    walk_penalty_path).  Returns (r_star, table) where table rows are
    (r, mean held-out reject_loss) in grid order; ties go to the larger r.
    """
    n = design.n
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if folds > n:
        raise ValueError(f"{folds} folds but only {n} rows")
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    if r_grid.size == 0 or np.any(r_grid < 0):
        raise ValueError("r_grid must be non-empty and non-negative")
    fold_of = np.arange(n) % folds
    from .dictionary import DesignMatrix

    risks = np.zeros(r_grid.size)
    for f in range(folds):
        hold = fold_of == f
        tr = DesignMatrix(design.phi[~hold], design.y[~hold])
        phi_hold = design.phi[hold]
        y_hold = design.y[hold]

        def held_out_loss(r, path):
            model = fit(tr, cp, r, formulation=formulation, path=path)
            z = y_hold * (phi_hold @ model.lam)
            return float(np.sum(reject_loss(z, cp)))

        risks += walk_penalty_path(r_grid, held_out_loss)[0]
    risks /= n
    best = risks.min()
    tied = np.flatnonzero(risks <= best + 1e-12)
    r_star = float(r_grid[tied].max())
    table = [(float(r), float(v)) for r, v in zip(r_grid, risks)]
    return r_star, table


def concentration_bracket(n, M, delta, p=1.0):
    """Shared deviation term of the penalty and rate formulas.

    9 sqrt(2 ln(2 max(M,n)) / n) + 2 p log2(n) / sqrt(2 max(M,n))
      + sqrt(2 ln(1/delta) / n)
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1 or M < 1:
        raise ValueError("n and M must be at least 1")
    big = max(M, n)
    return (
        9.0 * math.sqrt(2.0 * math.log(2.0 * big) / n)
        + 2.0 * p * math.log2(n) / math.sqrt(2.0 * big)
        + math.sqrt(2.0 * math.log(1.0 / delta) / n)
    )


def theoretical_r(n, M, c_f, cp, delta, p=1.0):
    """Penalty level from the high-probability excess-risk guarantee.

    (1-d)/d * C_F * concentration_bracket(n, M, delta, p)
    """
    return (1.0 - cp.d) / cp.d * c_f * concentration_bracket(n, M, delta, p)
