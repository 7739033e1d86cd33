"""Model fitting: L1-penalized hinge-type risk minimization by linear programming.

fit(design, cp, r) returns a coefficient vector minimizing

    (1/n) sum_i gen_hinge(y_i f(x_i)) + r ||lambda||_1,

exactly, as the solution of a linear program.  One builder, _hinge_lp,
states a weighted hinge risk over points, each with features, a mass and a
probability eta of the label +1, with lambda split into positive and
negative parts and one epigraph column per point, bounded below by one row
per linear piece of the point's loss; at any simplex vertex the two parts
of lambda cannot both be positive, so the l1 penalty is exact.  fit passes
each sample with mass 1/n and eta 1 or 0 by its label, which gives the two
sample hinge rows; fit_population passes each atom once, with its mass and
eta, which gives four rows where 0 < eta < 1.  Where a = 1 (d = 1/2) the
two middle pieces are one, so a point has one row fewer.  Both fits start
from the crash basis the builder states (lambda = 0), each t basic in its
point's plainer middle row.

r enters the LP only through the objective, so a penalty grid is one
program whose optimal basis at one r is feasible at the next.
walk_penalty_path solves a grid from the largest r down: the first fit on a
path builds the program, and each later fit of the same input objects
writes r into its 2M penalty costs and starts from the last optimal
tableau, re-priced.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import SUPPORT_TOL
from .dictionary import DesignMatrix, estimated_c_f, evaluate
from .losses import CostParams, gen_hinge, reject_loss
from .lp import LinearProgram, LpNumericalError, LpPath, solve_lp


@dataclass
class Model:
    """A fit; c_f is the rates' sup-norm bound, from data unless dic fixes it."""

    lam: np.ndarray
    dic: object
    cp: CostParams
    r: float
    n_train: int
    objective: float
    iterations: int
    c_f: float

    def l1_norm(self):
        return float(np.abs(self.lam).sum())

    def support_size(self):
        """The number of coefficients whose magnitude exceeds SUPPORT_TOL."""
        return int(np.sum(np.abs(self.lam) > SUPPORT_TOL))


@dataclass
class HingeProgram(LinearProgram):
    """A _hinge_lp program with its crash basis: for each row, the
    standard-form column basic at lambda = 0, t = 1."""

    crash: np.ndarray = field(kw_only=True)


def _hinge_lp(phi, mass, eta, cp, r):
    """Penalized hinge LP over [u, v, t] with lambda = u - v, in epigraph form.

    Point k has features phi_k, mass w_k and probability eta_k of the label
    +1.  Its loss eta_k gen_hinge(z) + (1 - eta_k) gen_hinge(-z), at
    z = phi_k lambda, is convex and piecewise linear with breakpoints -1, 0
    and 1, and t_k >= 0, at cost w_k, is its epigraph: one row
    t_k - s phi_k lambda >= c per linear piece s z + c.  The program
    minimizes mass . t + r sum(u + v).  The middle pieces have slopes
    1 - eta - a eta on [-1, 0] and a (1 - eta) - eta on [0, 1], both with
    intercept 1.  Every point has a row for the plainer, on the side of the
    likelier label, where t_k starts basic, so that z can move that way
    without a degenerate pivot; where the two slopes differ (a != 1) the
    steeper gets a row too.  The steeper rows come first, then the n
    plainer ones.  With eta in {0, 1} they are the sample hinge rows
    t >= 1 - a y phi lambda and t >= 1 - y phi lambda of the label
    y = 2 eta - 1, one row where a = 1.  A point with 0 < eta < 1 also gets
    the outer pieces -a eta z + eta and a (1 - eta) z + 1 - eta, one row
    each, after all the middle rows: first every left piece, then every
    right one.  The crash basis (lambda = 0, t = 1) is a vertex: t basic in
    the plainer rows, surpluses basic in the others, at 0 in the steeper
    rows and at eta or 1 - eta in the outer ones; it skips phase 1.
    """
    if r < 0:
        raise ValueError("penalty weight r must be non-negative")
    n, M = phi.shape
    a = cp.a
    left = 1.0 - eta - a * eta
    right = a * (1.0 - eta) - eta
    left_second = np.abs(left) < np.abs(right)
    steep = np.flatnonzero(left != right)
    both = np.flatnonzero((eta > 0.0) & (eta < 1.0))
    outer = eta[both]
    slopes = np.concatenate([np.where(left_second, right, left)[steep],
                             np.where(left_second, left, right),
                             -a * outer, a * (1.0 - outer)])
    rhs = np.concatenate([np.ones(steep.size + n), outer, 1.0 - outer])
    point = np.concatenate([steep, np.arange(n), both, both])
    rows = np.zeros((point.size, 2 * M + n))
    rows[:, :M] = -slopes[:, None] * phi[point]
    rows[:, M:2 * M] = -rows[:, :M]
    rows[np.arange(point.size), 2 * M + point] = 1.0
    objective = np.concatenate([np.full(2 * M, r), mass])
    nvar, s = 2 * M + n, steep.size
    crash = np.concatenate([nvar + np.arange(s), 2 * M + np.arange(n),
                            nvar + np.arange(s + n, point.size)])
    return HingeProgram(objective, rows, [">="] * point.size, rhs,
                        lower=np.zeros(nvar), crash=crash)


def _labeled_points(design):
    """A labeled design as _hinge_lp's points: mass 1/n, eta = (1 + y) / 2."""
    if design.y is None:
        raise ValueError("training requires labeled data")
    return design.phi, np.full(design.n, 1.0 / design.n), (1.0 + design.y) / 2.0


def split_lp(design, cp, r):
    """The training LP: _hinge_lp with every sample weighted 1/n."""
    return _hinge_lp(*_labeled_points(design), cp, r)


def _fit_hinge_lp(path, owner, build, cp, r, what):
    """Solve a _hinge_lp program at penalty r from its crash basis.

    build(r) returns the program and its points, the (phi, mass, eta) it
    was built from.  If a fit of the same owner objects (compared with is)
    last filled path, r goes into the program's 2M penalty costs and the
    kept points are reused; otherwise, or if r is not finite and >= 0,
    build(r) makes the program or raises.  Returns (points, lambda,
    objective, pivots), objective re-evaluated at lambda from the points.
    """
    kept, points = getattr(path, "owner", None) or ((), None)
    if (len(kept) == len(owner) and 0 <= r < math.inf
            and all(a is b for a, b in zip(kept, owner))):
        lp = path.program
        lp.objective[:2 * points[0].shape[1]] = r
    else:
        lp, points = build(r)
    phi, mass, eta = points
    M = phi.shape[1]
    sol = solve_lp(lp, initial_basis=lp.crash, path=path)
    if sol.status != "optimal":
        raise LpNumericalError(f"{what} LP reported {sol.status}")
    if path is not None:
        path.owner = owner, points
    lam = sol.x[:M] - sol.x[M:2 * M]
    z = phi @ lam
    pos, neg = gen_hinge(np.stack([z, -z]), cp)
    objective = (float(mass @ (eta * pos + (1.0 - eta) * neg))
                 + float(r) * float(np.abs(lam).sum()))
    if abs(objective - sol.objective_value) > 1e-6 * (1.0 + abs(objective)):
        raise LpNumericalError(
            f"{what} LP objective disagrees with the re-evaluated penalized "
            f"risk: {sol.objective_value!r} vs {objective!r}"
        )
    return points, lam, objective, sol.iterations


def fit(design, cp, r, dic=None, path=None):
    """Minimize the penalized empirical hinge risk exactly.

    path optionally passes an LpPath (see walk_penalty_path): if a fit of
    this design and cp object last filled it, the fit re-costs its program
    and starts warm.  A design edited in place mid-walk is not detected.
    """
    _, lam, objective, pivots = _fit_hinge_lp(
        path, (design, cp),
        lambda r: (split_lp(design, cp, r), _labeled_points(design)),
        cp, r, "training")
    c_f = (float(np.abs(design.phi).max()) if dic is None
           else estimated_c_f(dic, design))
    return Model(
        lam=lam, dic=dic, cp=cp, r=float(r), n_train=design.n,
        objective=objective, iterations=pivots, c_f=c_f,
    )


def fit_population(dist, dic, cp, r, path=None):
    """Exact population minimizer lambda(r) for a finite-support distribution.

    Solves _hinge_lp with one point per atom, of mass p(x) and probability
    eta(x) of the label +1: four rows where 0 < eta(x) < 1, two where eta(x)
    is 0 or 1, and one fewer each where a = 1.  path works as in fit, for
    the same dist, dic and cp.
    """
    def build(r):
        points = evaluate(dic, dist.x).phi, dist.p, dist.eta
        return _hinge_lp(*points, cp, r), points

    (phi, _, _), lam, objective, pivots = _fit_hinge_lp(
        path, (dist, dic, cp), build, cp, r, "population")
    return Model(
        lam=lam, dic=dic, cp=cp, r=float(r), n_train=dist.n_atoms,
        objective=objective, iterations=pivots,
        c_f=float(np.abs(phi).max()) if dic.C_F_estimated else dic.C_F,
    )


def walk_penalty_path(r_grid, *solvers):
    """Call each solver at every r of r_grid, from the largest r down.

    A solver is called as solver(r, path) and passes path on to fit or
    fit_population; each solver keeps its own LpPath, so one that fits the
    same inputs at every r builds one program and re-costs it later.  At
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


def cross_validate(design, cp, r_grid, folds=10):
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
    if r_grid.size == 0 or not np.all(np.isfinite(r_grid) & (r_grid >= 0)):
        raise ValueError("r_grid must be finite, non-negative and non-empty")
    fold_of = np.arange(n) % folds

    risks = np.zeros(r_grid.size)
    for f in range(folds):
        hold = fold_of == f
        tr = DesignMatrix(design.phi[~hold], design.y[~hold])
        phi_hold = design.phi[hold]
        y_hold = design.y[hold]

        def held_out_loss(r, path):
            model = fit(tr, cp, r, path=path)
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
    if not 0.0 < p < math.inf:
        raise ValueError(f"p must be a finite number > 0, not {p!r}")
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
