"""Simplex method on a condensed tableau; nothing is factored.

Problems are stated in general form,

    minimize    c . x
    subject to  row . x  {<=, >=, =}  rhs      (one relation per row)
                lower <= x <= upper            (entries may be infinite)

The solver is deliberately plain -- one attempt on a dense, condensed
(dictionary) tableau of the nonbasic columns, B^-1 [N | b], pivoted by
Jordan exchanges, steepest-edge pricing, a Harris two-pass ratio test, and
one dual simplex routine that makes an infeasible start feasible and
repairs the drift of the basic solution restored from the original data
after any pivot -- so that small instances can be confirmed independently
by enumerating every basic solution of the standard form, as the test
suite does with its own vertex-enumeration oracle.  Everything is dense:
the standard form keeps its structural columns as one m x nv block, with
each row's slack implicit.  A cold start is the slack basis, which is its
own inverse, and a restore reads B^-1 from the tableau, so no basis is
ever factored.  A caller that can write a better start's tableau in
closed form seeds an LpPath with it: hinge fits do (see train).

A tableau may leave out nonbasic structural columns, which keeps its width
near the support of a program with many more columns than rows.  The
left-out columns are priced against the original data, with duals read
from the tableau's slack columns, and the ones that can enter are appended
(column generation), so a returned optimum is the whole program's.

A PiecewiseProgram, the population program of the hinge loss, is solved by
a piecewise-linear primal simplex instead (Fourer, "A simplex algorithm
for piecewise-linear programming", Math. Prog. 33 (1985)): one row
z_k = phi_k lam per atom, each z_k with its convex piecewise-linear cost,
lam with cost r |lam|, and a ratio test that passes breakpoints.  Its
tableau is atoms x features, where the epigraph LP of the same program has
up to four rows per atom and a column per atom besides.  It starts from
every z basic, whose tableau is -phi, pivots by the same Jordan exchange,
refines its point through the same B^-1 reading, and checks its optimum's
duals against the original data.  The ratio test reads breakpoints in
rounds, each moving variable's nearest one first and a further one only
while the step can still reach it; its decisions are those of the full
collection, bit for bit (see _long_step).  The per-variable breakpoint
and slope tables are built once with the program, and a solve rewrites
only lam's slopes for the current penalty.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas as _blas

from .constants import BLOWUP_LIMIT, FEAS_TOL, PIVOT_TOL

_SENSE = {"<=": 1.0, ">=": -1.0, "=": 0.0}  # "=" rows are audited both ways


class LpError(Exception):
    """Base class for linear-program failures."""


class LpInputError(LpError):
    """Malformed problem data (dimension mismatch, bad relation, non-finite)."""


class LpNumericalError(LpError):
    """The solve aborted for numerical reasons; not an infeasibility verdict."""


@dataclass
class LinearProgram:
    """General-form LP data, coerced to float and validated.  rows, rhs,
    lower and upper are read-only copies; only the objective may change."""

    objective: np.ndarray
    rows: np.ndarray
    relations: tuple
    rhs: np.ndarray
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = self.objective.size
        self.rows = np.array(self.rows, dtype=float)
        if self.rows.size == 0:
            self.rows = self.rows.reshape(0, n)
        self.rows = np.atleast_2d(self.rows)
        self.rhs = np.atleast_1d(np.array(self.rhs, dtype=float))
        self.relations = tuple(self.relations)
        m = len(self.relations)
        if self.rows.shape != (m, n):
            raise LpInputError(
                f"constraint matrix has shape {self.rows.shape}, expected {(m, n)}"
            )
        if self.rhs.shape != (m,):
            raise LpInputError(f"rhs has shape {self.rhs.shape}, expected ({m},)")
        for rel in self.relations:
            if not isinstance(rel, str) or rel not in _SENSE:
                raise LpInputError(f"unknown relation {rel!r}")
        if not np.all(np.isfinite(self.objective)):
            raise LpInputError("objective contains non-finite entries")
        if not np.all(np.isfinite(self.rows)):
            raise LpInputError("constraint rows contain non-finite entries")
        if not np.all(np.isfinite(self.rhs)):
            raise LpInputError("rhs contains non-finite entries")
        if self.lower is None:
            self.lower = np.full(n, -np.inf)
        if self.upper is None:
            self.upper = np.full(n, np.inf)
        self.lower = np.atleast_1d(np.array(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.array(self.upper, dtype=float))
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise LpInputError("variable bounds must have one entry per variable")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise LpInputError("variable bounds contain NaN")
        if np.any(np.isposinf(self.lower)):
            raise LpInputError(f"variable {np.isposinf(self.lower).argmax()} "
                               f"has lower bound +inf")
        if np.any(np.isneginf(self.upper)):
            raise LpInputError(f"variable {np.isneginf(self.upper).argmax()} "
                               f"has upper bound -inf")
        if np.any(self.lower > self.upper):
            raise LpInputError("some lower bound exceeds its upper bound")
        for fixed in (self.rows, self.rhs, self.lower, self.upper):
            fixed.flags.writeable = False

    @property
    def nvar(self):
        return self.objective.size

    @property
    def ncon(self):
        return len(self.relations)


@dataclass
class PiecewiseProgram:
    """minimize sum_k cost_k(z_k) + penalty ||lam||_1 subject to z = phi lam.

    cost_k is convex and piecewise linear with breakpoints -1, 0 and 1: its
    value at 0 is at_zero[k], and its slopes on (-inf, -1], [-1, 0], [0, 1]
    and [1, inf) are slopes[k], nondecreasing.  One row per atom k of phi,
    one column per feature.  phi, slopes and at_zero are read-only copies;
    only the penalty may change, and a solve checks it.  The solver's
    tables are built here, once (see _Tables).
    """

    phi: np.ndarray
    slopes: np.ndarray
    at_zero: np.ndarray
    penalty: float

    def __post_init__(self):
        self.phi = np.atleast_2d(np.array(self.phi, dtype=float))
        self.slopes = np.array(self.slopes, dtype=float)
        self.at_zero = np.array(self.at_zero, dtype=float)
        n = self.phi.shape[0]
        if self.phi.ndim != 2 or self.slopes.shape != (n, 4) \
                or self.at_zero.shape != (n,):
            raise LpInputError(f"phi, slopes and at_zero have shapes "
                               f"{self.phi.shape}, {self.slopes.shape} and "
                               f"{self.at_zero.shape}: not (n, M), (n, 4), "
                               f"(n,)")
        for name in ("phi", "slopes", "at_zero"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise LpInputError(f"{name} contains non-finite entries")
        if np.any(np.diff(self.slopes, axis=1) < 0.0):
            raise LpInputError("some cost's slopes decrease: it is not "
                               "convex")
        for fixed in (self.phi, self.slopes, self.at_zero):
            fixed.flags.writeable = False
        self._tables = _piecewise_tables(self)


@dataclass
class LpSolution:
    status: str                    # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray = None           # defined iff optimal
    objective_value: float = None  # defined iff optimal
    iterations: int = 0
    warm: bool = False             # the solve started from an LpPath tableau


class StandardForm(NamedTuple):
    """A program as min c.x, A x + sigma s = b, x, s >= 0: the form a solve
    works on.

    A is the dense m x nv block of the standard variables' columns.  Row i
    has one slack, standard variable nv + i, whose column sigma_i e_i is
    kept implicit: sigma_i = +1 for a <= row and -1 for a >= row.  The
    column map cmap = (col, sign, shift, free) gives each original variable
    from the standard form: x_j = sign_j x_std[col_j] + shift_j, minus
    x_std[col_j + 1] when free_j.  sense signs the user's rows for the
    audit: +1 <=, -1 >=, 0 =.
    """

    A: np.ndarray
    b: np.ndarray
    cmap: tuple
    sigma: np.ndarray
    sense: np.ndarray


class LpPath:
    """Warm-start state for one program object whose objective alone changes.

    After every optimal solve, repaired or not, it keeps the program object,
    its StandardForm, and the solve's final condensed (dictionary) tableau
    of the nonbasic columns and its basis and nonbasic index arrays; the
    tableau's right-hand-side column holds the basic solution, clipped at
    0, as refined against the original data after the last pivot, or as
    the start wrote it when no pivot was taken.  None of these involves
    the costs, so the next solve of the same object starts from the
    tableau with only the cost row re-priced, and reuses the basic
    solution when no pivot is needed.  A caller may also seed a path with
    a program and a start it wrote itself, a feasible tableau (cost row
    ignored) with its basis and nonbasic arrays, and no form, which the
    solve then builds; a hinge fit seeds its crash tableau this way.  Any
    other program, equal or not, ignores the state.  owner is the caller's
    note of what built program; every solve clears it.  One tableau is live
    per path.  A tableau, kept or seeded, may leave out nonbasic structural
    columns (never a slack): nonbasic then names fewer columns than the
    program has, and a solve prices the rest from the duals.  The basis
    array is pivoted in place; the tableau and nonbasic array are new
    whenever a solve narrows or widens them.  For a PiecewiseProgram the
    tableau is B^-1 N over the features' and atoms' nonbasic columns with
    the basic values last, pivoted in place, and form holds each
    variable's segment or breakpoint (see _piecewise_start); a caller
    never seeds one.
    """

    __slots__ = "program", "owner", "form", "tableau", "basis", "nonbasic"

    def __init__(self):
        self.clear()

    def clear(self):
        self.program = self.owner = self.form = None
        self.tableau = self.basis = self.nonbasic = None


def _to_standard_form(lp):
    """lp as a StandardForm, its block A written straight from lp.rows.

    Every row gets a slack, row i's the standard variable nv + i.  An = row
    becomes its <= half in place and its >= half after the user's rows; the
    <= rows of two-sided variable bounds come last.  A variable bounded
    above only is mirrored, a free one split into two columns.  A zero of
    the rows is +0.0 in A, never -0.0.
    """
    lo, up = lp.lower, lp.upper
    free = np.isneginf(lo) & np.isposinf(up)
    mirror = np.isneginf(lo) & ~free  # upper bound only: mirror the variable
    sign = np.where(mirror, -1.0, 1.0)
    shift = np.where(mirror, up, np.where(free, 0.0, lo))
    width = 1 + free
    col = np.cumsum(width) - width
    boxed = np.flatnonzero(np.isfinite(lo) & np.isfinite(up))
    nv = int(width.sum())
    sense = np.array([_SENSE[rel] for rel in lp.relations], float)
    eq = np.flatnonzero(sense == 0.0)
    rows = np.vstack([lp.rows, lp.rows[eq]]) if eq.size else lp.rows
    sigma = np.concatenate([np.where(sense < 0.0, -1.0, 1.0),
                            -np.ones(eq.size), np.ones(boxed.size)])
    k = rows.shape[0]
    A = np.zeros((sigma.size, nv), order="F")  # the scatter writes columns
    A[:k, col] = rows
    A[:k, col[free] + 1] = rows[:, free]
    negated = np.concatenate([col[mirror], col[free] + 1])
    A[:k, negated] *= -1.0
    A += 0.0  # turns -0.0 into +0.0
    A[k + np.arange(boxed.size), col[boxed]] = 1.0
    b = lp.rhs.copy()
    for j in np.flatnonzero(shift):  # one column at a time, in column order
        b = b - lp.rows[:, j] * shift[j]
    b = np.concatenate([b, b[eq], up[boxed] - lo[boxed]])
    return StandardForm(A, b, (col, sign, shift, free), sigma, sense)


def _standard_costs(objective, cmap, ncols):
    """Standard-form cost vector: mirrored columns negate, slacks cost 0."""
    col, sign, _, free = cmap
    c = np.zeros(ncols)
    c[col] = sign * objective
    c[col[free] + 1] = -objective[free]
    return c


def _recover_x(cmap, x_std):
    col, sign, shift, free = cmap
    x = sign * x_std[col] + shift
    x[free] -= x_std[col[free] + 1]
    return x


def _audit_feasible(lp, x, sense):
    """Raise LpNumericalError if x is not finite or breaks a row (signed by
    sense) or a bound."""
    if not np.all(np.isfinite(x)):
        raise LpNumericalError("claimed-optimal point is not finite")
    res = lp.rows @ x - lp.rhs
    excess = np.where(sense == 0.0, np.abs(res), sense * res)
    bad = np.flatnonzero(excess > FEAS_TOL)
    if bad.size:
        raise LpNumericalError(
            f"claimed-optimal point violates row {bad[0]} by {res[bad[0]]:.3e}"
        )
    if np.any(x < lp.lower - FEAS_TOL) or np.any(x > lp.upper + FEAS_TOL):
        raise LpNumericalError("claimed-optimal point violates a variable bound")


def _pivot(T, r, p):
    """Jordan exchange of basic row r and nonbasic column p, in place.

    The leaving unit column e_r takes column p's place before the row
    division, so it is updated by the same arithmetic as every other column.
    """
    piv = T[r, p]
    if abs(piv) <= PIVOT_TOL:
        raise LpNumericalError("pivot element vanished")
    colv = T[:, p].copy()
    colv[r] = 0.0
    T[:, p] = 0.0
    T[r, p] = 1.0
    rowv = T[r]
    rowv /= piv
    # in-place rank-1 update T -= colv * rowv'; T is Fortran-ordered
    _blas.dger(-1.0, colv, rowv.copy(), a=T, overwrite_a=1)


def _counted_pivot(T, basis, nonbasic, r, p, state):
    """Exchange row r and column p under the solve's budget and blow-up guard."""
    _pivot(T, r, p)
    basis[r], nonbasic[p] = nonbasic[p], basis[r]
    _counted(T, state)


def _counted(T, state):
    """Count one iteration against the solve's budget and blow-up guard."""
    state["iter"] += 1
    if state["iter"] > state["max_iter"]:
        raise LpNumericalError("simplex iteration limit exceeded")
    if state["iter"] % 64 == 0 and max(T.max(), -T.min()) > BLOWUP_LIMIT:
        raise LpNumericalError("tableau magnitude exceeded blow-up limit")


def _lowest(nonbasic, values, among=None):
    """Column position of the least of values, exact ties to the lowest variable."""
    tie = (values == values.min()).nonzero()[0]
    tie = tie if among is None else among[tie]
    return int(tie[0] if tie.size == 1 else tie[nonbasic[tie].argmin()])


def _run_phase(T, basis, nonbasic, state):
    """Pivot by steepest edge until optimal (None) or unbounded (the column).

    The objective is row m of T.  Of the columns with the least score
    d_j / sqrt(1 + |B^-1 a_j|^2), the lowest variable enters.  The leaving
    row comes from Harris's two-pass ratio test over the entries
    col_i > PIVOT_TOL: pass 1 takes theta, the least of
    (rhs_i + PIVOT_TOL) / col_i, so that no basic value falls below
    -PIVOT_TOL; pass 2 keeps the rows with rhs_i / col_i <= theta, and of
    those whose col_i is at least a tenth of their largest, the lowest basic
    variable leaves.  A leaving value below 0 is set to 0 first, so no step
    goes backwards.  A column with no entry above PIVOT_TOL is returned,
    with no pivot taken.
    """
    m = basis.size
    red, rhs, body = T[m, :-1], T[:m, -1], T[:m]
    while True:
        neg = (red < -PIVOT_TOL).nonzero()[0]
        if neg.size == 0:
            return None
        cols = body[:, neg]
        score = np.einsum("ij,ij->j", cols, cols)
        score += 1.0
        np.divide(red[neg], np.sqrt(score, out=score), out=score)
        p = _lowest(nonbasic, score, neg)
        col = body[:, p]
        pos = (col > PIVOT_TOL).nonzero()[0]
        if pos.size == 0:
            return p
        piv, val = col[pos], rhs[pos]
        near = pos[val / piv <= ((val + PIVOT_TOL) / piv).min()]
        if near.size > 1:
            piv = col[near]
            near = near[piv >= 0.1 * piv.max()]
        r = int(near[0] if near.size == 1 else near[basis[near].argmin()])
        if rhs[r] < 0.0:
            rhs[r] = 0.0
        _counted_pivot(T, basis, nonbasic, r, p, state)


def _dual_simplex(T, basis, nonbasic, state):
    """Raise every basic value to -PIVOT_TOL or above by dual simplex pivots.

    T's cost row must be dual feasible: a cold start's row of zeros, or an
    optimal row, which stays so when the rhs column is rewritten, since
    reduced costs do not involve b.  Of the basic values below -PIVOT_TOL,
    the lowest variable's row leaves (Bland's rule); the entering column
    wins the ratio test on the cost row, the lowest variable breaking ties.
    Returns True once no value is below -PIVOT_TOL, and False at a row that
    no column can raise: it has no entry below -PIVOT_TOL.  The objective
    entry of T goes stale; the cost row is re-priced before its next use.
    """
    m = basis.size
    rhs = T[:m, -1]
    while True:
        low = (rhs < -PIVOT_TOL).nonzero()[0]
        if low.size == 0:
            return True
        r = int(low[basis[low].argmin()])
        neg = (T[r, :-1] < -PIVOT_TOL).nonzero()[0]
        if neg.size == 0:
            return False
        p = _lowest(nonbasic, T[m, neg] / -T[r, neg], neg)
        _counted_pivot(T, basis, nonbasic, r, p, state)


def _start_tableau(A, b, sigma):
    """Condensed tableau and nonbasic columns of the slack start.

    The slack basis is diag(sigma), sigma_i = +-1, its own inverse, so
    B^-1 [N | b] is sigma [A | b]: the nonbasic columns N are the block A.
    Basic values in [-PIVOT_TOL, 0) are roundoff dust, set to 0.  The cost
    row is 0.  A solve from an LpPath, which every hinge fit's is, never
    calls it.
    """
    m, nv = A.shape
    T = np.zeros((m + 1, nv + 1), order="F")
    T[:m, :-1] = A
    T[:m, -1] = b
    T[:m] *= sigma[:, None]
    x_b = T[:m, -1]
    np.clip(x_b, 0.0, None, out=x_b, where=x_b >= -PIVOT_TOL)
    return T, np.arange(nv)


def _reprice(T, basis, nonbasic, c):
    """Rewrite T's cost row for costs c: c_N - c_B B^-1 N, and -c_B B^-1 b."""
    m = basis.size
    c_b = c[basis]
    T[m, :-1] = c[nonbasic] - c_b @ T[:m, :-1]
    T[m, -1] = -float(c_b @ T[:m, -1])


def _through_inverse(T, basis, nonbasic, nv, sw):
    """B^-1 w, given sw = sigma w (a vector or a matrix of m rows).

    B^-1 is read from T itself: slack i, standard variable nv + i with
    column sigma_i e_i, gives B^-1 e_i = sigma_i T[:, p] when it is
    nonbasic at position p (one product with T's nonbasic slack columns),
    and sigma_i e_k when it is basic in row k.  Every slack is in T.
    """
    m = basis.size
    at = (nonbasic >= nv).nonzero()[0]
    out = T[:m, at] @ sw[nonbasic[at] - nv]
    at = (basis >= nv).nonzero()[0]
    out[at] += sw[basis[at] - nv]
    return out


def _refined(A, b, sigma, T, basis, nonbasic):
    """T's basic solution after one step of iterative refinement.

    x_B + B^-1 (b - A x - sigma s), the residual taken from the original
    data at the point (x, s) whose basic values are T's rhs column: one
    BLAS product with the block A, and the slacks' diagonal.  B^-1 is read
    from T's slack columns (see _through_inverse).
    """
    m, nv = A.shape
    x_b = T[:m, -1]
    x = np.zeros(nv + m)
    x[basis] = x_b
    res = sigma * (b - (A @ x[:nv] + sigma * x[nv:]))
    return x_b + _through_inverse(T, basis, nonbasic, nv, res)


def _narrowed(T, nonbasic, nv):
    """T without its nonbasic structural columns that price >= 0, when
    these columns outnumber T's rows; otherwise T itself.  Returns
    (tableau, nonbasic)."""
    m = T.shape[0] - 1
    structural = nonbasic < nv
    if np.count_nonzero(structural) <= m:
        return T, nonbasic
    keep = (~structural | (T[m, :-1] < 0.0)).nonzero()[0]
    # rows of the C-ordered transpose: one contiguous copy, Fortran-ordered
    return T.T[np.append(keep, nonbasic.size)].T, nonbasic[keep]


def _priced_in(A, c, sigma, T, basis, nonbasic, every=False):
    """T with the left-out columns that can enter appended.

    A tableau may leave out nonbasic structural columns, never a slack.
    The duals are read from T's cost row: slack i has cost 0 and column
    sigma_i e_i, so y_i = -sigma_i d_{s_i} where it is nonbasic, and 0
    where it is basic.  One product over the dense block prices every
    column against the original data, d = c - A'y.  Each left-out column
    with d_j < -PIVOT_TOL (each left-out column, when every) is appended
    before the rhs column as B^-1 a_j (see _through_inverse) over its cost
    entry d_j.  Returns (tableau, nonbasic), both new iff T grew.
    """
    m, nv = A.shape
    if nonbasic.size == nv:  # every structural column is in T
        return T, nonbasic
    out = np.ones(nv, dtype=bool)
    out[nonbasic[nonbasic < nv]] = False
    out[basis[basis < nv]] = False
    at = (nonbasic >= nv).nonzero()[0]
    slack = nonbasic[at] - nv
    y = np.zeros(m)
    y[slack] = -sigma[slack] * T[m, at]
    d = c[:nv] - y @ A
    if not every:
        out &= d < -PIVOT_TOL
    enter = out.nonzero()[0]
    if enter.size == 0:
        return T, nonbasic
    w = nonbasic.size
    wide = np.empty((m + 1, w + enter.size + 1), order="F")
    wide[:, :w] = T[:, :-1]
    wide[:m, w:-1] = _through_inverse(T, basis, nonbasic, nv,
                                      sigma[:, None] * A[:, enter])
    wide[m, w:-1] = d[enter]
    wide[:, -1] = T[:, -1]
    return wide, np.concatenate([nonbasic, enter])


def _simplex_core(A, b, c, sigma, state, warm=None, narrow=False):
    """Run the simplex method on standard form, from a cold or path start.

    The tableau is B^-1 [N | b] over the nonbasic columns N, which the
    array nonbasic names, above the cost row.  warm, when given, is such a
    (tableau, basis, nonbasic) for (A, b), which may leave out nonbasic
    structural columns; its basis is pivoted in place.  Otherwise the
    tableau is the slack basis's, and the dual simplex, on its cost row of
    zeros, raises any basic value below -PIVOT_TOL or finds the row that
    proves the program infeasible.  The primal simplex then starts from the
    cost row priced for c; narrow drops, after that pricing, the nonbasic
    structural columns that price >= 0 when they outnumber the rows.

    At each optimum of the tableau's columns, every left-out column is
    priced against the original data (_priced_in), and those that can
    enter are appended and the primal simplex goes on.  A solve that
    pivoted then restores its basic solution against the original data
    (_refined) and lets the dual simplex repair any drift; a repair that
    stops at a row no column of the tableau raises first brings in every
    left-out column, so its verdict holds for the whole program.  Reduced
    costs do not involve b, so the tableau's own columns stay optimal, but
    a repair's pivots move the duals: the left-out columns are priced
    again, and any that can enter send the solve back to the primal
    simplex.  A point is optimal only when no column is left to append.

    Returns (status, basis, nonbasic, tableau); for "unbounded", basis is
    instead the ray of the edge.
    """
    m, nv = A.shape
    if warm is not None:
        T, basis, nonbasic = warm
    else:
        basis = nv + np.arange(m)
        T, nonbasic = _start_tableau(A, b, sigma)
        if not _dual_simplex(T, basis, nonbasic, state):
            return "infeasible", None, None, None
    _reprice(T, basis, nonbasic, c)
    if narrow:
        T, nonbasic = _narrowed(T, nonbasic, nv)
    restored = 0  # pivots taken when the basic solution was last restored
    while True:
        p = _run_phase(T, basis, nonbasic, state)
        if p is not None:
            ray = np.zeros(nv + m)
            ray[basis] = -T[:-1, p]
            ray[nonbasic[p]] = 1.0
            return "unbounded", ray, None, None
        width = nonbasic.size
        T, nonbasic = _priced_in(A, c, sigma, T, basis, nonbasic)
        if nonbasic.size > width:
            continue
        if state["iter"] == restored:  # T's rhs is the start's or restored
            return "optimal", basis, nonbasic, T
        T[:m, -1] = _refined(A, b, sigma, T, basis, nonbasic)
        repaired = _dual_simplex(T, basis, nonbasic, state)
        if not repaired and width < nv:
            T, nonbasic = _priced_in(A, c, sigma, T, basis, nonbasic,
                                     every=True)
            repaired = _dual_simplex(T, basis, nonbasic, state)
        if not repaired:
            raise LpNumericalError("dual repair found no entering column")
        np.clip(T[:m, -1], 0.0, None, out=T[:m, -1])
        restored = state["iter"]
        T, nonbasic = _priced_in(A, c, sigma, T, basis, nonbasic)
        if nonbasic.size == width:
            return "optimal", basis, nonbasic, T


def _pivot_budget(m, ncols):
    """Pivots one solve may take before it gives up."""
    return 50000 + 200 * (m + ncols)


class _Tables(NamedTuple):
    """A PiecewiseProgram's per-variable tables, built once with it.

    Variable j < M is lam_j, variable M + k is z_k.  ends[j] holds
    (-inf, b_0, b_1, b_2, inf), breakpoint b in column b + 1, so segment s
    runs from ends[j, s] to ends[j, s + 1]: lam_j's breakpoints are -inf,
    0 and inf, and it lives in segments 1 and 2, its two sides of 0; z_k's
    are -1, 0 and 1.  slopes[j] are the four segments' slopes, and
    jumps[j], padded as ends is, the slope jump at each breakpoint.  For
    the certificate, row b of low and high holds every variable's
    breakpoint b -+ FEAS_TOL, and abs_phi is |phi|.  Only lam's slopes
    and jumps involve the penalty: _costed writes them before each solve.
    """

    ends: np.ndarray
    jumps: np.ndarray
    slopes: np.ndarray
    low: np.ndarray
    high: np.ndarray
    abs_phi: np.ndarray


def _piecewise_tables(pp):
    """The _Tables of pp, lam's slopes and jump at 0 left to _costed."""
    n, M = pp.phi.shape
    ends = np.empty((M + n, 5))
    ends[:, 0], ends[:, 4] = -np.inf, np.inf
    ends[:M, 1:4] = -np.inf, 0.0, np.inf
    ends[M:, 1:4] = -1.0, 0.0, 1.0
    jumps = np.zeros((M + n, 5))
    jumps[M:, 1:4] = np.diff(pp.slopes, axis=1)
    slopes = np.empty((M + n, 4))
    slopes[M:] = pp.slopes
    inner = ends[:, 1:4].T.copy()
    return _Tables(ends, jumps, slopes, inner - FEAS_TOL, inner + FEAS_TOL,
                   np.abs(pp.phi))


def _costed(pp):
    """pp's tables with lam's rows written for its penalty r: slopes
    (-r, -r, r, r), so a jump of 2r at 0."""
    tables, M, r = pp._tables, pp.phi.shape[1], pp.penalty
    tables.slopes[:M] = -r, -r, r, r
    tables.jumps[:M, 2] = 2.0 * r
    return tables


def _piecewise_start(pp):
    """The start of a PiecewiseProgram: every z basic at 0, every lam
    nonbasic at 0.

    The rows z - phi lam = 0 have z's unit columns for a basis, so the
    condensed tableau is -phi, with the basic values, all 0, as its last
    column; nothing is factored.  Returns (tableau, basis, nonbasic, at):
    at holds each basic variable's segment and each nonbasic one's
    breakpoint.  Each z starts in its plainer middle segment, the one of
    smaller |slope|, the right one on a tie.
    """
    n, M = pp.phi.shape
    T = np.zeros((n, M + 1), order="F")
    np.negative(pp.phi, out=T[:, :M])
    at = np.ones(M + n, dtype=np.intp)
    middle = np.abs(pp.slopes[:, 1:3])
    at[M:] = np.where(middle[:, 0] < middle[:, 1], 1, 2)
    return T, M + np.arange(n), np.arange(M), at


_FAR = np.finfo(float).max  # the reach of a step that no event has ended


def _long_step(rate, x_b, basis, at, q, kq, step, d, tables):
    """Fourer's long step of entering variable q, reading only the
    breakpoints it can reach.

    q leaves its breakpoint kq upward (step 1) or downward (step -1) with
    directional derivative d < -PIVOT_TOL; the basic variables, with values
    x_b, move at rate.  The movers are q, at rate step, and each basic
    variable whose |rate| exceeds PIVOT_TOL.  Every breakpoint ahead of a
    mover is an event, at theta = (breakpoint - value) / rate, clamped at 0
    for a basic variable already past it, and with its slope jump times
    |rate|.  In theta order, equal thetas largest rate first, the events
    add their jumps to d, and the step stops at the first where
    d >= -PIVOT_TOL.

    The events are read in rounds.  Round 1 takes each mover's nearest
    breakpoint ahead: the end of a basic variable's segment, q's next
    breakpoint.  After each round the stop is found, and each mover whose
    newest event lies at or before it adds its next breakpoint if that is
    within reach too; a round that adds none is the last.  A mover has at
    most three breakpoints ahead, so there are at most three rounds.  This
    reads every event at or before the final stop, since a mover's thetas
    do not decrease along its breakpoints, and jumps are >= 0, so an added
    event moves the stop earlier or leaves it.  The events are ordered by
    theta, then by their place in the full collection (q's first, then row
    by row, each mover's breakpoints ascending), which round 1's array
    order already is; so the order, the running sums of d and every
    decision below are the full collection's, bit for bit.  A breakpoint
    at infinity has theta inf and no jump, so it never stops a step.

    Returns (length, moved, r, b, beyond): the step's length; the rows
    whose basic variable passes a breakpoint, once per breakpoint, in the
    order passed; the leaving row and the breakpoint its variable leaves
    at, or r = -1 and q's own breakpoint b where the step stops (a flip);
    and the number of q's own breakpoints passed.
    """
    ends, jumps = tables.ends.ravel(), tables.jumps.ravel()
    rate = np.concatenate(([step], rate))  # q first, then the rows
    row = (np.abs(rate) > PIVOT_TOL).nonzero()[0]
    rate = rate[row]
    value = np.concatenate(([ends[5 * q + kq + 1]], x_b))[row]
    # a breakpoint's place in the flat tables is 5 variable + its column;
    # q moves as if inside the segment it enters
    spot = np.concatenate(([5 * q + kq + (step > 0.0)],
                           5 * basis + at[basis]))[row] + (rate > 0.0)
    row -= 1  # each mover's row, -1 for q
    theta = np.maximum((ends[spot] - value) / rate, 0.0)
    jump = np.abs(rate) * jumps[spot]
    key, fresh = None, 0  # the events from fresh on are the newest round's
    while True:
        # an extended collection leaves its array order: key restores it
        order = (np.argsort(theta, kind="stable") if key is None
                 else np.lexsort((key, theta)))
        total = np.cumsum(jump[order])
        total += d
        reached = (total >= -PIVOT_TOL).nonzero()[0]
        reach = theta[order[reached[0]]] if reached.size else _FAR
        near = fresh + (theta[fresh:] <= reach).nonzero()[0]
        if near.size == 0:
            break
        moving = rate[near]
        later = spot[near] + np.where(moving > 0.0, 1, -1)
        ahead = np.maximum((ends[later] - value[near]) / moving, 0.0)
        keep = (ahead <= reach).nonzero()[0]
        if keep.size == 0:
            break
        near, later, fresh = near[keep], later[keep], theta.size
        theta = np.concatenate([theta, ahead[keep]])
        jump = np.concatenate([jump, np.abs(rate[near]) * jumps[later]])
        rate, value, row = (np.concatenate([a, a[near]])
                            for a in (rate, value, row))
        spot = np.concatenate([spot, later])
        key = 5 * row + spot % 5
    if reached.size == 0:
        raise LpNumericalError(f"no breakpoint ends the step of entering "
                               f"variable {q}")
    e = reached[0]
    length = theta[order[e]]
    if np.count_nonzero(theta == length) > 1:  # the largest rate first
        sorted_theta = theta[order]
        lo, hi = np.searchsorted(sorted_theta, length, side="left"), \
            np.searchsorted(sorted_theta, length, side="right")
        tie = order[lo:hi]
        order[lo:hi] = tie = tie[np.argsort(-np.abs(rate[tie]),
                                            kind="stable")]
        before = total[lo - 1] if lo else d
        hit = (before + np.cumsum(jump[tie]) >= -PIVOT_TOL).nonzero()[0]
        e = lo + (hit[0] if hit.size else tie.size - 1)
    moved = row[order[:e]]
    rows = moved[moved >= 0]
    return (length, rows, row[order[e]], spot[order[e]] % 5 - 1,
            moved.size - rows.size)


def _piecewise_phase(T, basis, nonbasic, at, tables, state):
    """Primal simplex on a piecewise-linear program until optimal.

    T is B^-1 N over the nonbasic columns, with the basic values as its
    last column; no cost row is kept.  A basic variable is priced by the
    slope of the segment at names, even at one of its ends, and a nonbasic
    one at breakpoint k moves up at d+ = c_{k+1} - c_B B^-1 a_j or down at
    d- = c_B B^-1 a_j - c_k.  Of the columns with d < -PIVOT_TOL, the one
    of least steepest-edge score d / sqrt(1 + |B^-1 a_j|^2) enters, exact
    ties to the lowest variable.

    The ratio test takes a long step (_long_step), reading only the
    breakpoints the step can reach.  If it stops at the entering
    variable's own breakpoint, that is a flip with no pivot; otherwise the
    basic variable of the event it stops at leaves there by a pivot.
    Every breakpoint passed before the stop moves its variable to its
    next segment, even across a zero jump.  Each flip and pivot counts as
    one iteration.
    """
    slopes, ends = tables.slopes, tables.ends
    w = nonbasic.size
    body, x_b = T[:, :w], T[:, w]
    while True:
        k = at[nonbasic]
        g = slopes[basis, at[basis]] @ body
        up = slopes[nonbasic, k + 1] - g
        down = g - slopes[nonbasic, k]
        d = np.minimum(up, down)
        neg = (d < -PIVOT_TOL).nonzero()[0]
        if neg.size == 0:
            return
        cols = body[:, neg]
        score = np.einsum("ij,ij->j", cols, cols)
        score += 1.0
        np.divide(d[neg], np.sqrt(score, out=score), out=score)
        p = _lowest(nonbasic, score, neg)
        q, kq = nonbasic[p], k[p]
        step = 1.0 if up[p] < down[p] else -1.0
        rate = body[:, p] * -step
        length, moved, r, b, beyond = _long_step(rate, x_b, basis, at, q, kq,
                                                 step, d[p], tables)
        if moved.size:
            np.add.at(at, basis[moved], np.where(rate[moved] > 0.0, 1, -1))
        x_b += length * rate
        if r < 0:
            at[q] = b
            _counted(T, state)
            continue
        at[basis[r]] = b
        at[q] = kq + 1 + beyond if step > 0.0 else kq - beyond
        x_b[r] = 0.0  # so the pivot leaves the value column as it is
        _counted_pivot(T, basis, nonbasic, r, p, state)
        x_b[r] = ends[q, kq + 1] + step * length


def _piecewise_point(T, basis, nonbasic, at, ends, phi, refine):
    """Every variable's value, [lam, z]: nonbasic ones at their breakpoints,
    basic ones from T's last column, refined first when refine.

    One step of iterative refinement against the rows z = phi lam: the
    residual phi lam - z, taken from the original data, goes through B^-1,
    which is read from T's columns of z (see _through_inverse: z is the
    rows' slack, with sigma = 1), and T keeps the refined values.
    """
    n, M = phi.shape
    x = np.empty(M + n)
    x[nonbasic] = ends[nonbasic, at[nonbasic] + 1]
    x_b = T[:, nonbasic.size]
    if refine:
        x[basis] = x_b
        x_b += _through_inverse(T, basis, nonbasic, M, phi @ x[:M] - x[M:])
    x[basis] = x_b
    return x


def _slope_interval(tables, x):
    """[least, most] of the slopes of each variable's cost at x.

    A value within FEAS_TOL of a breakpoint takes the slopes on both
    sides.  Slopes do not decrease, so the ends are the slopes of segments
    #{b : b + FEAS_TOL < x} and #{b : b - FEAS_TOL <= x}.
    """
    slopes, first = tables.slopes.ravel(), 4 * np.arange(x.size)
    return (slopes[first + (tables.high < x).sum(axis=0)],
            slopes[first + (tables.low <= x).sum(axis=0)])


def _piecewise_certified(pp, T, basis, nonbasic, at, tables, x):
    """Raise LpNumericalError unless x is optimal by the tableau's duals.

    Atom k's dual y_k is read from T: c_B B^-1 e_k where z_k is nonbasic,
    the slope of its segment where it is basic.  Against the original data,
    x must keep z = phi lam within FEAS_TOL, each y_k must lie within the
    slopes of cost_k at z_k, and each -(phi' y)_j within those of
    r |lam_j| at lam_j: in [-r, r] where lam_j = 0, equal to r sign(lam_j)
    elsewhere (_slope_interval).  A dual may miss by FEAS_TOL (1 + its
    scale).
    """
    phi = pp.phi
    n, M = phi.shape
    gap = phi @ x[:M] - x[M:]
    bad = (~(np.abs(gap) <= FEAS_TOL)).nonzero()[0]
    if bad.size:
        raise LpNumericalError(f"claimed-optimal point breaks atom {bad[0]}'s "
                               f"row z = phi lam by {gap[bad[0]]:.3e}")
    c_b = tables.slopes[basis, at[basis]]
    y = np.empty(n)
    held = (basis >= M).nonzero()[0]
    y[basis[held] - M] = c_b[held]
    held = (nonbasic >= M).nonzero()[0]
    y[nonbasic[held] - M] = c_b @ T[:, held]
    dual = np.concatenate([-(y @ phi), y])
    scale = np.concatenate([np.abs(y) @ tables.abs_phi, np.abs(y)])
    least, most = _slope_interval(tables, x)
    tol = FEAS_TOL * (1.0 + scale)
    bad = ((dual < least - tol) | (dual > most + tol)).nonzero()[0]
    if bad.size:
        j = bad[0]
        name = f"feature {j}" if j < M else f"atom {j - M}"
        raise LpNumericalError(
            f"dual of {name}, {dual[j]:.6g}, lies outside its slopes "
            f"[{least[j]:.6g}, {most[j]:.6g}] at {x[j]:.6g}")


def _piecewise_value(pp, x):
    """The objective of a PiecewiseProgram at x = [lam, z]."""
    M = pp.phi.shape[1]
    z, s = x[M:], pp.slopes
    loss = (pp.at_zero + s[:, 2] * np.clip(z, 0.0, 1.0)
            + s[:, 3] * np.maximum(z - 1.0, 0.0)
            + s[:, 1] * np.clip(z, -1.0, 0.0)
            + s[:, 0] * np.minimum(z + 1.0, 0.0))
    return float(loss.sum()) + pp.penalty * float(np.abs(x[:M]).sum())


def _solve_piecewise(pp, path):
    """solve_lp for a PiecewiseProgram (see there)."""
    warm = None
    if path is not None:
        if path.program is pp:
            warm = path.tableau, path.basis, path.nonbasic, path.form
        path.clear()  # refilled only by an optimal verdict below
    if not 0.0 <= pp.penalty < math.inf:
        raise LpInputError(f"penalty must be finite and >= 0, not "
                           f"{pp.penalty!r}")
    n, M = pp.phi.shape
    tables = _costed(pp)
    T, basis, nonbasic, at = warm or _piecewise_start(pp)
    state = {"iter": 0, "max_iter": _pivot_budget(n, M + n)}
    try:
        _piecewise_phase(T, basis, nonbasic, at, tables, state)
        x = _piecewise_point(T, basis, nonbasic, at, tables.ends, pp.phi,
                             state["iter"] > 0)
        _piecewise_certified(pp, T, basis, nonbasic, at, tables, x)
    except LpNumericalError as exc:
        raise LpNumericalError(f"{exc} after {state['iter']} iterations") \
            from exc
    if path is not None:
        path.program, path.form = pp, at
        path.tableau, path.basis, path.nonbasic = T, basis, nonbasic
    return LpSolution("optimal", x, _piecewise_value(pp, x), state["iter"],
                      warm is not None)


def solve_lp(lp, path=None):
    """Solve a LinearProgram with the simplex method.

    The simplex pivots a condensed (dictionary) tableau of the nonbasic
    columns; the basic unit columns are never stored.  It prices by steepest
    edge (the most negative reduced cost per unit length of the edge,
    d_j / sqrt(1 + |B^-1 a_j|^2), the norms taken afresh from the tableau
    at every pivot, so no pricing state outlives a pivot), and picks the
    leaving row by Harris's two-pass ratio test with tolerance PIVOT_TOL,
    which spreads degenerate ties over the rows whose ratio is within
    reach and takes a pivot of useful size among them.  Ties left are
    broken by index: of equal scores the lowest variable enters, and of the
    rows pass 2 keeps the lowest basic variable leaves.

    One dual simplex routine handles every basic value below -PIVOT_TOL:
    the lowest such variable leaves (Bland's rule), and the entering column
    wins the ratio test on the cost row, the lowest variable breaking ties.
    It runs in two places.  A cold start runs it with a cost row of zeros,
    which is dual feasible; it either makes the start feasible, and the
    primal simplex then prices for c, or stops at a row that no column can
    raise, which is the infeasible verdict.  A solve that pivoted restores
    its basic solution against the original data by one step of iterative
    refinement, with B^-1 read from the final tableau (one that did not
    keeps its start's); reduced costs do not involve b, so the basis stays
    dual feasible, and the routine repairs any drift.

    An unbounded verdict needs its ray d to have c.d < -PIVOT_TOL and
    |A d| <= FEAS_TOL.  A solve that exhausts its pivot budget, fails a
    numerical guard, fails the repair, or fails the audit of its point or
    ray raises LpNumericalError naming the reason and the pivots taken.
    Identical inputs produce bitwise-identical solutions.

    A cold start is the slack basis: one slack per standard-form row, the
    user's rows in order (an = row as its <= half), then the >= half of
    each = row, then one <= row per variable with two finite bounds.

    path optionally carries an LpPath; if its last optimal solve was of
    this very object (path.program is lp), whose objective may have changed
    since, or its caller seeded it with a start for lp, the solve starts
    from its tableau instead of the slack basis.  The path is left holding
    lp and its tableau when the solve decides optimal, and is cleared
    otherwise.  iterations counts this solve's pivots only.  A hinge fit
    seeds its path with the crash tableau it writes in closed form.

    A path's tableau may leave out nonbasic structural columns.  At each
    optimum of the tableau's own columns, and again after each dual
    repair, the solve reads the duals from the cost row's slack entries,
    y_i = -sigma_i d_{s_i} where slack i is nonbasic and 0 where it is
    basic, prices every left-out column with one product over the dense
    block, d = c - A'y, and appends each with d_j < -PIVOT_TOL as B^-1 a_j
    (B^-1 read from the slack columns, as the restore reads it) over its
    cost entry d_j.  A point is optimal only when no column is left to
    append, and a repair that finds no entering column among the tableau's
    columns first brings in every left-out one, so an unbounded, infeasible
    or failed-repair verdict holds for the whole program.  Only a seeded
    start drops columns: once priced, when its nonbasic structural columns
    outnumber its rows, it drops those that price >= 0.  A path's later
    solves never drop a column, and a cold start keeps every column.

    Given a PiecewiseProgram, solve_lp runs its piecewise-linear simplex
    (_piecewise_phase) instead, from every z basic at 0 and every lam
    nonbasic at 0, or from path's tableau when its last optimal solve was
    of this object, whose penalty may have changed since.  iterations then
    counts pivots and breakpoint flips.  At the optimum the basic values
    are refined once against z = phi lam (when the solve moved), and the
    point and its duals are checked against the original data: z = phi lam
    within FEAS_TOL, each atom's dual within its cost's slopes at z_k, and
    -phi'y within r's at lam.  A failed check, the pivot budget or the
    blow-up guard raises LpNumericalError naming the reason and the
    iterations taken; the program is never infeasible or unbounded.
    x is [lam, z].
    """
    if isinstance(lp, PiecewiseProgram):
        return _solve_piecewise(lp, path)
    form = warm = None
    if path is not None:
        if path.program is lp:
            form = path.form
            warm = path.tableau, path.basis, path.nonbasic
        path.clear()  # refilled only by an optimal verdict below
    seeded = warm is not None and form is None
    form = form or _to_standard_form(lp)
    A, b, cmap, sigma, sense = form
    m, nv = A.shape
    c = _standard_costs(lp.objective, cmap, nv + m)
    state = {"iter": 0, "max_iter": _pivot_budget(m, nv + m)}
    try:
        status, basis, nonbasic, T = _simplex_core(A, b, c, sigma, state,
                                                   warm, seeded)
        if status == "unbounded":  # basis holds the ray
            cost = c @ basis
            residual = np.max(np.abs(A @ basis[:nv] + sigma * basis[nv:]),
                              initial=0.0)
            if cost >= -PIVOT_TOL or residual > FEAS_TOL:
                raise LpNumericalError(f"unbounded ray fails its audit: c.d = "
                                       f"{cost:.3e}, |A d| = {residual:.3e}")
        if status != "optimal":
            return LpSolution(status, iterations=state["iter"])
        x_std = np.zeros(nv + m)
        x_std[basis] = T[:m, -1]
        x = _recover_x(cmap, x_std)
        _audit_feasible(lp, x, sense)
    except LpNumericalError as exc:
        raise LpNumericalError(f"{exc} after {state['iter']} pivots") from exc
    if path is not None:
        path.program, path.form = lp, form
        path.tableau, path.basis, path.nonbasic = T, basis, nonbasic
    return LpSolution("optimal", x, float(lp.objective @ x), state["iter"],
                      warm is not None)
