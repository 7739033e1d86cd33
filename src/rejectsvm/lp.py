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
suite does with its own vertex-enumeration oracle.  Only the tableau is
dense.  A cold start is the slack basis, which is its own inverse, and a
restore reads B^-1 from the tableau, so no basis is ever factored.  A
caller that can write a better start's tableau in closed form seeds an
LpPath with it: hinge fits do (see train).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
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
class LpSolution:
    status: str                    # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray = None           # defined iff optimal
    objective_value: float = None  # defined iff optimal
    iterations: int = 0
    warm: bool = False             # the solve started from an LpPath tableau


class StandardForm(NamedTuple):
    """A program as min c.x, A x = b, x >= 0: the form a solve works on.

    A is in CSC form: the standard variables' columns, then one slack per
    row, row i's in column ncols - m + i with coefficient sigma_i = +1 for
    a <= row and -1 for a >= row.  The column map cmap = (col, sign, shift,
    free) gives each original variable from the standard form:
    x_j = sign_j x_std[col_j] + shift_j, minus x_std[col_j + 1] when free_j.
    sense signs the user's rows for the audit: +1 <=, -1 >=, 0 =.
    """

    A: sparse.csc_array
    b: np.ndarray
    cmap: tuple
    sigma: np.ndarray
    sense: np.ndarray

    @classmethod
    def surplus(cls, A, b):
        """The form of min c.x s.t. rows x >= b, x >= 0, given A = [rows | -I]."""
        m, ncols = A.shape
        nv = ncols - m
        cmap = np.arange(nv), np.ones(nv), np.zeros(nv), np.zeros(nv, bool)
        return cls(A, b, cmap, np.full(m, -1.0), np.full(m, -1.0))


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
    a program, its form and a start it wrote itself, a feasible tableau
    (cost row ignored) with its basis and nonbasic arrays; a hinge fit
    seeds its crash tableau this way.  Any other program, equal or not,
    ignores the state.  owner is the caller's note of what built program;
    every solve clears it.  One tableau is live per path.
    """

    __slots__ = "program", "owner", "form", "tableau", "basis", "nonbasic"

    def __init__(self):
        self.clear()

    def clear(self):
        self.program = self.owner = self.form = None
        self.tableau = self.basis = self.nonbasic = None


def _to_standard_form(lp):
    """lp as a StandardForm.

    Every row gets a slack, row i's in column nv + i.  An = row becomes
    its <= half in place and its >= half after the user's rows; the <= rows
    of two-sided variable bounds come last.  A variable bounded above only
    is mirrored, a free one split into two columns.
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
    m = sigma.size
    nonzero = rows != 0.0
    ri, vj = np.nonzero(nonzero)
    val = rows[nonzero]
    fr = free[vj]
    slack = np.arange(m)
    row_ix = np.concatenate([ri, ri[fr], slack[m - boxed.size:], slack])
    col_ix = np.concatenate([col[vj], col[vj[fr]] + 1, col[boxed], nv + slack])
    A = sparse.csc_array(
        (np.concatenate([val * sign[vj], -val[fr], np.ones(boxed.size), sigma]),
         (row_ix.astype(np.intc), col_ix.astype(np.intc))), shape=(m, nv + m))
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
    """Raise LpNumericalError if x breaks a row (signed by sense) or a bound."""
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
    B^-1 [N | b] is sigma [A_N | b], with N the columns before the
    slacks.  Basic values in [-PIVOT_TOL, 0) are roundoff dust, set to 0.
    The cost row is 0.  A solve from an LpPath, which every hinge fit's
    is, never calls it.
    """
    m, ncols = A.shape
    nv = ncols - m
    T = np.zeros((m + 1, nv + 1), order="F")
    T[:m, :-1] = A[:, :nv].toarray()
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


def _refined(A, b, sigma, T, basis, nonbasic):
    """T's basic solution after one step of iterative refinement.

    x_B + B^-1 (b - A x), the residual taken from the original A at the
    point x whose basic values are T's rhs column.  B^-1 is read from T
    itself: slack i, column ncols - m + i with entry sigma_i in row i, gives
    B^-1 e_i = sigma_i T[:, p] when it is nonbasic at position p (one
    product with T's nonbasic slack columns), and sigma_i e_k when it is
    basic in row k.
    """
    m, ncols = A.shape
    first = ncols - m
    x_b = T[:m, -1]
    x = np.zeros(ncols)
    x[basis] = x_b
    res = sigma * (b - A @ x)
    at = (nonbasic >= first).nonzero()[0]
    step = T[:m, at] @ res[nonbasic[at] - first]
    at = (basis >= first).nonzero()[0]
    step[at] += res[basis[at] - first]
    return x_b + step


def _simplex_core(A, b, c, sigma, state, warm=None):
    """Run the simplex method on standard form, from a cold or path start.

    The tableau is B^-1 [N | b] over the nonbasic columns N, which the
    array nonbasic names, above the cost row.  warm, when given, is such a
    (tableau, basis, nonbasic) for (A, b); it is pivoted in place.
    Otherwise the tableau is the slack basis's, and the dual simplex, on
    its cost row of zeros, raises any basic value below -PIVOT_TOL or
    finds the row that proves the program infeasible.  The primal simplex
    then starts from the cost row priced for c.

    Returns (status, basis, nonbasic, tableau); for "unbounded", basis is
    instead the ray of the edge.
    """
    m, ncols = A.shape
    if warm is not None:
        T, basis, nonbasic = warm
    else:
        basis = ncols - m + np.arange(m)
        T, nonbasic = _start_tableau(A, b, sigma)
        if not _dual_simplex(T, basis, nonbasic, state):
            return "infeasible", None, None, None
    _reprice(T, basis, nonbasic, c)
    p = _run_phase(T, basis, nonbasic, state)
    if p is not None:
        ray = np.zeros(ncols)
        ray[basis] = -T[:-1, p]
        ray[nonbasic[p]] = 1.0
        return "unbounded", ray, None, None
    return "optimal", basis, nonbasic, T


def _pivot_budget(m, ncols):
    """Pivots one solve may take before it gives up."""
    return 50000 + 200 * (m + ncols)


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
    """
    form = warm = None
    if path is not None:
        if path.program is lp:
            form = path.form
            warm = path.tableau, path.basis, path.nonbasic
        path.clear()  # refilled only by an optimal verdict below
    form = form or _to_standard_form(lp)
    A, b, cmap, sigma, sense = form
    c = _standard_costs(lp.objective, cmap, A.shape[1])
    m, ncols = A.shape
    state = {"iter": 0, "max_iter": _pivot_budget(m, ncols)}
    try:
        status, basis, nonbasic, T = _simplex_core(A, b, c, sigma, state, warm)
        if status == "unbounded":
            cost, residual = c @ basis, np.max(np.abs(A @ basis), initial=0.0)
            if cost >= -PIVOT_TOL or residual > FEAS_TOL:  # basis holds the ray
                raise LpNumericalError(f"unbounded ray fails its audit: c.d = "
                                       f"{cost:.3e}, |A d| = {residual:.3e}")
        if status != "optimal":
            return LpSolution(status, iterations=state["iter"])
        if state["iter"]:  # else T's rhs is the start's or the last restore
            # the cost row stays optimal: it is free of b
            T[:m, -1] = _refined(A, b, sigma, T, basis, nonbasic)
            if not _dual_simplex(T, basis, nonbasic, state):
                raise LpNumericalError("dual repair found no entering column")
            np.clip(T[:m, -1], 0.0, None, out=T[:m, -1])
        x_std = np.zeros(ncols)
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
