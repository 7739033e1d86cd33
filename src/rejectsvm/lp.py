"""Two-phase simplex on a condensed tableau, with bases factored sparse.

Problems are stated in general form,

    minimize    c . x
    subject to  row . x  {<=, >=, =}  rhs      (one relation per row)
                lower <= x <= upper            (entries may be infinite)

The solver is deliberately plain -- a dense, condensed (dictionary) tableau
of the nonbasic columns, B^-1 [N | b], pivoted by Jordan exchanges and
started from the slack basis with one artificial variable, steepest-edge
pricing, and a basic solution restored from the original data and repaired
by dual simplex pivots -- so that small instances can be confirmed
independently by enumerating every basic solution of the standard form, as
the test suite does with its own vertex-enumeration oracle.  Only the
tableau is dense: every basis is gathered from the CSC standard form and
factored by a sparse LU.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import blas as _blas
from scipy.sparse.linalg import splu

from .constants import BLOWUP_LIMIT, FEAS_TOL, PIVOT_TOL

_SENSE = {"<=": 1.0, ">=": -1.0, "=": 0.0}  # "=" rows are audited both ways

# right-hand-side relaxations tried in turn: one relaxed attempt, then an
# unrelaxed last resort; both run the same procedure
_ATTEMPTS = (1e-7, 0.0)


class LpError(Exception):
    """Base class for linear-program failures."""


class LpInputError(LpError):
    """Malformed problem data (dimension mismatch, bad relation, non-finite)."""


class LpNumericalError(LpError):
    """The solve aborted for numerical reasons; not an infeasibility verdict."""


@dataclass
class LinearProgram:
    """General-form LP data.  Arrays are coerced to float and validated."""

    objective: np.ndarray
    rows: np.ndarray
    relations: tuple
    rhs: np.ndarray
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = self.objective.size
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.size == 0:
            self.rows = self.rows.reshape(0, n)
        self.rows = np.atleast_2d(self.rows)
        self.rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float))
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
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise LpInputError("variable bounds must have one entry per variable")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise LpInputError("variable bounds contain NaN")
        if np.any(self.lower > self.upper):
            raise LpInputError("some lower bound exceeds its upper bound")

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
    eps: float = None              # relaxation of the attempt that decided
    warm: bool = False             # that attempt started from an LpPath tableau


class LpPath:
    """Warm-start state for a run of programs that differ only in cost.

    After a solve that the relaxed attempt decided with no dual repair, it
    keeps that program's constraints, their standard form, and the
    attempt's final condensed (dictionary) tableau of the nonbasic columns,
    its basis and nonbasic index arrays, and the basic solution for the true
    right-hand side.  None of these involves the costs, so the next solve
    with equal constraints reuses the standard form and starts its relaxed
    attempt from the tableau, with only the cost row re-priced, pivoting it
    in place; when no pivot is needed, the basic solution is reused too.
    The unrelaxed attempt, and solves of other constraints, ignore the
    state.  One tableau is live per path.
    """

    __slots__ = ("key", "form", "tableau", "basis", "nonbasic", "x_b")

    def __init__(self):
        self.clear()

    def clear(self):
        self.key = self.form = None
        self.tableau = self.basis = self.nonbasic = self.x_b = None

    def matches(self, lp):
        """True when the state holds a tableau for lp's constraints."""
        if self.key is None:
            return False
        rows, relations, rhs, lower, upper = self.key
        return (lp.relations == relations and np.array_equal(lp.rows, rows)
                and np.array_equal(lp.rhs, rhs)
                and np.array_equal(lp.lower, lower)
                and np.array_equal(lp.upper, upper))


def _to_standard_form(lp):
    """Convert to min c.x, A x = b, x >= 0, with A in CSC form.

    Every row gets a slack, row i's in column nv + i with coefficient
    sigma_i = +1 for <= and -1 for >=.  An = row becomes its <= half in
    place and its >= half after the user's rows; the <= rows of two-sided
    variable bounds come last.  Returns (A, b, cmap, sigma, sense); sense
    signs the user's rows for the audit, and the column map cmap = (col,
    sign, shift, free) gives each original variable from the standard form:
    x_j = sign_j x_std[col_j] + shift_j, minus x_std[col_j + 1] when free_j.
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
    return A, b, (col, sign, shift, free), sigma, sense


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
    """Exchange row r and column p under the attempt's budget and blow-up guard."""
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


def _run_phase(T, basis, nonbasic, n_enter, state):
    """Pivot by steepest edge until optimal (None) or unbounded (the column).

    The objective is row m of T; only variables below n_enter may enter.
    Of the columns with the least score d_j / sqrt(1 + |B^-1 a_j|^2), the
    lowest variable enters.  Of the rows whose ratio rhs_i / col_i, over
    col_i > PIVOT_TOL, is within 1e-12 of the least, the lowest basic
    variable leaves.  A column with no entry above PIVOT_TOL is returned,
    with no pivot taken.
    """
    m = basis.size
    red, rhs, body = T[m, :-1], T[:m, -1], T[:m]
    # pivots only swap entries of basis and nonbasic, so when no variable
    # from n_enter up is there now, none can be offered in this phase
    gated = max(basis.max(initial=-1), nonbasic.max(initial=-1)) >= n_enter
    while True:
        neg = (red < -PIVOT_TOL).nonzero()[0]
        if gated:
            neg = neg[nonbasic[neg] < n_enter]
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
        rat = rhs[pos] / col[pos]
        cand = pos[rat <= rat.min() + 1e-12]
        r = int(cand[0] if cand.size == 1 else cand[basis[cand].argmin()])
        _counted_pivot(T, basis, nonbasic, r, p, state)


def _dual_repair(T, basis, nonbasic, x_b, state):
    """Make the basic solution x_b non-negative by dual simplex pivots.

    T is optimal for a relaxed rhs, and x_b is its basis's solution for the
    true one.  Reduced costs do not involve b, so with x_b written into the
    rhs column the cost row is still dual feasible.  The most negative basic
    value leaves; the entering column wins the ratio test on the cost row,
    the lowest variable breaking ties.  Returns the repaired basic solution.
    The objective entry of T goes stale: the repaired tableau is not reused.
    """
    m = basis.size
    rhs = T[:m, -1]
    rhs[:] = x_b
    while True:
        r = int(np.argmin(rhs))
        if rhs[r] >= -PIVOT_TOL:
            return rhs
        neg = (T[r, :-1] < -PIVOT_TOL).nonzero()[0]
        if neg.size == 0:
            raise LpNumericalError("dual repair found no entering column")
        p = _lowest(nonbasic, T[m, neg] / -T[r, neg], neg)
        _counted_pivot(T, basis, nonbasic, r, p, state)


def _basis_solve(B, rhs):
    """B^-1 rhs from a sparse LU of the basis matrix B, or None if singular."""
    try:
        return splu(B).solve(rhs)
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return None


def _warm_tableau(A, b, basis):
    """Condensed tableau and nonbasic columns for a feasible basis, or None.

    Returns None when the basis is singular or its basic solution has a
    value below -PIVOT_TOL, in which case the ordinary two-phase route runs
    instead.  Smaller negative values are roundoff dust, set to 0.
    """
    m, ncols = A.shape
    nonbasic = np.setdiff1d(np.arange(ncols), basis)
    rhs = np.empty((m, nonbasic.size + 1), order="F")
    A[:, nonbasic].toarray(out=rhs[:, :-1])
    rhs[:, -1] = b
    body = _basis_solve(A[:, basis], rhs)
    del rhs  # freed before T is allocated: crash starts set the peak memory
    if body is None or np.any(body[:, -1] < -PIVOT_TOL):
        return None
    np.clip(body[:, -1], 0.0, None, out=body[:, -1])
    T = np.zeros((m + 1, nonbasic.size + 1), order="F")
    T[:m] = body
    return T, nonbasic


def _reprice(T, basis, nonbasic, c):
    """Rewrite T's cost row for costs c: c_N - c_B B^-1 N, and -c_B B^-1 b."""
    m = basis.size
    c_b = c[basis]
    T[m, :-1] = c[nonbasic] - c_b @ T[:m, :-1]
    T[m, -1] = -float(c_b @ T[:m, -1])


def _simplex_core(A, b, c, initial_basis, state, warm=None):
    """Run the (possibly warm-started) two-phase simplex on standard form.

    The tableau is B^-1 [N | b] over the nonbasic columns N, which the
    array nonbasic names, above the cost row.  warm, when given, is such a
    (tableau, basis, nonbasic) for (A, b); it is pivoted in place.
    Otherwise initial_basis, when usable, seeds a fresh tableau.  When it is
    not, the tableau starts from the slack basis; if a slack starts below 0,
    phase 1 adds one artificial variable, ncols, -1 in each such row, pivots
    it in at the most negative row, minimizes it and drops it.  Phase 2
    starts from the cost row priced for c.

    Returns (status, basis, nonbasic, tableau); for "unbounded", basis is
    instead the ray of the edge.
    """
    m, ncols = A.shape
    T = None
    if warm is not None:
        T, basis, nonbasic = warm
    elif initial_basis is not None:
        basis = initial_basis.copy()
        T, nonbasic = _warm_tableau(A, b, basis) or (None, None)
    if T is None:
        k = ncols - m
        basis, nonbasic = k + np.arange(m), np.append(np.arange(k), ncols)
        sigma = A[:, basis].diagonal()  # the slack block, its own inverse
        T = np.zeros((m + 1, k + 2), order="F")
        T[:m, :k] = sigma[:, None] * A[:, :k].toarray()
        T[:m, -1] = sigma * b
        below = T[:m, -1] < 0.0
        if below.any():
            T[:m, k] = np.where(below, -1.0, 0.0)
            r = int(np.argmin(T[:m, -1]))
            _counted_pivot(T, basis, nonbasic, r, k, state)
            _reprice(T, basis, nonbasic, np.eye(1, ncols + 1, ncols)[0])
            # the artificial, variable ncols, may leave but never enter
            if _run_phase(T, basis, nonbasic, ncols, state) is not None:
                raise LpNumericalError("phase 1 reported unbounded")
            if -T[m, -1] > FEAS_TOL:  # the audit's tolerance on a row residual
                return "infeasible", None, None, None
            # B^-1 has no zero row, so its slack entries are not all 0
            for r in np.flatnonzero(basis == ncols):
                p = _lowest(nonbasic, -np.abs(T[r, :-1]))
                _counted_pivot(T, basis, nonbasic, int(r), p, state)
        keep = nonbasic != ncols  # drop the artificial
        T = np.asfortranarray(T[:, np.append(keep, True)])
        nonbasic = nonbasic[keep]
    _reprice(T, basis, nonbasic, c)
    p = _run_phase(T, basis, nonbasic, ncols, state)
    if p is not None:
        ray = np.zeros(ncols)
        ray[basis] = -T[:-1, p]
        ray[nonbasic[p]] = 1.0
        return "unbounded", ray, None, None
    return "optimal", basis, nonbasic, T


# deterministic jitter for the anti-degeneracy perturbation
_GOLDEN = 0.6180339887498949


def _pivot_budget(m, ncols):
    """Pivots one solve attempt may take before it gives up."""
    return 50000 + 200 * (m + ncols)


def solve_lp(lp, initial_basis=None, path=None):
    """Solve a LinearProgram with a two-phase simplex method.

    The simplex pivots a condensed (dictionary) tableau of the nonbasic
    columns; the basic unit columns are never stored.  A solve makes at
    most two attempts, which differ only in eps.  Both price by steepest
    edge (the most negative reduced cost per unit length of the edge,
    d_j / sqrt(1 + |B^-1 a_j|^2), the norms taken afresh from the tableau
    at every pivot, so no pricing state outlives a pivot); the first
    relaxes every right-hand side by tiny, deterministic, strictly
    decreasing offsets, which removes ties from the ratio test.  Ties
    left are broken by index: of equal scores, and in the dual repair's
    and the phase-1 drive-out's choice, the lowest variable enters; of
    ratios within 1e-12 of the least, the lowest basic variable leaves.
    Each restores the true right-hand side from the original data through
    its final basis.  Reduced costs do not involve b, so that basis stays
    dual feasible: when no basic value is below -PIVOT_TOL it is optimal,
    and otherwise a few dual simplex pivots repair it.  Relaxation only
    enlarges the feasible region, so an infeasible verdict under it is
    already exact; phase 1 gives that verdict when its one artificial
    variable ends above FEAS_TOL, the tolerance the feasibility audit allows
    a row.  An unbounded verdict, from the last resort only, needs its ray
    d to have c.d < -PIVOT_TOL and |A d| <= FEAS_TOL.  The relaxed attempt
    hands over when it exhausts its pivot budget, fails a numerical guard,
    finds the relaxation unbounded, restores a singular basis, fails the
    repair or fails the feasibility audit; when the last resort fails too,
    the error names the reason for each.  Identical inputs produce
    bitwise-identical solutions.

    initial_basis optionally names standard-form columns forming a feasible
    starting basis, skipping phase 1.  Standard-form columns are: one per
    variable in declared order, except free variables contribute two
    adjacent columns (positive then negative part), followed by one slack
    column per standard-form row: the user's rows in order (an = row as its
    <= half), then the >= half of each = row, then one <= row per variable
    with two finite bounds.  An unusable basis silently falls back to the
    slack basis and phase 1.

    path optionally carries an LpPath from a previous solve of the same
    constraints under other costs; the relaxed attempt starts from its
    tableau instead of initial_basis.  The path is left holding this
    solve's tableau when the relaxed attempt decides optimal with no
    repair, and is cleared otherwise.  iterations counts this solve's
    pivots only.
    """
    key = prior = None
    if path is not None:
        if path.matches(lp):
            key, form = path.key, path.form
            prior = (path.tableau, path.basis, path.nonbasic, path.x_b)
        path.clear()  # refilled only by an unrepaired relaxed verdict below
    if key is None:
        form = _to_standard_form(lp)
    A, b_true, cmap, sigma, _ = form
    c = _standard_costs(lp.objective, cmap, A.shape[1])
    m, ncols = A.shape
    if initial_basis is not None:
        initial_basis = np.asarray(initial_basis, dtype=int)
        if initial_basis.shape != (m,) or len(set(initial_basis.tolist())) != m:
            raise LpInputError("initial basis must name one distinct column per row")
        if m and (initial_basis.min() < 0 or initial_basis.max() >= ncols):
            raise LpInputError("initial basis column out of range")
    # each row relaxes along its slack coefficient sigma
    jitter = ((np.arange(m) + 1) * _GOLDEN) % 1.0
    # strictly decreasing magnitudes keep structured warm starts feasible
    profile = (1.0 + np.abs(b_true)) * (m - np.arange(m) + jitter) / max(m, 1)
    total_iters = 0
    passed_over = []  # why each attempt handed over
    for eps in _ATTEMPTS:
        state = {"iter": 0, "max_iter": _pivot_budget(m, ncols)}
        warm = prior if eps > 0.0 else None
        try:
            status, x, kept = _attempt(lp, form, b_true + eps * sigma * profile,
                                       c, eps > 0.0, initial_basis, warm, state)
        except LpNumericalError as exc:
            passed_over.append(f"eps={eps:g}: {exc} after {state['iter']} pivots")
            continue
        finally:
            total_iters += state["iter"]
        if status != "optimal":
            return LpSolution(status, iterations=total_iters, eps=eps)
        if path is not None and kept is not None:
            if key is None:
                # copies: a caller may edit the program in place and solve again
                key = (lp.rows.copy(), lp.relations, lp.rhs.copy(),
                       lp.lower.copy(), lp.upper.copy())
            path.key, path.form = key, form
            path.tableau, path.basis, path.nonbasic, path.x_b = kept
        return LpSolution("optimal", x, float(lp.objective @ x), total_iters,
                          eps, warm is not None)
    raise LpNumericalError("every solve attempt failed: " + "; ".join(passed_over))


def _attempt(lp, form, b, c, relaxed, initial_basis, warm, state):
    """One solve attempt of form = (A, b_true, cmap, sigma, sense) on rhs b.

    warm, when given, is a path's (tableau, basis, nonbasic, x_b) for these
    constraints.  Returns (status, x, kept): x is the optimal point, and
    kept, when not None, the (tableau, basis, nonbasic, x_b) a path may
    reuse.  Raises LpNumericalError for every reason to hand over.
    """
    A, b_true, cmap, _, sense = form
    status, basis, nonbasic, T = _simplex_core(
        A, b, c, initial_basis, state, None if warm is None else warm[:3])
    if status == "infeasible":
        return status, None, None
    if status == "unbounded":
        if relaxed:
            raise LpNumericalError("unbounded under relaxation")
        cost, residual = c @ basis, np.max(np.abs(A @ basis), initial=0.0)
        if cost >= -PIVOT_TOL or residual > FEAS_TOL:  # basis holds the ray
            raise LpNumericalError(f"unbounded ray fails its audit: c.d = "
                                   f"{cost:.3e}, |A d| = {residual:.3e}")
        return status, None, None
    if warm is not None and state["iter"] == 0:
        x_b = warm[3]  # same basis as the last solve, same solution
    else:
        x_b = _basis_solve(A[:, basis], b_true)
        if x_b is None:
            raise LpNumericalError("singular restored basis")
    kept = None
    if np.any(x_b < -PIVOT_TOL):  # the repair's own exit test
        x_b = _dual_repair(T, basis, nonbasic, x_b, state)
    elif relaxed:
        kept = (T, basis, nonbasic, x_b)
    x_std = np.zeros(A.shape[1])
    x_std[basis] = np.clip(x_b, 0.0, None)
    x = _recover_x(cmap, x_std)
    _audit_feasible(lp, x, sense)
    return "optimal", x, kept
