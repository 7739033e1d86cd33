"""Dense two-phase simplex solver.

Problems are stated in general form,

    minimize    c . x
    subject to  row . x  {<=, >=, =}  rhs      (one relation per row)
                lower <= x <= upper            (entries may be infinite)

The solver is deliberately plain -- a dense tableau with explicit artificial
variables, Dantzig pricing on a once-relaxed right-hand side, a dual simplex
repair of the restored basis, and Bland's rule only in an unrelaxed last
resort -- so that small instances can be confirmed independently by
enumerating every basic solution of the standard form, as the test suite
does with its own vertex-enumeration oracle.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas as _blas

from .constants import BLOWUP_LIMIT, FEAS_TOL, PIVOT_TOL

_RELATIONS = ("<=", ">=", "=")

# right-hand-side relaxations tried in turn: one relaxed attempt under
# Dantzig pricing, then an unrelaxed last resort under Bland's rule
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
            if rel not in _RELATIONS:
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

    After a solve that the relaxed attempt decided without a dual repair,
    it keeps that program's constraints, their standard form, and the
    attempt's final tableau, basis and basic solution for the true
    right-hand side.  None of these involves the costs, so the next solve
    with equal constraints reuses the standard form and starts its relaxed
    attempt from the tableau, with only the cost row re-priced, pivoting it
    in place; when no pivot is needed, the basic solution is reused too.
    The unrelaxed attempt, and solves of other constraints, ignore the
    state.  One tableau is live per path.
    """

    __slots__ = ("key", "form", "tableau", "basis", "x_b")

    def __init__(self):
        self.clear()

    def clear(self):
        self.key = self.form = None
        self.tableau = self.basis = self.x_b = None

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
    """Convert to min c.x, A x = b, x >= 0, b >= 0.

    Returns (A, b, c, recover, slack_rows) where recover maps standard-form
    columns back to the original variables and slack_rows pairs each slack
    column with its row for the initial-basis scan.
    """
    m0 = lp.ncon
    col_vec = []
    recover = []
    b = lp.rhs.copy()
    extra_rows = []  # (standard column, upper - lower) for two-sided bounds
    for j in range(lp.nvar):
        aj = lp.rows[:, j]
        lo = lp.lower[j]
        up = lp.upper[j]
        if np.isneginf(lo) and np.isposinf(up):
            k = len(col_vec)
            col_vec.extend([aj, -aj])
            recover.append(("split", k, k + 1))
        elif not np.isneginf(lo):
            if lo != 0.0:
                b = b - aj * lo
            k = len(col_vec)
            col_vec.append(aj)
            recover.append(("shift", k, float(lo)))
            if not np.isposinf(up):
                extra_rows.append((k, float(up - lo)))
        else:
            # upper bound only: mirror the variable
            b = b - aj * up
            k = len(col_vec)
            col_vec.append(-aj)
            recover.append(("mirror", k, float(up)))
    nv = len(col_vec)
    mb = len(extra_rows)
    m = m0 + mb
    rels = list(lp.relations) + ["<="] * mb
    n_slack = sum(1 for rel in rels if rel != "=")
    A = np.zeros((m, nv + n_slack))
    if m0:
        for k in range(nv):
            A[:m0, k] = col_vec[k]
    bb = np.concatenate([b, [ub for _, ub in extra_rows]])
    for i, (k, _) in enumerate(extra_rows):
        A[m0 + i, k] = 1.0
    c = _standard_costs(lp.objective, recover, nv + n_slack)
    slack_rows = []
    s = nv
    for i, rel in enumerate(rels):
        if rel == "<=":
            A[i, s] = 1.0
            slack_rows.append((s, i))
            s += 1
        elif rel == ">=":
            A[i, s] = -1.0
            slack_rows.append((s, i))
            s += 1
    neg = bb < 0
    if neg.any():
        A[neg] *= -1.0
        bb[neg] *= -1.0
    return A, bb, c, recover, slack_rows


def _standard_costs(objective, recover, ncols):
    """Standard-form cost vector: mirrored columns negate, slacks cost 0."""
    c = np.zeros(ncols)
    for cj, rec in zip(objective.tolist(), recover):
        kind = rec[0]
        if kind == "split":
            c[rec[1]], c[rec[2]] = cj, -cj
        elif kind == "shift":
            c[rec[1]] = cj
        else:
            c[rec[1]] = -cj
    return c


def _recover_x(recover, x_std, nvar):
    x = np.empty(nvar)
    for j, rec in enumerate(recover):
        kind = rec[0]
        if kind == "split":
            x[j] = x_std[rec[1]] - x_std[rec[2]]
        elif kind == "shift":
            x[j] = x_std[rec[1]] + rec[2]
        else:
            x[j] = rec[2] - x_std[rec[1]]
    return x


def _audit_feasible(lp, x):
    """Raise LpNumericalError if x violates any original constraint or bound."""
    if lp.ncon:
        res = lp.rows @ x - lp.rhs
        for i, rel in enumerate(lp.relations):
            bad = (
                (rel == "<=" and res[i] > FEAS_TOL)
                or (rel == ">=" and res[i] < -FEAS_TOL)
                or (rel == "=" and abs(res[i]) > FEAS_TOL)
            )
            if bad:
                raise LpNumericalError(
                    f"claimed-optimal point violates row {i} by {res[i]:.3e}"
                )
    if np.any(x < lp.lower - FEAS_TOL) or np.any(x > lp.upper + FEAS_TOL):
        raise LpNumericalError("claimed-optimal point violates a variable bound")


def _pivot(T, r, c):
    piv = T[r, c]
    if abs(piv) <= PIVOT_TOL:
        raise LpNumericalError("pivot element vanished")
    T[r, :] /= piv
    colv = T[:, c].copy()
    colv[r] = 0.0
    rowv = T[r, :].copy()
    # in-place rank-1 update T -= colv * rowv'; T is Fortran-ordered
    _blas.dger(-1.0, colv, rowv, a=T, overwrite_a=1)
    T[:, c] = 0.0
    T[r, c] = 1.0


def _counted_pivot(T, basis, r, c, state):
    """Pivot column c into row r under the attempt's budget and blow-up guard."""
    _pivot(T, r, c)
    basis[r] = c
    state["iter"] += 1
    if state["iter"] > state["max_iter"]:
        raise LpNumericalError("simplex iteration limit exceeded")
    if state["iter"] % 64 == 0 and np.abs(T).max() > BLOWUP_LIMIT:
        raise LpNumericalError("tableau magnitude exceeded blow-up limit")


def _run_phase(T, basis, m, obj_row, allowed, state):
    """Pivot until the phase objective is optimal.  Returns 'optimal'/'unbounded'."""
    ncols = T.shape[1] - 1
    while True:
        red = np.where(allowed, T[obj_row, :ncols], np.inf)
        if state["bland"]:
            neg = np.flatnonzero(red < -PIVOT_TOL)
            if neg.size == 0:
                return "optimal"
            j = int(neg[0])
        else:
            j = int(np.argmin(red))
            if red[j] >= -PIVOT_TOL:
                return "optimal"
        col = T[:m, j]
        pos = col > PIVOT_TOL
        if not pos.any():
            return "unbounded"
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / col[pos]
        rmin = ratios.min()
        cand = np.flatnonzero(ratios <= rmin + 1e-12)
        r = int(cand[np.argmin(basis[cand])])  # lowest basic index breaks ties
        _counted_pivot(T, basis, r, j, state)


def _dual_repair(T, basis, x_b, state):
    """Make the basic solution x_b non-negative by dual simplex pivots.

    T is optimal for a relaxed rhs, and x_b is its basis's solution for the
    true one.  Reduced costs do not involve b, so with x_b written into the
    rhs column the cost row is still dual feasible.  The most negative basic
    value leaves; the entering column wins the ratio test on the cost row,
    the lowest index breaking ties.  Returns the repaired basic solution.
    The objective entry of T goes stale: the repaired tableau is not reused.
    """
    m = basis.size
    T[:m, -1] = x_b
    while True:
        rhs = T[:m, -1]
        r = int(np.argmin(rhs))
        if rhs[r] >= -PIVOT_TOL:
            return rhs
        row = T[r, :-1]
        neg = row < -PIVOT_TOL
        if not neg.any():
            raise LpNumericalError("dual repair found no entering column")
        ratios = np.full(row.size, np.inf)
        ratios[neg] = T[m, :-1][neg] / -row[neg]
        _counted_pivot(T, basis, r, int(np.argmin(ratios)), state)


def _warm_tableau(A, b, c, basis):
    """Canonical tableau for a caller-supplied feasible basis, or None.

    Returns None when the basis is singular or its basic solution is not
    non-negative, in which case the ordinary two-phase route runs instead.
    """
    m, ncols = A.shape
    B = A[:, basis]
    try:
        body = np.linalg.solve(B, np.column_stack([A, b]))
    except np.linalg.LinAlgError:
        return None
    x_b = body[:, -1]
    if np.any(x_b < -FEAS_TOL):
        return None
    np.clip(x_b, 0.0, None, out=x_b)  # scrub roundoff dust
    T = np.zeros((m + 1, ncols + 1), order="F")
    T[:m] = body
    T[m, :ncols] = c - c[basis] @ body[:, :ncols]
    T[m, -1] = -float(c[basis] @ x_b)
    return T


def _reprice(T, basis, c):
    """Rewrite T's cost row for costs c: c - c_B B^-1 A, and -c_B B^-1 b."""
    m = basis.size
    c_b = c[basis]
    T[m, :-1] = c - c_b @ T[:m, :-1]
    T[m, -1] = -float(c_b @ T[:m, -1])


def _simplex_core(A, b, c, initial_basis, state, warm=None):
    """Run the (possibly warm-started) two-phase simplex on standard form.

    warm, when given, is a (tableau, basis) pair canonical for (A, b); its
    cost row is re-priced for c and it is pivoted in place.  Otherwise
    initial_basis, when usable, seeds a fresh tableau, and the two-phase
    route runs from artificials when it is not.

    Returns (status, basis, tableau, rows_dropped).  basis and tableau are
    meaningful only for status "optimal".
    """
    m, ncols = A.shape
    T = None
    if warm is not None:
        T, basis = warm
        _reprice(T, basis, c)
    elif initial_basis is not None:
        basis = initial_basis.copy()
        T = _warm_tableau(A, b, c, basis)
    if T is None:
        basis = np.full(m, -1, dtype=int)
        for j in range(ncols):
            if c[j] != 0.0:
                continue  # only costless unit columns keep the cost row priced
            col = A[:, j]
            hit = np.flatnonzero(col)
            if hit.size == 1 and col[hit[0]] == 1.0 and basis[hit[0]] == -1:
                basis[hit[0]] = j
        art_rows = [i for i in range(m) if basis[i] == -1]
        n_art = len(art_rows)
        T = np.zeros((m + 2, ncols + n_art + 1), order="F")
        T[:m, :ncols] = A
        T[:m, -1] = b
        for k, i in enumerate(art_rows):
            T[i, ncols + k] = 1.0
            basis[i] = ncols + k
        T[m, :ncols] = c
        allowed = np.ones(ncols + n_art, dtype=bool)
        allowed[ncols:] = False  # artificials may leave the basis, never enter
        if n_art:
            T[m + 1, ncols:ncols + n_art] = 1.0
            for i in art_rows:
                T[m + 1, :] -= T[i, :]
            status = _run_phase(T, basis, m, m + 1, allowed, state)
            if status != "optimal":
                raise LpNumericalError("auxiliary phase reported unbounded")
            z_aux = -T[m + 1, -1]
            if z_aux > FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
                return "infeasible", None, None, False
            drop = []
            for i in range(m):
                if basis[i] >= ncols:
                    good = np.flatnonzero(np.abs(T[i, :ncols]) > PIVOT_TOL)
                    if good.size:
                        _pivot(T, i, int(good[0]))
                        basis[i] = int(good[0])
                    else:
                        drop.append(i)  # redundant row
            if drop:
                T = np.delete(T, drop, axis=0)
                basis = np.delete(basis, drop)
                m -= len(drop)
        keep = np.concatenate([np.arange(ncols), [ncols + n_art]])
        T = np.asfortranarray(T[: m + 1][:, keep])
    status = _run_phase(T, basis, m, m, np.ones(ncols, dtype=bool), state)
    if status == "unbounded":
        return "unbounded", None, None, False
    return "optimal", basis, T, m < A.shape[0]


# deterministic jitter for the anti-degeneracy perturbation
_GOLDEN = 0.6180339887498949


def _pivot_budget(m, ncols):
    """Pivots one solve attempt may take before it gives up."""
    return 50000 + 200 * (m + ncols)


def solve_lp(lp, initial_basis=None, path=None):
    """Solve a LinearProgram with a two-phase dense simplex method.

    A solve makes at most two attempts.  The first prices by Dantzig's rule
    (the most negative reduced cost) with the inequality right-hand sides
    relaxed by tiny, deterministic, strictly decreasing offsets, which
    removes ties from the ratio test; the true right-hand side is then
    restored through the final basis.  Reduced costs do not involve b, so
    that basis stays dual feasible: when its basic solution is
    non-negative it is exactly optimal for the unperturbed problem, and
    otherwise a few dual simplex pivots repair it.  Relaxation only
    enlarges the feasible region, so an infeasible verdict under it is
    already exact.  The attempt hands over to an unrelaxed last resort
    under Bland's rule when it exhausts its pivot budget, fails a numerical
    guard, finds the relaxation unbounded, drops redundant rows, restores a
    singular basis, fails the repair or fails the feasibility audit; when
    that attempt fails too, the error names the reason for each.  Identical
    inputs produce bitwise-identical solutions.

    initial_basis optionally names standard-form columns forming a feasible
    starting basis, skipping the auxiliary phase.  Standard-form columns are:
    one per variable in declared order, except free variables contribute two
    adjacent columns (positive then negative part), followed by one slack
    column per inequality row in row order (rows synthesized for two-sided
    variable bounds come after the user's rows).  An unusable basis silently
    falls back to the two-phase route.

    path optionally carries an LpPath from a previous solve of the same
    constraints under other costs; the relaxed attempt starts from its
    tableau instead of initial_basis.  The path is left holding this
    solve's tableau when the relaxed attempt decides optimal without a
    repair, and is cleared otherwise.  iterations counts this solve's
    pivots only.
    """
    key = prior = None
    if path is not None:
        if path.matches(lp):
            key = path.key
            A, b_true, recover, slack_rows = path.form
            c = _standard_costs(lp.objective, recover, A.shape[1])
            prior = (path.tableau, path.basis, path.x_b)
        path.clear()  # refilled only by an unrepaired relaxed verdict below
    if key is None:
        A, b_true, c, recover, slack_rows = _to_standard_form(lp)
    m, ncols = A.shape
    if initial_basis is not None:
        initial_basis = np.asarray(initial_basis, dtype=int)
        if initial_basis.shape != (m,) or len(set(initial_basis.tolist())) != m:
            raise LpInputError("initial basis must name one distinct column per row")
        if m and (initial_basis.min() < 0 or initial_basis.max() >= ncols):
            raise LpInputError("initial basis column out of range")
    # relaxing direction per row: sign of the slack coefficient (0 = equality)
    sigma = np.zeros(m)
    for s, i in slack_rows:
        sigma[i] = A[i, s]
    jitter = ((np.arange(m) + 1) * _GOLDEN) % 1.0
    # strictly decreasing magnitudes keep structured warm starts feasible
    profile = (1.0 + np.abs(b_true)) * (m - np.arange(m) + jitter) / max(m, 1)
    total_iters = 0
    passed_over = []  # why each attempt handed over
    for eps in _ATTEMPTS:
        state = {"iter": 0, "max_iter": _pivot_budget(m, ncols),
                 "bland": eps == 0.0}
        warm = prior if eps > 0.0 else None
        try:
            status, x, kept = _attempt(lp, A, b_true + eps * sigma * profile,
                                       b_true, c, recover, eps > 0.0,
                                       initial_basis, warm, state)
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
            path.key, path.form = key, (A, b_true, recover, slack_rows)
            path.tableau, path.basis, path.x_b = kept
        return LpSolution("optimal", x, float(lp.objective @ x), total_iters,
                          eps, warm is not None)
    raise LpNumericalError("every solve attempt failed: " + "; ".join(passed_over))


def _attempt(lp, A, b, b_true, c, recover, relaxed, initial_basis, warm,
             state):
    """One solve attempt of the standard form (A, b_true, c) on the rhs b.

    warm, when given, is a path's (tableau, basis, x_b) for these
    constraints.  Returns (status, x, kept): x is the optimal point, and
    kept, when not None, the (tableau, basis, x_b) a path may reuse.  Raises
    LpNumericalError for every reason to hand over.
    """
    flip = b < 0.0
    if flip.any():  # keep rhs non-negative for the artificial start
        A = A.copy()
        A[flip] *= -1.0
        b = b.copy()
        b[flip] *= -1.0
        b_true = b_true.copy()
        b_true[flip] *= -1.0
    status, basis, T, dropped = _simplex_core(
        A, b, c, initial_basis, state, None if warm is None else warm[:2])
    if status == "infeasible" or (status == "unbounded" and not relaxed):
        return status, None, None
    if status == "unbounded":
        raise LpNumericalError("unbounded under relaxation")
    x_std = np.zeros(A.shape[1])
    kept = None
    if not relaxed:
        x_std[basis] = T[:-1, -1]
    else:
        if dropped:
            raise LpNumericalError("dropped redundant rows")  # valid for b only
        if warm is not None and state["iter"] == 0:
            x_b = warm[2]  # same basis as the last solve, same solution
        else:
            try:
                x_b = np.linalg.solve(A[:, basis], b_true)
            except np.linalg.LinAlgError:
                raise LpNumericalError("singular restored basis") from None
        if np.any(x_b < -FEAS_TOL):
            x_b = _dual_repair(T, basis, x_b, state)
        else:
            kept = (T, basis, x_b)
        x_std[basis] = np.clip(x_b, 0.0, None)
    x = _recover_x(recover, x_std, lp.nvar)
    _audit_feasible(lp, x)
    return "optimal", x, kept
