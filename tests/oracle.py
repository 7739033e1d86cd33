"""Brute-force vertex-enumeration oracle for small linear programs.

The reference the solver tests compare against.  It shares nothing with
rejectsvm.lp beyond the LinearProgram container, the LpSolution record and
the error classes: its standard form and its mapping of standard-form
columns back to the original variables are its own.
"""

from itertools import combinations

import numpy as np

from rejectsvm.lp import LpError, LpInputError, LpSolution


class LpOversizeError(LpError):
    """Vertex enumeration refused: too many standard-form columns."""


def _oracle_standard_form(lp):
    """Independent standard-form conversion used only by the enumeration oracle."""
    cols = []
    costs = []
    recover = []
    b = lp.rhs.copy()
    bound_rows = []
    for j in range(lp.nvar):
        aj = lp.rows[:, j]
        cj = float(lp.objective[j])
        lo = lp.lower[j]
        up = lp.upper[j]
        if np.isneginf(lo) and np.isposinf(up):
            k = len(cols)
            cols.append(aj)
            cols.append(-aj)
            costs.extend([cj, -cj])
            recover.append(("split", k, k + 1))
        elif not np.isneginf(lo):
            b = b - aj * lo
            k = len(cols)
            cols.append(aj)
            costs.append(cj)
            recover.append(("shift", k, float(lo)))
            if not np.isposinf(up):
                bound_rows.append((k, float(up - lo)))
        else:
            b = b - aj * up
            k = len(cols)
            cols.append(-aj)
            costs.append(-cj)
            recover.append(("mirror", k, float(up)))
    nv = len(cols)
    m0 = lp.ncon
    rels = list(lp.relations) + ["<="] * len(bound_rows)
    m = len(rels)
    n_slack = sum(1 for rel in rels if rel != "=")
    A = np.zeros((m, nv + n_slack))
    for k in range(nv):
        A[:m0, k] = cols[k]
    for i, (k, _) in enumerate(bound_rows):
        A[m0 + i, k] = 1.0
    bb = np.concatenate([b, [ub for _, ub in bound_rows]])
    c = np.concatenate([costs, np.zeros(n_slack)])
    s = nv
    for i, rel in enumerate(rels):
        if rel == "<=":
            A[i, s] = 1.0
            s += 1
        elif rel == ">=":
            A[i, s] = -1.0
            s += 1
    return A, bb, c, recover


def _recover_x(recover, x_std, nvar):
    """Original variables from a standard-form point, one tagged entry each."""
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


def enumerate_vertices_oracle(lp, guard=20):
    """Exhaustively enumerate basic solutions of the standard form.

    Intended as a test oracle on small problems: every size-m column subset
    is solved, feasible basic solutions are compared, and unboundedness is
    detected through a ray certificate (a feasible basis with a negative
    reduced cost whose update column is non-positive).  Assumes the
    standard-form rows are linearly independent, which holds for the shipped
    fixtures.  Refuses problems with more than `guard` standard-form columns.
    """
    A, b, c, recover = _oracle_standard_form(lp)
    m, ncols = A.shape
    if ncols > guard:
        raise LpOversizeError(
            f"standard form has {ncols} columns, enumeration guard is {guard}"
        )
    if m > ncols:
        raise LpInputError("standard form has more rows than columns")
    if m == 0:
        x = _recover_x(recover, np.zeros(ncols), lp.nvar)
        if np.any(c < -1e-12):
            return LpSolution("unbounded", iterations=1)
        return LpSolution("optimal", x, float(lp.objective @ x), 1)
    combos = np.array(list(combinations(range(ncols), m)), dtype=int)
    feas_idx = []
    feas_x = []
    for start in range(0, len(combos), 8192):
        idx = combos[start:start + 8192]
        bases = np.moveaxis(A[:, idx], 0, 1)  # (k, m, m)
        dets = np.linalg.det(bases)
        ok = np.abs(dets) > 1e-9
        if not ok.any():
            continue
        rhs = np.broadcast_to(b[:, None], (int(ok.sum()), m, 1))
        xs = np.linalg.solve(bases[ok], rhs)[..., 0]
        feas = (xs >= -1e-9).all(axis=1)
        if feas.any():
            feas_idx.append(idx[ok][feas])
            feas_x.append(xs[feas])
    examined = len(combos)
    if not feas_idx:
        return LpSolution("infeasible", iterations=examined)
    feas_idx = np.concatenate(feas_idx)
    feas_x = np.concatenate(feas_x)
    objs = np.einsum("km,km->k", c[feas_idx], feas_x)
    best = int(np.argmin(objs))
    # a minimizing feasible basis certifies unboundedness iff some improving
    # column has a non-positive update direction
    near = np.flatnonzero(objs <= objs[best] + 1e-9)
    for k in near:
        idx = feas_idx[k]
        B = A[:, idx]
        y = np.linalg.solve(B.T, c[idx])
        red = c - A.T @ y
        red[idx] = 0.0
        for j in np.flatnonzero(red < -1e-7):
            direction = np.linalg.solve(B, A[:, j])
            if np.all(direction <= 1e-9):
                return LpSolution("unbounded", iterations=examined)
    x_std = np.zeros(ncols)
    x_std[feas_idx[best]] = feas_x[best]
    x = _recover_x(recover, x_std, lp.nvar)
    return LpSolution("optimal", x, float(lp.objective @ x), examined)
