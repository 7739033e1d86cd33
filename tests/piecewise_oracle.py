"""Reference forms of the piecewise-linear simplex's ratio test and
certificate, for the tests to compare rejectsvm.lp against.

full_long_step collects every breakpoint ahead of every moving variable,
sorts them all and passes them in order; lp._long_step reads only the
breakpoints its step can reach.  masked_slope_interval marks every segment
within FEAS_TOL of a value and takes the least and most of their slopes;
lp._slope_interval counts breakpoints instead.  Both read lp's tables
(lp._Tables) and take the same arguments as their counterparts.
"""

import numpy as np

from rejectsvm.constants import FEAS_TOL, PIVOT_TOL
from rejectsvm.lp import LpNumericalError


def full_long_step(rate, x_b, basis, at, q, kq, step, d, tables):
    """lp._long_step's decision from the full collection of events.

    Every finite breakpoint ahead of each basic variable with |rate| >
    PIVOT_TOL (at theta 0 for one already past it) and of the entering
    variable q, in theta order, equal thetas largest rate first; the step
    stops at the first event where d plus the jumps passed reaches
    -PIVOT_TOL.
    """
    breaks, jumps = tables.ends[:, 1:4], tables.jumps[:, 1:4]
    finite = np.isfinite(breaks)
    ahead = np.arange(3)
    rows = (np.abs(rate) > PIVOT_TOL).nonzero()[0]
    v, rt = basis[rows], rate[rows]
    # breakpoints ahead: at or above the segment's index moving up, below
    # it moving down
    past = (ahead >= at[v][:, None]) == (rt[:, None] > 0.0)
    past &= finite[v]
    i, brk = past.nonzero()
    v, who, size = v[i], rows[i], np.abs(rt[i])
    theta = np.maximum((breaks[v, brk] - x_b[who]) / rt[i], 0.0)
    jump = size * jumps[v, brk]
    own = ahead[kq + 1:] if step > 0.0 else ahead[:kq]
    own = own[finite[q, own]]
    if own.size:  # the entering variable's own, at rate 1, row -1
        theta = np.concatenate([np.abs(breaks[q, own] - breaks[q, kq]),
                                theta])
        jump = np.concatenate([jumps[q, own], jump])
        size = np.concatenate([np.ones(own.size), size])
        who = np.concatenate([np.full(own.size, -1), who])
        brk = np.concatenate([own, brk])
    order = np.argsort(theta, kind="stable")
    total = d + np.cumsum(jump[order])
    reached = (total >= -PIVOT_TOL).nonzero()[0]
    if reached.size == 0:
        raise LpNumericalError(f"no breakpoint ends the step of entering "
                               f"variable {q}")
    e = reached[0]
    sorted_theta = theta[order]
    length = sorted_theta[e]
    lo, hi = np.searchsorted(sorted_theta, length, side="left"), \
        np.searchsorted(sorted_theta, length, side="right")
    if hi - lo > 1:  # equal thetas: the largest rate first
        tie = order[lo:hi]
        order[lo:hi] = tie = tie[np.argsort(-size[tie], kind="stable")]
        before = total[lo - 1] if lo else d
        hit = (before + np.cumsum(jump[tie]) >= -PIVOT_TOL).nonzero()[0]
        e = lo + (hit[0] if hit.size else tie.size - 1)
    moved = who[order[:e]]
    leave = order[e]
    return (length, moved[moved >= 0], who[leave], brk[leave],
            np.count_nonzero(moved < 0))


def masked_slope_interval(tables, x):
    """lp._slope_interval by masks: of the segments whose ends lie within
    FEAS_TOL of x, the least and the most slope."""
    breaks, n = tables.ends[:, 1:4], x.size
    low = np.column_stack([np.full(n, -np.inf), breaks]) - FEAS_TOL
    high = np.column_stack([breaks, np.full(n, np.inf)]) + FEAS_TOL
    inside = (low <= x[:, None]) & (x[:, None] <= high)
    return (np.where(inside, tables.slopes, np.inf).min(axis=1),
            np.where(inside, tables.slopes, -np.inf).max(axis=1))
