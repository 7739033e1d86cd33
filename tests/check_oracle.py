"""Per-candidate loops of the diagnose checks, the reference for their slacks.

The checks in rejectsvm.theory evaluate all their candidates as one
(k x atoms) table.  The functions here evaluate one candidate at a time,
with the 1-D risk and norm written out below, and return every slack in
candidate order, so a test can compare the two bit for bit.  The exact
domination check has no candidates: a sampled score vector's slack only
bounds it from above.  complexity_margin_fit rescans the atoms at every
width and every jump, the reference for complexity_estimate's sorted sums.
"""

import math

import numpy as np

from rejectsvm.losses import (
    bayes_phi_risk,
    bayes_risk,
    gen_hinge,
    reject_loss,
)
from rejectsvm.theory import complexity_estimate

_LOSS = {"hinge": gen_hinge, "reject": reject_loss}


def risk(dist, f, cp, loss):
    """Exact E[loss(Y f(X))] of one per-atom score vector f."""
    fn = _LOSS[loss]
    return float(np.sum(dist.p * (dist.eta * fn(f, cp)
                                  + (1.0 - dist.eta) * fn(-f, cp))))


def norm(dist, g):
    """sqrt(sum_x p(x) g(x)^2 eta(1-eta)) of one per-atom vector g."""
    return math.sqrt(float(np.sum(dist.p * g**2 * dist.omega())))


def lemma_a1_slacks(ctx, lam_set):
    """check_lemma_a1's slack per coefficient row of lam_set."""
    est = complexity_estimate(ctx.dist, ctx.cp.d)
    alpha, a_const, d = est.alpha, est.a_const, ctx.cp.d
    base = bayes_phi_risk(ctx.dist, ctx.cp)
    slacks = []
    for lam in lam_set:
        g = ctx.phi @ lam - ctx.f0_values
        lhs = norm(ctx.dist, g) ** (2.0 + 2.0 * alpha)
        excess = risk(ctx.dist, ctx.phi @ lam, ctx.cp, "hinge") - base
        excess = max(excess, 0.0)
        sup = float(np.abs(g).max(initial=0.0))
        rhs = 4.0 * a_const * (2.0 * d) ** alpha * sup ** (2.0 + alpha) \
            * excess**alpha
        slacks.append(rhs - lhs)
    return slacks


def prop21_slacks(ctx, fits):
    """check_prop21's slacks and (r, l1, gap) trace over a PopulationPath."""
    base = fits.base
    risk0 = risk(ctx.dist, ctx.phi @ base.lam, ctx.cp, "hinge")
    l1_0 = base.l1_norm()
    support = np.abs(base.lam) > 1e-8
    slacks, trace = [], []
    for r, m in zip(fits.r, fits.models):
        move = np.abs(m.lam - base.lam)
        gap = risk(ctx.dist, ctx.phi @ m.lam, ctx.cp, "hinge") - risk0
        trace.append((float(r), float(m.l1_norm()), float(gap)))
        slacks += [l1_0 - m.l1_norm() + 1e-7,
                   float(move[support].sum() - move[~support].sum()) + 1e-7]
    gaps = [g for _, _, g in trace]
    if l1_0 <= 10.0:
        slacks.append(min(gaps[-1] - gaps[0] + 1e-12, 1e-3 - gaps[0]))
    return slacks, trace


def domination_slacks(ctx, f_set):
    """Excess phi-risk minus excess l-risk per score row of f_set; none is
    below check_excess_domination's slack, their infimum over all f."""
    ell_0 = bayes_risk(ctx.dist, ctx.cp)
    phi_0 = bayes_phi_risk(ctx.dist, ctx.cp)
    slacks = []
    for f in f_set:
        d_ell = risk(ctx.dist, f, ctx.cp, "reject") - ell_0
        d_phi = risk(ctx.dist, f, ctx.cp, "hinge") - phi_0
        slacks.append(d_phi - d_ell)
    return slacks


def complexity_margin_fit(dist, d):
    """complexity_estimate's (alpha, a_const, gap) on its default widths,
    P(t) summed anew over the atoms at every width and every jump."""
    t_grid = np.geomspace(1e-3, 0.5, 25)
    g_low, g_high = np.abs(dist.eta - d), np.abs(dist.eta - (1.0 - d))
    gap = float(min(g_low.min(), g_high.min()))
    if gap == 0.0:
        return 0.0, 1.0, 0.0

    def tail(dists, t):
        return float(np.sum(dist.p[dists <= t]))

    binding = np.array([max(tail(g_low, t), tail(g_high, t))
                        for t in t_grid])
    live = binding > 0.0
    alpha = 0.0
    if live.sum() >= 2:
        slope = np.polyfit(np.log(t_grid[live]), np.log(binding[live]), 1)[0]
        alpha = max(float(slope), 0.0)
    a_const = 1.0
    for dists in (g_low, g_high):
        for t in np.unique(dists):
            a_const = max(a_const, tail(dists, t) / t**alpha)
    return alpha, float(a_const), gap
