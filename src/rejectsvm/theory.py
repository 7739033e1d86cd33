"""Exact population-level diagnostics on finite-support distributions.

Everything here works atom by atom: risks, the noise-weighted Gram matrix,
the margin-exponent fit, and the inequality checks are all finite sums, so
reported violations are genuine rather than sampling artifacts.  Every
check reads one TheoryContext; the path checks also read one PopulationPath.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import evaluate as _evaluate_dictionary
from .losses import (
    bayes_phi_risk,
    bayes_risk,
    bayes_rule,
    population_risk,
)
from .train import fit_population, walk_penalty_path

__all__ = [
    "TheoryContext",
    "ComplexityEstimate",
    "CheckReport",
    "make_context",
    "gram_psi",
    "weighted_norm",
    "complexity_estimate",
    "check_lemma_a1",
    "PopulationPath",
    "population_path",
    "check_prop21",
    "check_plateau",
    "check_excess_domination",
]


@dataclass(frozen=True)
class TheoryContext:
    """A finite-support distribution paired with a dictionary.

    f0_values is the optimal rule per atom (-1/0/+1); phi is the
    atom-by-function value table phi[k, j] = f_j(x_k) every check reads.
    """

    dist: object
    dic: object
    cp: object
    f0_values: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class ComplexityEstimate:
    """Margin exponent fit: probability of eta within t of either decision
    threshold is bounded by a_const * t**alpha for every t > 0.

    alpha is math.inf when no searched width captures any atom; gap is the
    smallest distance from an atom's eta to a threshold (the witness for the
    infinite case).
    """

    alpha: float
    a_const: float
    gap: float


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check.

    slack is the smallest right-minus-left margin observed (negative means
    a violation); witness describes where it occurred.  detail carries
    check-specific traces and is not serialized to CSV.
    """

    name: str
    status: str
    slack: float
    witness: str
    detail: dict | None = None


def gram_psi(dist, dic):
    """Noise-weighted Gram matrix: psi[i, j] = 4 sum_x p f_i f_j eta(1-eta)."""
    phi = _evaluate_dictionary(dic, dist.x).phi
    w = dist.p * dist.omega()
    psi = 4.0 * (phi.T * w) @ phi
    return (psi + psi.T) / 2.0


def weighted_norm(dist, values):
    """Seminorm sqrt(sum_x p(x) g(x)^2 eta(1-eta)) of per-atom values g.

    A (k, atoms) array gives an array of k norms, one per row, each with
    the bits of that row's 1-D call.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim > 2:
        raise ValueError("values must be a vector or a (k, atoms) array")
    sq = np.sum(dist.p * values**2 * dist.omega(), axis=-1)
    return math.sqrt(float(sq)) if values.ndim < 2 else np.sqrt(sq)


def make_context(dist, dic, cp):
    """Evaluate the dictionary on the atoms and the optimal rule, once."""
    phi = _evaluate_dictionary(dic, dist.x).phi
    return TheoryContext(dist, dic, cp, bayes_rule(dist.eta, cp), phi)


def _scores(ctx, lams):
    """The (k, atoms) table of phi @ lam, one mat-vec per coefficient row.

    A single lams @ phi.T would round many rows differently from the
    mat-vec; filling an allocated table keeps an empty lams working.
    """
    scores = np.empty((len(lams), ctx.dist.n_atoms))
    for k, lam in enumerate(lams):
        scores[k] = ctx.phi @ lam
    return scores


def _worst_slack(slacks, witness):
    """The first smallest slack and witness(k) of its index k; with no slack
    below inf, inf and "all candidates satisfied the bound"."""
    worst, k = math.inf, None
    for i, s in enumerate(slacks):
        if s < worst:
            worst, k = s, i
    return worst, ("all candidates satisfied the bound" if k is None
                   else witness(k))


def _tail_probability(p, distances, t):
    return float(np.sum(p[distances <= t]))


def complexity_estimate(dist, d, t_grid=None):
    """Fit the margin exponent of eta around the thresholds d and 1 - d.

    The exact probabilities P{|eta - d| <= t} and P{|eta - (1-d)| <= t} are
    step functions with finitely many jumps.  If no width in t_grid captures
    any atom the exponent is unbounded for these widths and the infinite
    sentinel is returned together with the observed gap.  An atom sitting
    exactly on a threshold forces alpha = 0 (with a_const = 1).  Otherwise
    alpha is the log-log least-squares slope of the binding probability over
    the grid, and a_const is the exact maximum of P(t) / t**alpha over all
    jump points, clipped to >= 1 -- making the returned pair valid for every
    t > 0, not just on the grid.
    """
    if t_grid is None:
        t_grid = np.geomspace(1e-3, 0.5, 25)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or np.any(t_grid <= 0.0) or np.any(t_grid > 1.0):
        raise ValueError("t_grid must lie in (0, 1]")
    g_low = np.abs(dist.eta - d)
    g_high = np.abs(dist.eta - (1.0 - d))
    gap = float(min(g_low.min(), g_high.min()))
    if gap == 0.0:
        return ComplexityEstimate(0.0, 1.0, 0.0)
    binding = np.array(
        [max(_tail_probability(dist.p, g_low, t),
             _tail_probability(dist.p, g_high, t)) for t in t_grid]
    )
    live = binding > 0.0
    if not live.any():
        return ComplexityEstimate(math.inf, 1.0, gap)
    if live.sum() < 2:
        alpha = 0.0
    else:
        lx = np.log(t_grid[live])
        ly = np.log(binding[live])
        alpha = float(np.polyfit(lx, ly, 1)[0])
        alpha = max(alpha, 0.0)
    a_const = 1.0
    for dists in (g_low, g_high):
        jumps = np.unique(dists)
        for t in jumps:
            a_const = max(a_const, _tail_probability(dist.p, dists, t) / t**alpha)
    return ComplexityEstimate(alpha, float(a_const), gap)


def check_lemma_a1(ctx, lam_set=None, n_random=200, seed=0, t_grid=None):
    """Excess-risk lower bound on the weighted norm, checked per atom.

    For each candidate coefficient vector the check compares
    ||f_lam - f0||^(2+2a) against 4 A (2d)^a ||f_lam - f0||_inf^(2+a)
    (excess phi-risk)^a with (a, A) from complexity_estimate.  Skipped when
    the exponent is infinite (no width captures mass, so the bound carries
    no content on this distribution).
    """
    est = complexity_estimate(ctx.dist, ctx.cp.d, t_grid)
    if math.isinf(est.alpha):
        return CheckReport(
            "weighted_norm_excess_risk", "skipped", math.inf,
            f"eta stays {est.gap:.6g} away from both thresholds",
            {"complexity": est},
        )
    if lam_set is None:
        rng = np.random.default_rng(seed)
        lam_set = rng.normal(scale=2.0, size=(n_random, ctx.phi.shape[1]))
    lam_set = np.atleast_2d(np.asarray(lam_set, dtype=float))
    alpha, a_const = est.alpha, est.a_const
    d = ctx.cp.d
    base = bayes_phi_risk(ctx.dist, ctx.cp)
    scores = _scores(ctx, lam_set)
    g = scores - ctx.f0_values
    norms = weighted_norm(ctx.dist, g)
    excesses = population_risk(ctx.dist, scores, ctx.cp, "hinge") - base
    sups = np.abs(g).max(axis=-1, initial=0.0)
    # the powers stay on Python floats: numpy's array power can round
    # differently from libm's pow
    slacks = []
    for norm, excess, sup in zip(norms.tolist(), excesses.tolist(),
                                 sups.tolist()):
        lhs = norm ** (2.0 + 2.0 * alpha)
        excess = max(excess, 0.0)  # exact arithmetic dust guard
        rhs = 4.0 * a_const * (2.0 * d) ** alpha * sup ** (2.0 + alpha) \
            * excess**alpha
        slacks.append(rhs - lhs)
    worst, witness = _worst_slack(
        slacks, lambda k: f"lam={np.array2string(lam_set[k], precision=4)}")
    status = "pass" if worst >= -1e-9 * (1.0 + abs(worst)) else "fail"
    return CheckReport("weighted_norm_excess_risk", status, worst, witness,
                       {"complexity": est, "n_checked": len(lam_set)})


@dataclass(frozen=True)
class PopulationPath:
    """Exact population fits: lambda(0) and one fit per r, r ascending."""

    base: object
    r: np.ndarray
    models: list


def population_path(ctx, r_grid):
    """Solve the population fits on a positive r grid and lambda(0).

    The grid and the r = 0 anchor are walked as one warm path from the
    largest r down (walk_penalty_path); lambda(0) is the path's last step.
    The result serves both check_prop21 and check_plateau, so neither
    solves a fit twice.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size == 0 or not np.all(np.isfinite(r_grid) & (r_grid > 0.0)):
        raise ValueError("r_grid must be finite, positive and non-empty")
    r_grid = np.sort(r_grid)
    models = walk_penalty_path(
        np.append(r_grid, 0.0),
        lambda r, path: fit_population(ctx.dist, ctx.dic, ctx.cp, r,
                                       path=path),
    )[0]
    return PopulationPath(models[-1], r_grid, models[:-1])


def check_prop21(ctx, fits):
    """Shrinkage and support-cone behavior of the population path.

    Verifies, against the exact population fits of fits (a PopulationPath
    of ctx): (b) the l1 norm at every r > 0 stays at or below the norm at
    r = 0; (c) off-support movement of the coefficients is dominated by
    on-support movement; (a) the risk gap to the unpenalized fit shrinks as
    r decreases (asserted when the r = 0 solution has l1 norm at most 10:
    gap at the smallest grid r below 1e-3 and no larger than at the
    biggest r).
    """
    base = fits.base
    risks = population_risk(
        ctx.dist, _scores(ctx, [base.lam] + [m.lam for m in fits.models]),
        ctx.cp, "hinge")
    l1_0 = base.l1_norm()
    support = np.abs(base.lam) > 1e-8
    slacks, tags, trace = [], [], []
    gaps = (risks[1:] - risks[0]).tolist()
    for r, m, gap in zip(fits.r, fits.models, gaps):
        move = np.abs(m.lam - base.lam)
        trace.append((float(r), float(m.l1_norm()), gap))
        slacks += [l1_0 - m.l1_norm() + 1e-7,
                   float(move[support].sum() - move[~support].sum()) + 1e-7]
        tags += [f"l1 shrinkage at r={r:.6g}", f"support cone at r={r:.6g}"]
    if l1_0 <= 10.0:
        slacks.append(min(gaps[-1] - gaps[0] + 1e-12, 1e-3 - gaps[0]))
        tags.append(f"risk convergence: gap({fits.r[0]:.3g})={gaps[0]:.3g}")
    worst, witness = _worst_slack(slacks, tags.__getitem__)
    status = "pass" if worst >= 0.0 else "fail"
    return CheckReport("population_path_shrinkage", status, worst, witness,
                       {"trace": trace, "l1_at_zero": l1_0})


def check_plateau(fits):
    """Verify the exact small-penalty plateau of the population solution.

    Compares lambda(r) against lambda(0) along the PopulationPath fits in
    ascending r: the plateau extends while the l1 distance and the
    unpenalized objective gap both stay within 1e-6.
    """
    base = fits.base
    extent = first_break = None
    for r, m in zip(fits.r, fits.models):
        r = float(r)
        l1_dist = float(np.abs(m.lam - base.lam).sum())
        risk_gap = abs((m.objective - r * m.l1_norm()) - base.objective)
        if l1_dist <= 1e-6 and risk_gap <= 1e-6:
            extent = r
        else:
            first_break = r
            break
    if extent is None:
        return CheckReport(
            name="plateau", status="fail", slack=0.0,
            witness=f"solution moved already at r={first_break!r}",
        )
    tail = ("grid exhausted" if first_break is None
            else f"breaks by r={first_break!r}")
    return CheckReport(
        name="plateau", status="pass", slack=extent,
        witness=f"plateau verified through r={extent!r}; {tail}",
    )


def check_excess_domination(ctx, f_set=None, n_random=500, seed=0):
    """Excess reject-risk never exceeds excess surrogate risk.

    Compares E l(Yf) - E l(Y f0) with E phi(Yf) - E phi(Y f0) for each
    candidate score vector f (values per atom), both sides exact sums.
    The cost parameters' own tau constraint (d <= tau <= 1 - d) is exactly
    the range for which the domination holds.
    """
    if f_set is None:
        rng = np.random.default_rng(seed)
        f_set = rng.uniform(-3.0, 3.0, size=(n_random, ctx.dist.n_atoms))
    f_set = np.atleast_2d(np.asarray(f_set, dtype=float))
    ell_0 = bayes_risk(ctx.dist, ctx.cp)
    phi_0 = bayes_phi_risk(ctx.dist, ctx.cp)
    d_ell = population_risk(ctx.dist, f_set, ctx.cp, "reject") - ell_0
    d_phi = population_risk(ctx.dist, f_set, ctx.cp, "hinge") - phi_0
    worst, witness = _worst_slack(
        (d_phi - d_ell).tolist(),
        lambda k: f"f={np.array2string(f_set[k], precision=4)}")
    status = "pass" if worst >= -1e-12 else "fail"
    return CheckReport("excess_risk_domination", status, worst, witness,
                       {"n_checked": len(f_set)})
