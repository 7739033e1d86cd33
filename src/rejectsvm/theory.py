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
    bayes_rule,
    gen_hinge,
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

    gap is the smallest distance from an atom's eta to a threshold.
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


def complexity_estimate(dist, d):
    """Fit the margin exponent of eta around the thresholds d and 1 - d.

    P(t) = P{|eta - d| <= t} and P{|eta - (1-d)| <= t} are exact step
    functions, each read off one cumulative sum of the masses sorted by
    distance.  An atom exactly on a threshold forces alpha = 0 (with
    a_const = 1).  Otherwise alpha is the log-log least-squares slope of the
    binding probability over the 25 widths from 1e-3 to 1/2 at which it is
    positive, and a_const the exact maximum of P(t) / t**alpha over the
    jumps of P, clipped to >= 1: valid for all t > 0.  d must lie in
    (0, 1/2]; then every eta in [0, 1] lies within 1/2 of d or of 1 - d, so
    the widest width captures every atom.
    """
    if not 0.0 < d <= 0.5:
        raise ValueError(f"rejection cost d={d} outside (0, 0.5]")
    widths = np.geomspace(1e-3, 0.5, 25)
    g_low = np.abs(dist.eta - d)
    g_high = np.abs(dist.eta - (1.0 - d))
    gap = float(min(g_low.min(), g_high.min()))
    if gap == 0.0:
        return ComplexityEstimate(0.0, 1.0, 0.0)
    # per threshold: the sorted distances s, and mass[i] = P(t) for t in
    # [s[i-1], s[i])
    steps = []
    for dists in (g_low, g_high):
        order = np.argsort(dists, kind="stable")
        steps.append((dists[order], np.cumsum(np.append(0.0, dist.p[order]))))
    binding = np.maximum(*(mass[np.searchsorted(s, widths, side="right")]
                           for s, mass in steps))
    live = binding > 0.0
    alpha = 0.0
    if live.sum() >= 2:
        slope = np.polyfit(np.log(widths[live]), np.log(binding[live]), 1)[0]
        alpha = max(float(slope), 0.0)
    a_const = 1.0
    for s, mass in steps:
        jump = np.append(s[1:] != s[:-1], True)  # last of each distance
        a_const = max(a_const, float(np.max(mass[1:][jump] / s[jump]**alpha)))
    return ComplexityEstimate(alpha, a_const, gap)


def check_lemma_a1(ctx, lam_set=None, seed=0):
    """Excess-risk lower bound on the weighted norm, checked per atom.

    For each candidate coefficient vector the check compares
    ||f_lam - f0||^(2+2a) against 4 A (2d)^a ||f_lam - f0||_inf^(2+a)
    (excess phi-risk)^a with (a, A) from complexity_estimate.  Without
    lam_set the candidates are 200 vectors drawn N(0, 4) from seed.
    """
    est = complexity_estimate(ctx.dist, ctx.cp.d)
    if lam_set is None:
        rng = np.random.default_rng(seed)
        lam_set = rng.normal(scale=2.0, size=(200, ctx.phi.shape[1]))
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
    Each fit is fit_population's piecewise-linear program, one row per
    atom, and each step after the first starts from the tableau the last
    one kept, with only lambda's slopes re-costed.  The result serves both
    check_prop21 and check_plateau, so neither solves a fit twice.
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


def check_excess_domination(ctx):
    """Excess reject-risk never exceeds excess surrogate risk, for any f.

    Both excess risks are atom sums, so the infimum over f of their gap is
    sum_k p_k (min_z h_k(z) - h_k(f0_k)), with h_k(z) = eta phi(z) + (1-eta)
    phi(-z) - [eta l(z) + (1-eta) l(-z)].  h_k is linear between -1, -tau,
    0, tau and 1 and grows away from 0 outside +-1, so its infimum is its
    least value at those five margins, l taking its larger one-sided value
    at +-tau.  The slack is that exact infimum, 0 to rounding whenever
    d <= tau <= 1 - d; the witness names the atom of the most negative term.
    """
    eta, d, tau = ctx.dist.eta, ctx.cp.d, ctx.cp.tau
    margins = np.array([[-1.0], [-tau], [0.0], [tau], [1.0]])
    surrogate = eta * gen_hinge(margins, ctx.cp) \
        + (1.0 - eta) * gen_hinge(-margins, ctx.cp)
    reject = np.array([eta, np.maximum(eta, d), np.full_like(eta, d),
                       np.maximum(d, 1.0 - eta), 1.0 - eta])
    gaps = surrogate - reject  # (margins, atoms)
    at_f0 = gaps[2 * ctx.f0_values.astype(int) + 2, np.arange(eta.size)]
    terms = ctx.dist.p * (gaps.min(axis=0) - at_f0)
    k = int(np.argmin(terms))
    label = ("-1", "-tau", "0", "tau", "1")[int(np.argmin(gaps[:, k]))]
    witness = (f"atom {k} (eta={eta[k]:.6g}): least at f={label}, "
               f"optimal rule f0={ctx.f0_values[k]:g}")
    slack = float(np.sum(terms))
    status = "pass" if slack >= -1e-12 else "fail"
    return CheckReport("excess_risk_domination", status, slack, witness)
