"""Desk-scale synthetic studies scored against the exact population.

Two scenarios: widely separated Gaussians with many noise coordinates and a
sparse linear signal, and an overlapping 2-D Gaussian-mixture pair scored on
an RBF lattice.  Both samplers attach the exact conditional probability eta
to every sampled point.  A linear rule's margin on the Gaussian pair is
itself Gaussian, so that study's risks are computed in closed form; the
mixture map compares the fitted rule with the optimal rule read off eta.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import expit, logsumexp, ndtr

from .dictionary import build_linear, build_rbf_lattice, evaluate
from .evaluate import predict
from .losses import CostParams, bayes_rule
from .train import cross_validate, fit, walk_penalty_path

__all__ = [
    "ExperimentConfig",
    "gen_two_gaussian",
    "gen_mixture",
    "mixture_eta_density",
    "run_reject_vs_plain",
    "run_mixture_boundaries",
    "RESULT_COLUMNS",
    "GRID_COLUMNS",
]

RESULT_COLUMNS = (
    "scenario", "repetition", "r", "arm", "phi_risk", "ell_risk",
    "misclass", "reject", "excess_ell", "bayes_risk",
)
GRID_COLUMNS = ("x1", "x2", "eta", "density", "estimated", "optimal")

_SCENARIOS = ("two_gaussian", "mixture")

# fixed 2-D mixture: three isotropic components per class, equal weights,
# equal class priors; chosen so the classes overlap along a diagonal band
_POS_MEANS = np.array([[0.7, 0.9], [2.1, 1.1], [1.1, 2.3]])
_NEG_MEANS = np.array([[-0.7, -0.5], [0.3, -1.6], [-1.7, 0.5]])
_MIX_VAR = 0.45


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one synthetic study.

    n_test is validated but read by neither scenario: the Gaussian study is
    scored in closed form and the mixture map on a fixed grid.  It stays
    because config files pass it and perfbench reports rows per second
    from it.
    """

    scenario: str
    n_train: int = 100
    n_test: int = 100000
    M: int = 200
    d: float = 0.25
    tau: float = 0.5
    r_grid: tuple = field(
        default_factory=lambda: tuple(np.geomspace(0.005, 0.5, 7))
    )
    repetitions: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        ints = ("n_train", "n_test", "M", "repetitions", "seed")
        for name in ints + ("d", "tau"):
            kind = numbers.Integral if name in ints else numbers.Real
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {kind.__name__.lower()}")
        if self.scenario == "two_gaussian" and self.n_train % 2 != 0:
            raise ValueError("balanced design needs an even n_train")
        if self.n_train < 2 or self.n_test < 1 or self.repetitions < 1:
            raise ValueError("sample sizes and repetitions must be positive")
        grid = np.asarray(self.r_grid, dtype=float)
        if grid.size == 0 or not np.all(np.isfinite(grid) & (grid > 0.0)):
            raise ValueError("r_grid must be finite, positive and non-empty")


def gen_two_gaussian(n_per_class, M, seed):
    """Balanced sample from two unit-variance Gaussians in M dimensions.

    Class means are +/- (1/sqrt(2), 1/sqrt(2), 0, ..., 0); only the first
    two coordinates carry signal.  Returns (x, y, eta) with the exact
    conditional probability eta(x) = 1 / (1 + exp(-2 mu'x)), the posterior
    of the equal-prior two-Gaussian model.
    """
    if M < 2:
        raise ValueError("need at least two feature coordinates")
    rng = np.random.default_rng(seed)
    mu = np.zeros(M)
    mu[:2] = 1.0 / math.sqrt(2.0)
    x = np.empty((2 * n_per_class, M))
    x_pos, x_neg = x[:n_per_class], x[n_per_class:]
    rng.standard_normal(out=x_pos)
    x_pos += mu
    rng.standard_normal(out=x_neg)
    x_neg -= mu
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    eta = expit(2.0 * (x @ mu))
    return x, y, eta


def _log_mixture_density(x, means):
    # isotropic components, equal weights
    sq = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    log_norm = -math.log(len(means)) - math.log(2.0 * math.pi * _MIX_VAR)
    return logsumexp(-sq / (2.0 * _MIX_VAR), axis=1) + log_norm


def mixture_eta_density(x):
    """Exact eta(x) and marginal density of the fixed 2-D mixture pair."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    lp = _log_mixture_density(x, _POS_MEANS)
    ln = _log_mixture_density(x, _NEG_MEANS)
    eta = expit(lp - ln)
    density = 0.5 * np.exp(np.logaddexp(lp, ln))
    return eta, density


def gen_mixture(n, seed):
    """Sample from the fixed 2-D mixture pair; returns (x, y, eta)."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    comp = rng.integers(0, len(_POS_MEANS), size=n)
    means = np.where(y[:, None] > 0, _POS_MEANS[comp], _NEG_MEANS[comp])
    x = rng.normal(size=(n, 2)) * math.sqrt(_MIX_VAR) + means
    eta, _ = mixture_eta_density(x)
    return x, y, eta


def _gaussian_risks(m, s, cp, threshold):
    """Exact risks of a rule whose margin Z = y f is distributed N(m, s^2).

    The rule withholds where |f| <= threshold; threshold 0 decides by sign.
    Returns (phi, ell, misclass, reject): phi is the gen_hinge risk under
    cp, E(1 - Z)_+ + (a - 1) E(-Z)_+ with
    E(k - Z)_+ = (k - m) Phi((k - m)/s) + s phi((k - m)/s), and
    ell = misclass + cp.d * reject.  Phi is taken at the knots: -/+
    threshold for the decision, 0 and 1 for the hinge.  s = 0 is the zero
    rule f = 0, which withholds everywhere when threshold > 0 and otherwise
    decides +1 and errs on half the labels.
    """
    if s == 0.0:
        mis, rej = (0.0, 1.0) if threshold > 0.0 else (0.5, 0.0)
        return 1.0, mis + cp.d * rej, mis, rej
    u = (np.array([-threshold, threshold, 0.0, 1.0]) - m) / s
    cdf = ndtr(u)
    shortfall = s * (u * cdf + np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi))
    mis, rej = float(cdf[0]), float(cdf[1] - cdf[0])
    phi = float(shortfall[3] + (cp.a - 1.0) * shortfall[2])
    return phi, mis + cp.d * rej, mis, rej


def _two_gaussian_bayes_risk(d):
    """E[min(eta, 1 - eta, d)] under gen_two_gaussian.

    eta = expit(2t) with t = mu'x, and min(eta, 1 - eta) = expit(-2|t|)
    depends on |t| alone, whose law is that of |N(1, 1)| for either class.
    expit(-2|t|) exceeds d where |t| < b = ln((1 - d) / d) / 2, so that
    piece is d (Phi(b - 1) - Phi(-b - 1)), exact.  The two tails,
    expit(-2|t|) phi(t - 1) over [b, 13] and [-11, -b], where it is
    smooth, take a fixed 64-node Gauss-Legendre rule each; the sum agrees
    with adaptive quadrature of the whole integral within 1e-13 relative.
    """
    b = 0.5 * math.log((1.0 - d) / d)
    nodes, weights = leggauss(64)
    tails = 0.0
    for lo, hi in ((b, max(b, 13.0)), (min(-b, -11.0), -b)):
        half = 0.5 * (hi - lo)
        t = lo + half * (nodes + 1.0)
        tails += half * float(weights @ (expit(-2.0 * np.abs(t))
                                         * np.exp(-0.5 * (t - 1.0) ** 2)))
    return (d * float(ndtr(b - 1.0) - ndtr(-b - 1.0))
            + tails / math.sqrt(2.0 * math.pi))


def run_reject_vs_plain(config):
    """Compare the reject-option fit against a plain hinge fit.

    Per repetition and per grid r, both arms train on the same sample; the
    plain arm uses the symmetric hinge (a = 1) and decides by sign, so its
    reject rate is zero and its reported ell-risk equals its
    misclassification rate.  Both arms are scored exactly on the
    population, under the config's rejection cost d, with excess_ell
    measured from the optimal risk E[min(eta, 1-eta, d)].  Each arm walks
    the grid as one warm path from the largest r down (see
    walk_penalty_path); rows come out in grid order.  Returns rows in
    RESULT_COLUMNS order.
    """
    if config.scenario != "two_gaussian":
        raise ValueError("this study runs on the two_gaussian scenario")
    cp = CostParams(d=config.d, tau=config.tau)
    cp_plain = CostParams(d=0.5)
    dic = build_linear(config.M)
    bayes = _two_gaussian_bayes_risk(cp.d)
    seeds = np.random.SeedSequence(config.seed).generate_state(
        config.repetitions
    )

    rows = []
    for rep in range(config.repetitions):
        x_tr, y_tr, _ = gen_two_gaussian(
            config.n_train // 2, config.M, int(seeds[rep])
        )
        design = evaluate(dic, x_tr, y_tr)
        reject_fits, plain_fits = walk_penalty_path(
            config.r_grid,
            lambda r, path: fit(design, cp, r, dic=dic, path=path),
            lambda r, path: fit(design, cp_plain, r, dic=dic, path=path),
        )
        for r, reject_fit, plain_fit in zip(config.r_grid, reject_fits,
                                            plain_fits):
            for arm, model, arm_cp, threshold in (
                    ("reject", reject_fit, cp, cp.tau),
                    ("plain", plain_fit, cp_plain, 0.0)):
                # linear dictionary, class mean mu = (1, 1, 0, ...)/sqrt(2):
                # the margin y lam'x is N(mu'lam, |lam|^2) for either class
                phi, ell, mis, rej = _gaussian_risks(
                    model.lam[:2].sum() / math.sqrt(2.0),
                    np.linalg.norm(model.lam), arm_cp, threshold)
                rows.append(dict(zip(RESULT_COLUMNS, (
                    config.scenario, rep, float(r), arm, phi, ell, mis, rej,
                    ell - bayes, bayes))))
    return rows


def run_mixture_boundaries(config, grid_shape=(50, 50), folds=10):
    """Fit the mixture scenario on an RBF lattice and map its decisions.

    Trains once (penalty picked by cross-validation over config.r_grid),
    then labels the centers of a grid_shape grid over the training bounding
    box with the fitted rule and with the optimal rule (+1 where
    eta > 1 - d, -1 where eta < d, withhold between).  Each row also carries
    the exact mixture density at the cell center, so callers can focus on
    cells that carry data mass.  Returns (rows, info) with rows in
    GRID_COLUMNS order and info holding r_star and the fitted model.
    """
    if config.scenario != "mixture":
        raise ValueError("this study runs on the mixture scenario")
    cp = CostParams(d=config.d, tau=config.tau)
    seeds = np.random.SeedSequence(config.seed).generate_state(1)
    x_tr, y_tr, _ = gen_mixture(config.n_train, int(seeds[0]))
    lo, hi = x_tr.min(axis=0), x_tr.max(axis=0)
    dic = build_rbf_lattice((10, 10), lo, hi, beta=2.0)
    design = evaluate(dic, x_tr, y_tr)
    grid = np.asarray(config.r_grid, dtype=float)
    r_star, cv_table = cross_validate(design, cp, grid, folds=folds)
    model = fit(design, cp, float(r_star), dic=dic)

    nx, ny = grid_shape
    cx = lo[0] + (np.arange(nx) + 0.5) * (hi[0] - lo[0]) / nx
    cy = lo[1] + (np.arange(ny) + 0.5) * (hi[1] - lo[1]) / ny
    xx, yy = np.meshgrid(cx, cy, indexing="ij")
    cells = np.column_stack([xx.ravel(), yy.ravel()])
    eta, density = mixture_eta_density(cells)
    estimated = predict(model, cells)[0]
    optimal = bayes_rule(eta, cp)
    rows = [
        {
            "x1": float(cells[i, 0]),
            "x2": float(cells[i, 1]),
            "eta": float(eta[i]),
            "density": float(density[i]),
            "estimated": float(estimated[i]),
            "optimal": float(optimal[i]),
        }
        for i in range(len(cells))
    ]
    info = {"r_star": float(r_star), "model": model, "cv_table": cv_table}
    return rows, info
