"""Losses and decision rules for classification with a reject option.

A classifier may output +1, -1, or 0 ("no decision").  Rejecting costs d,
a wrong sign costs 1.  The discrete loss on a margin z = y * f(x) is

    reject_loss(z) = 1 if z < -tau,  d if |z| <= tau,  0 if z > tau,

and training optimizes the convex upper bound

    gen_hinge(z) = 1 - a z if z < 0,  1 - z if 0 <= z < 1,  0 if z >= 1,

with slope a = (1 - d) / d >= 1.  Two auxiliary ramp losses sandwich the
error and reject indicators for the data-driven rate bounds.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CostParams:
    """Rejection cost d in (0, 1/2] and threshold tau in [d, 1-d].

    The slope a = (1 - d) / d is worked out from d, not passed.
    """

    d: float
    tau: float = 0.5
    a: float = field(init=False)

    def __post_init__(self):
        d = float(self.d)
        if not 0.0 < d <= 0.5:
            raise ValueError(f"rejection cost d={d} outside (0, 0.5]")
        tau = float(self.tau)
        if not d <= tau <= 1.0 - d:
            raise ValueError(f"threshold tau={tau} outside [{d}, {1.0 - d}]")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "a", (1.0 - d) / d)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite-support joint law: atoms x_k with mass p_k and eta_k = P(Y=1|x_k)."""

    x: np.ndarray    # (k, dim)
    p: np.ndarray    # (k,)
    eta: np.ndarray  # (k,)

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        eta = np.atleast_1d(np.asarray(self.eta, dtype=float))
        if x.shape[0] != p.size or eta.size != p.size:
            raise ValueError("atoms, probabilities and eta must align")
        for name, values in (("x", x), ("p", p), ("eta", eta)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} contains non-finite values")
        if np.any(p <= 0):
            raise ValueError("atom probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        if np.any(eta < 0) or np.any(eta > 1):
            raise ValueError("eta values must lie in [0, 1]")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "eta", eta)

    @property
    def n_atoms(self):
        return self.p.size

    @property
    def dim(self):
        return self.x.shape[1]

    def omega(self):
        """Noise weight eta * (1 - eta) per atom."""
        return self.eta * (1.0 - self.eta)


def _as_float_array(z, name):
    z = np.asarray(z, dtype=float)
    if np.any(np.isnan(z)):
        raise ValueError(f"{name} contains NaN")
    return z


def gen_hinge(z, cp):
    """Generalized hinge: 1 - a z below 0, 1 - z on [0, 1), 0 from 1 on."""
    z = _as_float_array(z, "margin")
    out = np.where(z < 0.0, 1.0 - cp.a * z, np.maximum(1.0 - z, 0.0))
    return out if out.ndim else float(out)

def reject_loss(z, cp):
    """Discrete loss: 1 below -tau, d on [-tau, tau] (closed), 0 above tau."""
    z = _as_float_array(z, "margin")
    out = np.where(z < -cp.tau, 1.0, np.where(z <= cp.tau, cp.d, 0.0))
    return out if out.ndim else float(out)

def ramp_upper(z, tau, gamma):
    """Ramp from 1 at z <= -tau down to 0 at z >= -tau + gamma.

    Dominates the indicator of {z <= -tau} and is dominated by the indicator
    of {z <= -tau + gamma}; Lipschitz with constant 1/gamma.
    """
    if gamma <= 0:
        raise ValueError("ramp width gamma must be positive")
    z = _as_float_array(z, "margin")
    out = np.clip((gamma - tau - z) / gamma, 0.0, 1.0)
    return out if out.ndim else float(out)

def ramp_reject(z, tau, gamma):
    """Ramp equal to 1 on |z| < tau, falling linearly to 0 at |z| = tau + gamma."""
    if gamma <= 0:
        raise ValueError("ramp width gamma must be positive")
    z = _as_float_array(z, "margin")
    out = np.clip((tau + gamma - np.abs(z)) / gamma, 0.0, 1.0)
    return out if out.ndim else float(out)

def bayes_rule(eta, cp):
    """Optimal decision from eta: -1 below d, 0 on [d, 1-d], +1 above 1-d."""
    eta = _as_float_array(eta, "eta")
    out = np.where(eta < cp.d, -1.0, np.where(eta <= 1.0 - cp.d, 0.0, 1.0))
    return out if out.ndim else float(out)


_LOSSES = ("hinge", "reject", "ramp_upper", "ramp_reject")


def _loss_values(z, loss, cp, gamma):
    if loss == "hinge":
        return gen_hinge(z, cp)
    if loss == "reject":
        return reject_loss(z, cp)
    if gamma is None:
        raise ValueError(f"loss {loss!r} needs a ramp width gamma")
    if loss == "ramp_upper":
        return ramp_upper(z, cp.tau, gamma)
    if loss == "ramp_reject":
        return ramp_reject(z, cp.tau, gamma)
    raise ValueError(f"unknown loss {loss!r}; expected one of {_LOSSES}")


def population_risk(dist, f_values, cp, loss="hinge", gamma=None):
    """Exact E[loss(Y f(X))] over a finite-support distribution.

    f_values holds f at every atom, in atom order, and gives a float.  A
    (k, atoms) array holds k such rows and gives an array of k risks, each
    summed over its own contiguous row, so with the bits of that row's
    1-D call.
    """
    f = np.atleast_1d(np.asarray(f_values, dtype=float))
    if f.ndim > 2 or f.shape[-1] != dist.n_atoms:
        raise ValueError("f_values must hold one value per atom in each row")
    pos = _loss_values(f, loss, cp, gamma)
    neg = _loss_values(-f, loss, cp, gamma)
    risk = np.sum(dist.p * (dist.eta * pos + (1.0 - dist.eta) * neg), axis=-1)
    return float(risk) if f.ndim == 1 else risk


def bayes_risk(dist, cp):
    """Smallest achievable reject_loss risk: E[min(eta, 1 - eta, d)]."""
    return float(np.sum(dist.p * np.minimum(np.minimum(dist.eta, 1.0 - dist.eta), cp.d)))


def bayes_phi_risk(dist, cp):
    """Smallest achievable gen_hinge risk, attained by the same optimal rule.

    Pointwise the best value of eta*phi(z) + (1-eta)*phi(-z) is
    min(1, eta/d, (1-eta)/d) = min(eta, 1-eta, d) / d.
    """
    return bayes_risk(dist, cp) / cp.d
