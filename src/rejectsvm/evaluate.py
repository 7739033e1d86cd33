"""Reject-aware prediction, risk reports, and data-driven rate bounds."""

from dataclasses import dataclass

import numpy as np

from .dictionary import evaluate as _evaluate_dictionary
from .losses import gen_hinge, reject_loss
from .train import concentration_bracket

__all__ = [
    "RiskReport",
    "BoundReport",
    "predict",
    "margins",
    "risk_report",
    "report_from_margins",
    "rate_r",
    "default_gamma_grid",
    "bounds",
]


@dataclass(frozen=True)
class RiskReport:
    """Empirical risks of a fitted classifier on one labelled sample.

    misclass_rate counts margins strictly below -tau and reject_rate counts
    |margin| <= tau, the same conventions the piecewise loss uses, so
    ell_risk == misclass_rate + d * reject_rate exactly.
    """

    phi_risk: float
    ell_risk: float
    misclass_rate: float
    reject_rate: float
    n_eval: int


@dataclass(frozen=True)
class BoundReport:
    """High-probability upper bounds on the error and reject rates.

    Each bound is empirical + penalty + tail evaluated at its own best ramp
    width from the searched grid; components_* keeps that split.
    """

    bound_misclass: float
    bound_reject: float
    gamma_star_misclass: float
    gamma_star_reject: float
    components_misclass: tuple
    components_reject: tuple
    delta: float
    p: float


def margins(model, x):
    """Raw scores f(x) of a fitted model on feature rows x."""
    if model.dic is None:
        raise ValueError("model carries no dictionary; cannot score raw inputs")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    phi = _evaluate_dictionary(model.dic, x).phi
    return phi @ model.lam


def predict(model, x):
    """Classify feature rows: returns (decisions, margins).

    Decisions are -1, 0, +1 floats; 0 (withhold) exactly when the margin
    does not exceed tau in absolute value.
    """
    f = margins(model, x)
    dec = np.where(np.abs(f) <= model.cp.tau, 0.0, np.sign(f))
    return dec, f


def report_from_margins(yf, f, cp, n_eval):
    """Build a RiskReport from precomputed margins yf (and raw f)."""
    tau = cp.tau
    phi = float(np.mean(gen_hinge(yf, cp)))
    ell = float(np.mean(reject_loss(yf, cp)))
    mis = float(np.mean(yf < -tau))
    rej = float(np.mean(np.abs(f) <= tau))
    return RiskReport(phi, ell, mis, rej, int(n_eval))


def risk_report(model, x, y):
    """Empirical phi- and reject-risk of model on labelled rows (x, y)."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("cannot report risks on an empty sample")
    f = margins(model, x)
    return report_from_margins(y * f, f, model.cp, y.size)


def rate_r(gamma, n, M, c_f, delta, p=1.0):
    """Smallest admissible penalty rate for ramp width gamma.

    C_F / gamma * ( 9 sqrt(2 ln(2 max(M,n)) / n)
                    + 2 p log2(n) / sqrt(2 max(M,n))
                    + sqrt(2 ln(1/delta) / n) )

    Homogeneous of degree -1 in gamma.
    """
    if gamma <= 0.0:
        raise ValueError("ramp width gamma must be positive")
    return c_f / gamma * concentration_bracket(n, M, delta, p)


def default_gamma_grid():
    """The 25 log-spaced ramp widths, 0.02 to 2, that bounds() searches."""
    return np.geomspace(0.02, 2.0, 25)


def bounds(model, x, y, delta=0.05, p=1.0):
    """Data-driven upper bounds on the true error and reject rates.

    For each width gamma of default_gamma_grid(), fixed before the data
    are seen, the candidate bound is the training rate of margins within
    gamma of the threshold plus rate_r(gamma) * ||lam||_1; the minimum over
    the grid plus n^-p upper-bounds the corresponding true rate with
    probability at least 1 - delta.  Any single grid point already yields
    a valid bound, so the grid search only tightens the result.
    """
    gamma_grid = default_gamma_grid()
    y = np.asarray(y, dtype=float)
    f = margins(model, x)
    yf = y * f
    n = y.size
    tau = model.cp.tau
    l1 = model.l1_norm()

    emp_mis = np.array([np.mean(yf <= -tau + g) for g in gamma_grid])
    emp_rej = np.array([np.mean(np.abs(f) <= tau + g) for g in gamma_grid])
    M = len(model.lam)
    # rate_r refuses a p that is not finite and > 0 before n^-p is taken
    penalty = np.array(
        [rate_r(g, n, M, model.c_f, delta, p) * l1 for g in gamma_grid]
    )
    tail = float(n) ** (-p)

    def side(emp):
        k = int(np.argmin(emp + penalty))
        comp = (float(emp[k]), float(penalty[k]), tail)
        return float(gamma_grid[k]), comp, float(emp[k] + penalty[k] + tail)

    g_mis, comp_mis, total_mis = side(emp_mis)
    g_rej, comp_rej, total_rej = side(emp_rej)
    return BoundReport(
        bound_misclass=total_mis,
        bound_reject=total_rej,
        gamma_star_misclass=g_mis,
        gamma_star_reject=g_rej,
        components_misclass=comp_mis,
        components_reject=comp_rej,
        delta=delta,
        p=p,
    )
