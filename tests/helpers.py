"""Shared fixtures and generators used across the test modules."""

import numpy as np
from scipy.optimize import linprog

from rejectsvm.dictionary import DesignMatrix, build_linear
from rejectsvm.losses import CostParams, DiscreteDistribution
from rejectsvm.lp import LinearProgram


def random_lp(rng, max_vars=6, max_cons=8):
    """A random general-form LP small enough for the enumeration oracle.

    Equality rows are capped below the variable count so every instance
    keeps at least one degree of freedom for the vertex search.
    """
    nv = int(rng.integers(1, max_vars + 1))
    mc = int(rng.integers(1, max_cons + 1))
    A = np.round(rng.normal(size=(mc, nv)) * 2, 1)
    b = np.round(rng.normal(size=mc) * 2, 1)
    relations = rng.choice(["<=", ">=", "="], size=mc, p=[0.5, 0.3, 0.2]).tolist()
    if sum(s == "=" for s in relations) >= nv:
        relations = ["<=" if s == "=" else s for s in relations]
    c = np.round(rng.normal(size=nv) * 2, 1)
    lower = np.where(rng.random(nv) < 0.6, 0.0, -np.inf)
    lower = np.where(rng.random(nv) < 0.25, -1.5, lower)
    upper = np.where(rng.random(nv) < 0.5, rng.uniform(0.5, 3.0, nv), np.inf)
    return LinearProgram(objective=c, rows=A, relations=relations, rhs=b,
                         lower=lower, upper=upper)


def crash_basis(n, M, mixed=0):
    """The crash basis train starts a hinge LP from (lambda = 0, t = 1).

    t is basic in rows n..2n-1 and surpluses in the other rows: at 0 in
    rows 0..n-1 and above 0 in the 2 * mixed outer rows of the points with
    0 < eta < 1.  M is the number of features.
    """
    nvar = 2 * M + n
    return np.concatenate([nvar + np.arange(n), 2 * M + np.arange(n),
                           nvar + 2 * n + np.arange(2 * mixed)])


def within_highs(ours, objective, rows, rhs):
    """Whether ours is HiGHS's optimum of the program over x >= 0.

    The program minimizes objective . x subject to rows x >= rhs.  HiGHS's
    own tolerance is 1e-7, and ours is an exact vertex, so ours may lie at
    most 1e-7 below HiGHS's value and 1e-9 above it, relative to
    1 + |HiGHS's value|.
    """
    res = linprog(objective, A_ub=-rows, b_ub=-rhs, bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    gap = (ours - res.fun) / (1.0 + abs(res.fun))
    return -1e-7 <= gap <= 1e-9


def assemble_lp(design, cp, r):
    """Slack-variable LP for the penalized empirical risk, the reference build.

    Variables are [lambda (free), xi_1..xi_n, xi_{n+1}..xi_{n+M}] with
    xi_i covering the hinge at sample i (xi_i >= 0, >= 1 - y_i h_i,
    >= 1 - a y_i h_i) and xi_{n+j} covering |lambda_j|.  The objective
    (1/n) sum xi_i + r sum xi_{n+j} equals the penalized risk at the optimum,
    so it must agree with train.split_lp's.
    """
    n, M = design.n, design.M
    yphi = design.y[:, None] * design.phi
    nvar = M + n + M
    rows = np.zeros((2 * n + 2 * M, nvar))
    rows[:n, :M] = yphi
    rows[:n, M:M + n] = np.eye(n)
    rows[n:2 * n, :M] = cp.a * yphi
    rows[n:2 * n, M:M + n] = np.eye(n)
    rows[2 * n:2 * n + M, :M] = -np.eye(M)
    rows[2 * n:2 * n + M, M + n:] = np.eye(M)
    rows[2 * n + M:, :M] = np.eye(M)
    rows[2 * n + M:, M + n:] = np.eye(M)
    rhs = np.concatenate([np.ones(2 * n), np.zeros(2 * M)])
    objective = np.concatenate([np.zeros(M), np.full(n, 1.0 / n), np.full(M, r)])
    lower = np.concatenate([np.full(M, -np.inf), np.zeros(n + M)])
    return LinearProgram(objective, rows, [">="] * (2 * n + 2 * M), rhs, lower=lower)


def random_design(rng, n, M):
    phi = np.round(rng.normal(size=(n, M)), 2)
    y = rng.choice([-1.0, 1.0], size=n)
    return DesignMatrix(phi=phi, y=y)


def random_distribution(rng, k=None, dim=2):
    """Random finite-support distribution with masses summing exactly to 1."""
    if k is None:
        k = int(rng.integers(2, 7))
    x = rng.normal(size=(k, dim))
    w = rng.random(k) + 0.05
    p = w / w.sum()
    p[-1] = 1.0 - p[:-1].sum()  # close the telescoping sum exactly
    eta = rng.random(k)
    return DiscreteDistribution(x=x, p=p, eta=eta)


def hex_bits(values):
    """float.hex of each value: equal lists hold bit-identical floats."""
    return [float.hex(float(v)) for v in values]


def logistic_atoms(seed, atoms=200):
    """Atoms uniform on [-2, 2]^2 with random masses and a noisy logistic eta.

    The distributions of the diagnose benchmark are drawn the same way.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(atoms, 2))
    p = rng.uniform(0.5, 1.5, size=atoms)
    eta = 1.0 / (1.0 + np.exp(-2.0 * (x[:, 0] + 0.5 * x[:, 1])
                              - 0.3 * rng.normal(size=atoms)))
    return DiscreteDistribution(x=x, p=p / p.sum(), eta=eta)


def plateau_fixture():
    """Three collinear-feature atoms whose population solution is (1, 0).

    The middle atom is pure noise (eta = 1/2) so the optimal rule rejects
    it, and the outer atoms force the first coordinate to 1.  Unique
    minimizer, known Bayes risks, and a wide exact plateau in r.
    """
    dist = DiscreteDistribution(
        x=np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
        p=np.array([1.0, 1.0, 1.0]) / 3.0,
        eta=np.array([0.1, 0.5, 0.9]),
    )
    dic = build_linear(2)
    cp = CostParams(d=0.25, tau=0.5)
    return dist, dic, cp
