"""Shared fixtures and generators used across the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linprog
from scipy.sparse.linalg import splu

from rejectsvm.constants import PIVOT_TOL
from rejectsvm.dictionary import DesignMatrix, build_linear, evaluate
from rejectsvm.losses import CostParams, DiscreteDistribution
from rejectsvm.lp import LinearProgram, LpPath


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


def crash_basis(n, M, cp, mixed=0):
    """The crash basis train starts a hinge LP from (lambda = 0, t = 1).

    Where a != 1 every point has two middle rows: t is basic in rows
    n..2n-1 and surpluses, at 0, in rows 0..n-1.  Where a = 1 the two are
    one, rows 0..n-1, with t basic.  Surpluses are basic, above 0, in the
    2 * mixed outer rows of the points with 0 < eta < 1, which come last.
    M is the number of features.
    """
    nvar = 2 * M + n
    steep = n if cp.a != 1.0 else 0
    return np.concatenate([nvar + np.arange(steep), 2 * M + np.arange(n),
                           nvar + steep + n + np.arange(2 * mixed)])


def factored_start(A, b, basis):
    """The condensed tableau B^-1 [N | b] of a basis, by a sparse LU.

    The oracle for the starts the package writes without a factor: the
    nonbasic columns N in column order, basic values in [-PIVOT_TOL, 0)
    set to 0, and a cost row of zeros.  Returns (tableau, nonbasic).
    """
    m, ncols = A.shape
    nonbasic = np.ones(ncols, dtype=bool)
    nonbasic[basis] = False
    nonbasic = np.flatnonzero(nonbasic)
    rhs = np.empty((m, nonbasic.size + 1), order="F")
    A[:, nonbasic].toarray(out=rhs[:, :-1])
    rhs[:, -1] = b
    body = splu(A[:, basis]).solve(rhs)
    x_b = body[:, -1]
    np.clip(x_b, 0.0, None, out=x_b, where=x_b >= -PIVOT_TOL)
    T = np.zeros((m + 1, nonbasic.size + 1), order="F")
    T[:m] = body
    return T, nonbasic


def seeded_path(lp, form, tableau, basis, nonbasic):
    """An LpPath seeded, as train seeds one, with a start for lp."""
    path = LpPath()
    path.program, path.form = lp, form
    path.tableau, path.basis, path.nonbasic = tableau, basis, nonbasic
    return path


def within_highs(ours, data, cp, r, dic=None):
    """Whether ours is HiGHS's optimum of the penalized hinge risk.

    The program is assemble_lp's, of the labeled design data, or of the
    distribution data under the dictionary dic, with its bounds.  HiGHS's
    own tolerance is 1e-7, and ours is an exact vertex, so ours may lie at
    most 1e-7 below HiGHS's value and 1e-9 above it, relative to
    1 + |HiGHS's value|.
    """
    lp = assemble_lp(data, cp, r, dic)
    res = linprog(lp.objective, A_ub=-lp.rows, b_ub=-lp.rhs,
                  bounds=list(zip(lp.lower, lp.upper)), method="highs")
    assert res.status == 0, res.message
    gap = (ours - res.fun) / (1.0 + abs(res.fun))
    return -1e-7 <= gap <= 1e-9


def assemble_lp(data, cp, r, dic=None):
    """Slack-variable LP for the penalized hinge risk, the reference build.

    data is a labeled design, each sample of weight 1/n, or a distribution,
    whose atoms dic evaluates, each once per label y of positive weight:
    p eta for y = +1 and p (1 - eta) for y = -1.  Variables are
    [lambda (free), xi_1..xi_K, xi_{K+1}..xi_{K+M}] with xi_k covering the
    hinge of the k-th weighted sample or atom copy (xi_k >= 0,
    >= 1 - y_k h_k, >= 1 - a y_k h_k) and xi_{K+j} covering |lambda_j|.
    The objective, weights . xi_{1..K} + r sum xi_{K+j}, equals the
    penalized risk at the optimum, so it must agree with train's programs.
    """
    if dic is None:
        phi, y = data.phi, data.y
        weight = np.full(data.n, 1.0 / data.n)
    else:
        atoms = evaluate(dic, data.x).phi
        copies = np.concatenate([data.p * data.eta, data.p * (1.0 - data.eta)])
        keep = np.flatnonzero(copies > 0.0)
        phi = np.concatenate([atoms, atoms])[keep]
        y = np.repeat([1.0, -1.0], data.n_atoms)[keep]
        weight = copies[keep]
    n, M = phi.shape
    yphi = y[:, None] * phi
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
    objective = np.concatenate([np.zeros(M), weight, np.full(M, r)])
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


def loaded_modules(code, *packages):
    """The modules of the dotted packages that a fresh process loads.

    code runs in a new interpreter with this checkout's src first on its
    path, as a command or a benchmark runs it.  A package counts with its
    submodules.  Returns their names, sorted.
    """
    probe = (f"{code}\nimport sys\n"
             f"print(*sorted(m for m in sys.modules if any(\n"
             f"    m == p or m.startswith(p + '.') for p in {packages!r})))\n")
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


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
