"""Warm-started penalty paths: state safety and a HiGHS oracle at study size."""

import numpy as np
import pytest
from scipy.optimize import linprog

from rejectsvm import lp as lp_module
from rejectsvm import train
from rejectsvm.dictionary import build_linear, build_rbf_lattice, evaluate
from rejectsvm.losses import CostParams, DiscreteDistribution
from rejectsvm.lp import LpPath, solve_lp
from rejectsvm.sim import ExperimentConfig, gen_two_gaussian
from rejectsvm.theory import make_context, population_path
from rejectsvm.train import fit, fit_population, split_lp, walk_penalty_path

from helpers import crash_basis, random_design

CP = CostParams(d=0.25, tau=0.5)
CP_PLAIN = CostParams(d=0.5)


@pytest.fixture
def solutions(monkeypatch):
    """Every LpSolution that train.solve_lp returns, in call order."""
    seen = []

    def recording(*args, **kwargs):
        sol = solve_lp(*args, **kwargs)
        seen.append(sol)
        return sol

    monkeypatch.setattr(train, "solve_lp", recording)
    return seen


def _same_fit(a, b):
    return a.lam.tobytes() == b.lam.tobytes() and a.iterations == b.iterations


def test_fit_without_state_is_the_crash_basis_solve():
    design = random_design(np.random.default_rng(4), 30, 8)
    M = design.M
    for r in (0.02, 0.2):
        model = fit(design, CP, r)
        sol = solve_lp(split_lp(design, CP, r),
                       initial_basis=crash_basis(design.n, M))
        lam = sol.x[:M] - sol.x[M:2 * M]
        assert model.lam.tobytes() == lam.tobytes()
        assert model.iterations == sol.iterations
        # a fresh state is a path of one r
        assert _same_fit(fit(design, CP, r, path=LpPath()), model)


def test_state_for_another_design_or_cost_is_ignored(solutions):
    rng = np.random.default_rng(8)
    design, other = random_design(rng, 30, 8), random_design(rng, 30, 8)
    for first, second, cp in ((design, other, CP), (design, design, CP_PLAIN)):
        path = LpPath()
        fit(first, CP, 0.3, path=path)
        model = fit(second, cp, 0.1, path=path)
        assert not solutions[-1].warm
        assert _same_fit(model, fit(second, cp, 0.1))


def test_program_edited_in_place_is_not_matched():
    design = random_design(np.random.default_rng(6), 20, 5)
    lp = split_lp(design, CP, 0.1)
    path = LpPath()
    solve_lp(lp, path=path)
    lp.rows[0, 0] += 0.5
    again = solve_lp(lp, path=path)
    assert not again.warm
    fresh = solve_lp(split_lp(design, CP, 0.1), path=path)
    assert not fresh.warm  # the state now belongs to the edited program


def test_repeated_r_reprices_without_pivots(solutions, monkeypatch):
    design = random_design(np.random.default_rng(3), 30, 8)
    path = LpPath()
    first = fit(design, CP, 0.05, path=path)
    factors = []
    real = lp_module.splu

    def counting(B):
        factors.append(1)
        return real(B)

    monkeypatch.setattr(lp_module, "splu", counting)
    again = fit(design, CP, 0.05, path=path)
    assert solutions[-1].warm and again.iterations == 0
    assert not factors  # the kept basic solution is reused, not solved for
    # same basis, so the same restored vertex, bit for bit
    assert again.lam.tobytes() == first.lam.tobytes()
    assert repr(again.objective) == repr(first.objective)


def test_walk_returns_grid_order_and_starts_at_the_largest_r():
    calls = []

    def solver(r, path):
        calls.append(r)
        return r

    grid = [0.3, 0.01, 1.0, 0.1]
    assert walk_penalty_path(grid, solver) == [grid]
    assert calls == sorted(grid, reverse=True)


def _within_highs(ours, ref):
    # HiGHS's own tolerance is 1e-7; ours is an exact vertex
    gap = (ours - ref) / (1.0 + abs(ref))
    return -1e-7 <= gap <= 1e-9


def _highs(objective, rows, rhs):
    res = linprog(objective, A_ub=-rows, b_ub=-rhs, bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def test_study_paths_match_highs(solutions):
    config = ExperimentConfig("two_gaussian", repetitions=1)
    dic = build_linear(config.M)
    design = evaluate(dic, *gen_two_gaussian(config.n_train // 2, config.M,
                                             2024)[:2])
    grid = np.asarray(config.r_grid)
    total_path_pivots = 0

    def step(r, path):
        model = fit(design, cp, r, dic=dic, path=path)
        # the kept tableau is condensed: B^-1 [N | b] and the cost row
        m, ncols = path.form[0].shape
        assert path.tableau.shape == (m + 1, ncols - m + 1)
        assert np.array_equal(np.sort(np.concatenate([path.basis,
                                                      path.nonbasic])),
                              np.arange(ncols))
        return model

    for cp in (CP, CP_PLAIN):
        del solutions[:]
        models = walk_penalty_path(grid, step)[0]
        # the walk ran from the largest r down, each later step warm
        assert [s.warm for s in solutions] == [False] + [True] * 6
        for r, model in zip(grid, models):
            lp = split_lp(design, cp, r)
            assert _within_highs(model.objective,
                                 _highs(lp.objective, lp.rows, lp.rhs))
        path_pivots = sum(m.iterations for m in models)
        cold_pivots = sum(fit(design, cp, r).iterations for r in grid)
        assert path_pivots < cold_pivots
        total_path_pivots += path_pivots
    # 705 pivots for both arms when written
    assert total_path_pivots <= 1000


def _population_highs(dist, phi, cp, r):
    """Population LP over [u, v, t, s] built here, apart from train."""
    k, M = phi.shape
    rows = np.zeros((4 * k, 2 * M + 2 * k))
    for block, (sign, slope) in enumerate(
            [(1.0, 1.0), (1.0, cp.a), (-1.0, 1.0), (-1.0, cp.a)]):
        sl = slice(block * k, (block + 1) * k)
        rows[sl, :M] = sign * slope * phi
        rows[sl, M:2 * M] = -sign * slope * phi
        col = 2 * M + (0 if block < 2 else k)
        rows[sl, col:col + k] = np.eye(k)
    objective = np.concatenate([np.full(2 * M, r), dist.p * dist.eta,
                                dist.p * (1.0 - dist.eta)])
    return _highs(objective, rows, np.ones(4 * k))


def test_population_path_matches_highs(solutions):
    rng = np.random.default_rng(11)
    x = rng.uniform(-2.0, 2.0, size=(200, 2))
    p = rng.uniform(0.5, 1.5, size=200)
    eta = 1.0 / (1.0 + np.exp(-2.0 * (x[:, 0] + 0.5 * x[:, 1])
                              - 0.3 * rng.normal(size=200)))
    dist = DiscreteDistribution(x=x, p=p / p.sum(), eta=eta)
    dic = build_rbf_lattice((6, 6), x.min(axis=0), x.max(axis=0))
    phi = evaluate(dic, x).phi
    grid = np.geomspace(0.002, 0.6, 6)
    fits = population_path(make_context(dist, dic, CP), grid)
    # the grid and then the r = 0 anchor are one warm path; the third step
    # ends in a dual repair, which clears the path, so the fourth restarts
    # from the crash basis
    assert [s.warm for s in solutions] == [False, True, True, False, True,
                                           True, True]
    assert list(fits.r) == sorted(grid)
    path = [(0.0, fits.base)] + list(zip(fits.r, fits.models))
    for r, model in path:
        assert _within_highs(model.objective,
                             _population_highs(dist, phi, CP, r))
    # 922 pivots when written
    assert sum(model.iterations for _, model in path) <= 1000


def test_population_fit_with_zero_weight_atoms_matches_highs():
    # eta in {0, 1} at a third of the atoms: one of their two hinge slacks
    # costs nothing in the LP
    rng = np.random.default_rng(5)
    x = rng.uniform(-2.0, 2.0, size=(60, 2))
    eta = 1.0 / (1.0 + np.exp(-2.0 * x[:, 0]))
    eta[:10], eta[10:20] = 0.0, 1.0
    p = rng.uniform(0.5, 1.5, size=60)
    dist = DiscreteDistribution(x=x, p=p / p.sum(), eta=eta)
    dic = build_rbf_lattice((4, 4), x.min(axis=0), x.max(axis=0))
    phi = evaluate(dic, x).phi
    for r in (0.0, 0.01, 0.1):
        model = fit_population(dist, dic, CP, r)
        assert _within_highs(model.objective,
                             _population_highs(dist, phi, CP, r))
