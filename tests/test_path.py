"""Warm-started penalty paths: state safety and a HiGHS oracle at study size."""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from rejectsvm import lp as lp_module
from rejectsvm import train
from rejectsvm.constants import PIVOT_TOL
from rejectsvm.dictionary import build_linear, build_rbf_lattice, evaluate
from rejectsvm.losses import CostParams, DiscreteDistribution
from rejectsvm.lp import LinearProgram, LpPath, solve_lp
from rejectsvm.sim import ExperimentConfig, gen_two_gaussian
from rejectsvm.theory import make_context, population_path
from rejectsvm.train import fit, fit_population, split_lp, walk_penalty_path

from helpers import (
    random_design,
    seeded_path,
    standard_matrix,
    within_highs,
)

CP = CostParams(d=0.25, tau=0.5)
CP_PLAIN = CostParams(d=0.5)


@pytest.fixture
def solutions(monkeypatch):
    """Every LpSolution that train.solve_lp returns, in call order; each
    solution's start is the basis array its path held when the solve
    began."""
    seen = []

    def recording(lp, path):
        start = path.basis
        sol = solve_lp(lp, path=path)
        sol.start = start
        seen.append(sol)
        return sol

    monkeypatch.setattr(train, "solve_lp", recording)
    return seen


@pytest.fixture
def crashes(monkeypatch):
    """The basis array of each crash start train writes, in call order."""
    made = []
    real = train._crash_start

    def recording(*args):
        start = real(*args)
        made.append(start[1])
        return start

    monkeypatch.setattr(train, "_crash_start", recording)
    return made


def _starts(solutions, crashes):
    """Per solve, which crash start it started from: the basis array a
    path keeps is the one its first fit wrote, pivoted in place (a tableau
    is reallocated whenever a solve narrows or widens it)."""
    return [next(k for k, basis in enumerate(crashes) if s.start is basis)
            for s in solutions]


def _same_fit(a, b):
    return a.lam.tobytes() == b.lam.tobytes() and a.iterations == b.iterations


def test_fit_without_state_is_the_crash_basis_solve():
    design = random_design(np.random.default_rng(4), 30, 8)
    M = design.M
    for r in (0.02, 0.2):
        model = fit(design, CP, r)
        lp = split_lp(design, CP, r)
        sol = solve_lp(lp, path=seeded_path(lp, *train._crash_start(lp, M)))
        lam = sol.x[:M] - sol.x[M:2 * M]
        assert model.lam.tobytes() == lam.tobytes()
        assert model.iterations == sol.iterations
        # a fresh state is a path of one r
        assert _same_fit(fit(design, CP, r, path=LpPath()), model)


def test_state_for_another_design_or_cost_is_ignored(solutions, crashes):
    rng = np.random.default_rng(8)
    design, other = random_design(rng, 30, 8), random_design(rng, 30, 8)
    for first, second, cp in ((design, other, CP), (design, design, CP_PLAIN)):
        path = LpPath()
        fit(first, CP, 0.3, path=path)
        kept = path.program
        model = fit(second, cp, 0.1, path=path)
        # the second fit built its own program and started from its own
        # crash tableau, not from the one the path kept
        assert path.program is not kept
        assert _starts(solutions[-2:], crashes[-2:]) == [0, 1]
        assert _same_fit(model, fit(second, cp, 0.1))


def test_program_edited_in_place_is_not_matched():
    design = random_design(np.random.default_rng(6), 20, 5)
    lp = split_lp(design, CP, 0.1)
    path = LpPath()
    solve_lp(lp, path=path)
    # the program's constraints are read-only: no edit can reach a kept path
    for name in ("rows", "rhs", "lower", "upper"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(lp, name)[0] += 0.5
    # the program holds its own copies: editing the caller's arrays after
    # construction leaves it unchanged
    rows, rhs = np.eye(2), np.ones(2)
    own = LinearProgram([1.0, 1.0], rows, [">=", ">="], rhs, lower=np.zeros(2))
    rows[0, 0], rhs[0] = 5.0, 3.0
    assert np.array_equal(own.rows, np.eye(2))
    assert np.array_equal(own.rhs, np.ones(2))
    assert solve_lp(own).x.tolist() == [1.0, 1.0]
    # a path belongs to one program object: an equal but distinct program
    # starts cold, and the state then belongs to it
    again = split_lp(design, CP, 0.1)
    fresh = solve_lp(again, path=path)
    assert not fresh.warm and path.program is again
    assert solve_lp(again, path=path).warm


def _counted(monkeypatch, module, name):
    """Rebind module.name to a wrapper that counts its calls."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_repeated_r_reprices_without_pivots(solutions, monkeypatch):
    design = random_design(np.random.default_rng(3), 30, 8)
    path = LpPath()
    first = fit(design, CP, 0.05, path=path)
    restores = _counted(monkeypatch, lp_module, "_refined")
    again = fit(design, CP, 0.05, path=path)
    assert solutions[-1].warm and again.iterations == 0
    assert not restores  # the kept basic solution is reused, not restored
    # same basis, so the same restored vertex, bit for bit
    assert again.lam.tobytes() == first.lam.tobytes()
    assert repr(again.objective) == repr(first.objective)


def test_a_hinge_walk_never_factors(monkeypatch, solutions, crashes):
    # a sample walk's first fit starts from the crash tableau train writes,
    # and a population walk's from -phi, the start its piecewise-linear
    # program has with every z basic; every later step starts from its
    # path's tableau, and a restore reads B^-1 from the tableau: no solve
    # starts cold from a slack basis
    design = random_design(np.random.default_rng(9), 30, 8)
    dist, dic = _lattice_atoms()
    cold = _counted(monkeypatch, lp_module, "_start_tableau")
    starts = _counted(monkeypatch, lp_module, "_piecewise_start")
    restores = _counted(monkeypatch, lp_module, "_refined")
    refines = _counted(monkeypatch, lp_module, "_through_inverse")
    grid = np.geomspace(0.003, 0.5, 7)
    walk_penalty_path(grid, lambda r, path: fit(design, CP, r, path=path),
                      lambda r, path: fit_population(dist, dic, CP, r,
                                                     path=path))
    samples, atoms = solutions[::2], solutions[1::2]
    assert _starts(samples, crashes) == [0] * 7
    assert all(s.warm for s in samples)
    assert [s.warm for s in atoms] == [False] + [True] * 6
    assert not cold and len(starts) == 1
    assert len(restores) == sum(s.iterations > 0 for s in samples) >= 5
    # each population step that moved refines its values once, through
    # the tableau's columns of z
    assert len(refines) == len(restores) + sum(s.iterations > 0
                                               for s in atoms) >= 8


def test_a_walk_builds_one_program_per_solver(monkeypatch, solutions,
                                              crashes):
    design = random_design(np.random.default_rng(9), 30, 8)
    builds = _counted(monkeypatch, train, "split_lp")
    grid = np.geomspace(0.003, 0.5, 7)
    walk_penalty_path(grid, lambda r, path: fit(design, CP, r, path=path),
                      lambda r, path: fit(design, CP_PLAIN, r, path=path))
    assert len(builds) == 2
    assert _starts(solutions, crashes) == [0, 1] * 7


def test_a_population_path_evaluates_the_dictionary_once(monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.uniform(-1.0, 1.0, size=(40, 2))
    dist = DiscreteDistribution(x=x, p=np.full(40, 1.0 / 40),
                                eta=1.0 / (1.0 + np.exp(-3.0 * x[:, 0])))
    dic = build_linear(2)  # C_F is estimated from phi
    ctx = make_context(dist, dic, CP)
    evaluations = _counted(monkeypatch, train, "evaluate")
    builds = _counted(monkeypatch, train, "_population_program")
    fits = population_path(ctx, np.geomspace(0.003, 0.5, 7))
    assert len(evaluations) == len(builds) == 1
    # C_F comes from the phi the path keeps, the same bits
    assert dic.C_F_estimated
    phi = evaluate(dic, x).phi
    assert fits.base.c_f == float(np.abs(phi).max())
    assert all(m.c_f == fits.base.c_f for m in fits.models)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_a_re_costed_walk_rejects_r_as_a_build_does(bad, solutions):
    design = random_design(np.random.default_rng(10), 20, 5)
    with pytest.raises(ValueError, match="^penalty weight r must be finite "
                                         "and >= 0, not ") as cold:
        fit(design, CP, bad)
    path = LpPath()
    fit(design, CP, 0.3, path=path)
    with pytest.raises(cold.type) as warm:
        fit(design, CP, bad, path=path)
    assert str(warm.value) == str(cold.value)
    # the rejected r left the program's costs and the path as they were
    assert np.all(path.program.objective[:2 * design.M] == 0.3)
    assert fit(design, CP, 0.3, path=path).iterations == 0
    assert solutions[-1].warm


def test_walk_returns_grid_order_and_starts_at_the_largest_r():
    calls = []

    def solver(r, path):
        calls.append(r)
        return r

    grid = [0.3, 0.01, 1.0, 0.1]
    assert walk_penalty_path(grid, solver) == [grid]
    assert calls == sorted(grid, reverse=True)


def _check_kept_tableau(path):
    """Check the tableau an optimal solve left on path; its left-out columns.

    The tableau is condensed, B^-1 [N | b] over its nonbasic columns and
    the cost row; basis and nonbasic are disjoint and hold every slack.
    Every column it leaves out is structural and prices >= -PIVOT_TOL
    against the original data, with duals from a sparse LU of the basis.
    """
    A, sigma = path.form.A, path.form.sigma
    m, nv = A.shape
    basis, nonbasic = path.basis, path.nonbasic
    assert path.tableau.shape == (m + 1, nonbasic.size + 1)
    assert path.tableau.flags.f_contiguous  # the pivot updates it in place
    held = np.concatenate([basis, nonbasic])
    assert np.unique(held).size == held.size
    assert np.all(np.isin(nv + np.arange(m), held))
    left_out = np.setdiff1d(np.arange(nv + m), held)
    assert np.all(left_out < nv)
    matrix = standard_matrix(A, sigma)
    c = lp_module._standard_costs(path.program.objective, path.form.cmap,
                                  nv + m)
    y = splu(matrix[:, basis]).solve(c[basis], trans="T")
    assert np.all(c[left_out] - A[:, left_out].T @ y >= -PIVOT_TOL)
    return left_out


def test_study_paths_match_highs(solutions, crashes):
    config = ExperimentConfig("two_gaussian", repetitions=1)
    dic = build_linear(config.M)
    design = evaluate(dic, *gen_two_gaussian(config.n_train // 2, config.M,
                                             2024)[:2])
    grid = np.asarray(config.r_grid)
    total_path_pivots = 0

    def step(r, path):
        model = fit(design, cp, r, dic=dic, path=path)
        left_out = _check_kept_tableau(path)
        assert left_out.size  # 2M = 400 columns outnumber the rows
        return model

    for cp in (CP, CP_PLAIN):
        del solutions[:], crashes[:]
        models = walk_penalty_path(grid, step)[0]
        # the walk ran from the largest r down: the first step wrote the
        # crash tableau, and each later step started from it
        assert _starts(solutions, crashes) == [0] * 7
        for r, model in zip(grid, models):
            assert within_highs(model.objective, design, cp, r)
        path_pivots = sum(m.iterations for m in models)
        cold_pivots = sum(fit(design, cp, r).iterations for r in grid)
        assert path_pivots < cold_pivots
        total_path_pivots += path_pivots
    # 670 pivots for both arms with every column kept (721 with t starting
    # in the steeper row of each sample, 652 with two middle rows at
    # a = 1); 766 when the tableau's width follows the support
    assert total_path_pivots <= 1000


def test_wide_design_path_keeps_a_narrow_tableau(solutions, crashes):
    # the paper's regime, M >> n: 2M = 1,200 penalty columns against 120
    # rows.  The tableau keeps only the columns that can enter, and every
    # fit is still the whole program's optimum
    dic = build_linear(600)
    design = evaluate(dic, *gen_two_gaussian(30, 600, 5)[:2])
    grid = np.geomspace(0.01, 0.3, 4)
    widths = []

    def step(r, path):
        model = fit(design, CP, r, dic=dic, path=path)
        _check_kept_tableau(path)
        widths.append(path.nonbasic.size)
        return model

    models = walk_penalty_path(grid, step)[0]
    assert _starts(solutions, crashes) == [0] * 4
    for r, model in zip(grid, models):
        assert within_highs(model.objective, design, CP, r)
    # the walk ends at a support of more than 30 functions, with at most
    # 150 of the 2M + n = 1,260 nonbasic columns kept
    assert max(model.support_size() for model in models) > 30
    assert max(widths) < 200


def _lattice_atoms():
    """200 atoms with a noisy logistic eta on a 6x6 RBF lattice: dist, dic."""
    rng = np.random.default_rng(11)
    x = rng.uniform(-2.0, 2.0, size=(200, 2))
    p = rng.uniform(0.5, 1.5, size=200)
    eta = 1.0 / (1.0 + np.exp(-2.0 * (x[:, 0] + 0.5 * x[:, 1])
                              - 0.3 * rng.normal(size=200)))
    dist = DiscreteDistribution(x=x, p=p / p.sum(), eta=eta)
    dic = build_rbf_lattice((6, 6), x.min(axis=0), x.max(axis=0))
    return dist, dic


def test_population_path_matches_highs(solutions):
    dist, dic = _lattice_atoms()
    grid = np.geomspace(0.002, 0.6, 6)
    fits = population_path(make_context(dist, dic, CP), grid)
    # the grid and then the r = 0 anchor are one warm path, from one
    # program and its start
    assert [s.warm for s in solutions] == [False] + [True] * 6
    assert list(fits.r) == sorted(grid)
    path = [(0.0, fits.base)] + list(zip(fits.r, fits.models))
    for r, model in path:
        assert within_highs(model.objective, dist, CP, r, dic)
    # 253 pivots in epigraph form; 168 pivots and flips in
    # piecewise-linear form, one row per atom
    assert sum(model.iterations for _, model in path) <= 200


def test_a_re_costed_population_walk_keeps_the_atom_masses(monkeypatch,
                                                            solutions):
    # a re-cost writes r into the program's penalty only: the atom costs,
    # their masses and slopes, keep their bits at every step
    dist, dic = _lattice_atoms()
    builds = _counted(monkeypatch, train, "_population_program")
    grid = np.geomspace(0.002, 0.6, 6)
    kept = []

    def step(r, path):
        model = fit_population(dist, dic, CP, r, path=path)
        program = path.program
        assert program.penalty == r
        assert program.at_zero.tobytes() == dist.p.tobytes()
        kept.append(program.slopes.tobytes())
        return model

    models = walk_penalty_path(grid, step)[0]
    assert len(builds) == 1 and len(set(kept)) == 1
    assert [s.warm for s in solutions] == [False] + [True] * 5
    for r, model in zip(grid, models):
        assert within_highs(model.objective, dist, CP, r, dic)


def test_population_fit_with_zero_weight_atoms_matches_highs():
    # eta in {0, 1} at a third of the atoms: each has one label of weight
    # 0, and only two middle rows in the LP
    rng = np.random.default_rng(5)
    x = rng.uniform(-2.0, 2.0, size=(60, 2))
    eta = 1.0 / (1.0 + np.exp(-2.0 * x[:, 0]))
    eta[:10], eta[10:20] = 0.0, 1.0
    p = rng.uniform(0.5, 1.5, size=60)
    dist = DiscreteDistribution(x=x, p=p / p.sum(), eta=eta)
    dic = build_rbf_lattice((4, 4), x.min(axis=0), x.max(axis=0))
    for r in (0.0, 0.01, 0.1):
        model = fit_population(dist, dic, CP, r)
        assert within_highs(model.objective, dist, CP, r, dic)
