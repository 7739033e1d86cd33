"""Training optimality against independent oracles, and path properties."""

import math
import re

import numpy as np
import pytest

from rejectsvm.constants import SUPPORT_TOL
from rejectsvm.dictionary import (
    DesignMatrix,
    build_linear,
    build_rbf_lattice,
    evaluate,
)
from rejectsvm.losses import (
    CostParams,
    DiscreteDistribution,
    gen_hinge,
    population_risk,
)
from rejectsvm.lp import LinearProgram, _to_standard_form, solve_lp
from rejectsvm.sim import ExperimentConfig, gen_two_gaussian
from rejectsvm.train import (
    _crash_start,
    _hinge_lp,
    concentration_bracket,
    cross_validate,
    default_r_grid,
    fit,
    fit_population,
    split_lp,
    theoretical_r,
)

from helpers import (
    assemble_lp,
    crash_basis,
    factored_start,
    logistic_atoms,
    plateau_fixture,
    random_design,
    seeded_path,
)
from oracle import enumerate_vertices_oracle

CP = CostParams(d=0.25, tau=0.5)


def scan_1d_objective(phi, y, cp, r, lo=-3.0, hi=3.0, points=60_001):
    """Independent single-coefficient oracle: dense scan of the objective.

    The objective is piecewise linear in the lone coefficient, so the scan
    brackets the optimum to (hi - lo) / (points - 1); kinks land on grid
    points when the margins are rational with a small denominator.
    """
    grid = np.linspace(lo, hi, points)
    vals = [float(np.mean(gen_hinge(y * (phi[:, 0] * g), cp))) + r * abs(g)
            for g in grid]
    k = int(np.argmin(vals))
    return grid[k], vals[k]


def test_single_feature_fits_match_dense_scan():
    phi = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    design = DesignMatrix(phi=phi, y=y)
    for r in (0.0, 0.05, 0.3, 0.9, 2.0):
        model = fit(design, CP, r)
        lam_ref, obj_ref = scan_1d_objective(phi, y, CP, r)
        assert model.objective == pytest.approx(obj_ref, abs=1e-6)
        assert model.lam[0] == pytest.approx(lam_ref, abs=1e-4)


def test_single_feature_with_label_noise():
    # one contrarian sample; the optimum trades its hinge against the rest
    phi = np.array([[1.0], [2.0], [-1.0], [1.5], [-2.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0, 1.0])
    design = DesignMatrix(phi=phi, y=y)
    for r in (0.0, 0.1, 0.5):
        model = fit(design, CP, r)
        _, obj_ref = scan_1d_objective(phi, y, CP, r)
        assert model.objective == pytest.approx(obj_ref, abs=1e-6)


def test_formulations_agree_with_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        M = int(rng.integers(1, 4))
        design = random_design(rng, n, M)
        for r in (0.0, 0.1, 0.7):
            split_model = fit(design, CP, r)
            slack = solve_lp(assemble_lp(design, CP, r))
            ref = enumerate_vertices_oracle(split_lp(design, CP, r))
            assert ref.status == "optimal" and slack.status == "optimal"
            assert split_model.objective == pytest.approx(
                ref.objective_value, abs=1e-7)
            assert slack.objective_value == pytest.approx(
                ref.objective_value, abs=1e-7)


def test_budget_invariant_and_zero_solution():
    rng = np.random.default_rng(5)
    design = random_design(rng, 30, 8)
    c_f = float(np.abs(design.phi).max())
    for r in (0.01, 0.1, 1.0):
        model = fit(design, CP, r)
        assert model.l1_norm() <= 1.0 / r + 1e-7
    # past a * C_F the empty model is optimal: the hinge gradient can
    # never pay for the penalty
    model = fit(design, CP, CP.a * c_f + 0.01)
    assert model.l1_norm() == 0.0
    assert model.objective == pytest.approx(1.0)


def test_path_monotonicity():
    rng = np.random.default_rng(9)
    design = random_design(rng, 25, 6)
    rs = np.linspace(0.01, 1.5, 12)
    models = [fit(design, CP, r) for r in rs]
    objs = [m.objective for m in models]
    l1s = [m.l1_norm() for m in models]
    assert np.all(np.diff(objs) >= -1e-9)
    assert np.all(np.diff(l1s) <= 1e-9)


def test_objective_equals_risk_plus_penalty():
    rng = np.random.default_rng(13)
    design = random_design(rng, 20, 5)
    model = fit(design, CP, 0.2)
    margins = design.y * (design.phi @ model.lam)
    emp = float(np.mean(gen_hinge(margins, CP)))
    assert model.objective == pytest.approx(emp + 0.2 * model.l1_norm(),
                                            abs=1e-12)


def test_training_objective_keeps_the_sample_form_bits():
    # a training fit's objective is re-evaluated from its points with
    # eta = (1 + y) / 2, and keeps the bits of the sample form
    # (1/n) . gen_hinge(y phi lambda) + r |lambda|_1
    for seed in range(4):
        design = random_design(np.random.default_rng(40 + seed), 25, 6)
        yphi = design.y[:, None] * design.phi
        weights = np.full(design.n, 1.0 / design.n)
        for cp in (CP, CostParams(d=0.5)):
            for r in (0.0, 0.03, 0.3):
                model = fit(design, cp, r)
                want = (float(weights @ gen_hinge(yphi @ model.lam, cp))
                        + r * float(np.abs(model.lam).sum()))
                assert repr(model.objective) == repr(want)


def test_split_lp_is_the_sample_hinge_build_byte_for_byte():
    # with eta in {0, 1} the epigraph build gives the two sample hinge
    # rows per point, written out here for a design with both labels: the
    # a-slope rows first, then the unit-slope rows, where t starts basic;
    # where a = 1 the two are one, the unit-slope rows alone
    design = random_design(np.random.default_rng(21), 12, 4)
    assert set(design.y.tolist()) == {-1.0, 1.0}
    n, M, r = design.n, design.M, 0.07
    yphi = design.y[:, None] * design.phi
    for cp in (CP, CostParams(d=0.5), CostParams(d=0.1)):
        slopes = [cp.a, 1.0] if cp.a != 1.0 else [1.0]
        m = n * len(slopes)
        rows = np.zeros((m, 2 * M + n))
        for block, slope in enumerate(slopes):
            sl = slice(block * n, (block + 1) * n)
            rows[sl, :M], rows[sl, M:2 * M] = slope * yphi, -slope * yphi
            rows[sl, 2 * M:] = np.eye(n)
        want = {"objective": np.concatenate([np.full(2 * M, r),
                                             np.full(n, 1.0 / n)]),
                "rows": rows, "rhs": np.ones(m),
                "lower": np.zeros(2 * M + n),
                "upper": np.full(2 * M + n, np.inf)}
        lp = split_lp(design, cp, r)
        assert lp.relations == (">=",) * m
        for name, array in want.items():
            got = getattr(lp, name)
            assert got.dtype == array.dtype and got.shape == array.shape
            assert got.tobytes() == array.tobytes(), name
        crash = _crash_start(lp, M)[2]
        assert crash.tobytes() == crash_basis(n, M, cp).tobytes()


def test_population_program_has_one_epigraph_column_per_atom():
    # 2M + atoms variables: four rows for an atom with 0 < eta < 1, two
    # for one with eta in {0, 1}, one fewer each where a = 1, and the
    # largest of an atom's rows and its bound t >= 0 is its loss
    # eta gen_hinge(z) + (1 - eta) gen_hinge(-z)
    rng = np.random.default_rng(8)
    atoms = 30
    x = rng.uniform(-1.0, 1.0, size=(atoms, 2))
    eta = rng.uniform(0.05, 0.95, size=atoms)
    eta[:4], eta[4:9] = 0.0, 1.0
    eta[9] = 0.5
    p = rng.uniform(0.5, 1.5, size=atoms)
    dist = DiscreteDistribution(x=x, p=p / p.sum(), eta=eta)
    phi = evaluate(build_linear(2), x).phi
    M = phi.shape[1]
    for cp in (CP, CostParams(d=0.5)):
        middle = 2 if cp.a != 1.0 else 1
        lp = _hinge_lp(phi, dist.p, dist.eta, cp, 0.1)
        assert lp.nvar == 2 * M + atoms
        assert lp.ncon == middle * 9 + (middle + 2) * 21
        assert _crash_start(lp, M)[2].tobytes() == \
            crash_basis(atoms, M, cp, 21).tobytes()
        epigraph = lp.rows[:, 2 * M:]
        assert np.all(np.sort(epigraph, axis=1)[:, :-1] == 0.0)
        atom = epigraph.argmax(axis=1)
        assert np.all(epigraph[np.arange(lp.ncon), atom] == 1.0)
        assert np.bincount(atom).tolist() == [middle] * 9 + [middle + 2] * 21
        assert lp.objective[2 * M:].tobytes() == dist.p.tobytes()
        # lambda = 0, t = 1 is tight on the middle rows only
        residual = lp.rows @ np.append(np.zeros(2 * M), np.ones(atoms)) - lp.rhs
        assert np.all(residual[:middle * atoms] == 0.0)
        assert np.all(residual[middle * atoms:] > 0.0)
        for lam in 3.0 * rng.normal(size=(6, M)):
            z = phi @ lam
            pieces = lp.rhs - lp.rows[:, :M] @ lam
            top = lp.lower[2 * M:].copy()
            np.maximum.at(top, atom, pieces)
            loss = eta * gen_hinge(z, cp) + (1.0 - eta) * gen_hinge(-z, cp)
            assert np.allclose(top, loss, rtol=0.0, atol=1e-12)


def _two_middle_rows(phi, mass, eta, cp, r):
    """The hinge LP with both middle rows at every point, a = 1 or not.

    The steeper rows, then the plainer ones, then the left and the right
    outer rows of the points with 0 < eta < 1.  Returns the program and
    its crash basis: surpluses in the steeper and outer rows, t in the
    plainer ones.
    """
    n, M = phi.shape
    left = 1.0 - eta - cp.a * eta
    right = cp.a * (1.0 - eta) - eta
    left_second = np.abs(left) < np.abs(right)
    both = np.flatnonzero((eta > 0.0) & (eta < 1.0))
    outer = eta[both]
    slopes = np.concatenate([np.where(left_second, right, left),
                             np.where(left_second, left, right),
                             -cp.a * outer, cp.a * (1.0 - outer)])
    point = np.concatenate([np.arange(n), np.arange(n), both, both])
    rows = np.zeros((point.size, 2 * M + n))
    rows[:, :M] = -slopes[:, None] * phi[point]
    rows[:, M:2 * M] = -rows[:, :M]
    rows[np.arange(point.size), 2 * M + point] = 1.0
    lp = LinearProgram(np.concatenate([np.full(2 * M, r), mass]), rows,
                       [">="] * point.size,
                       np.concatenate([np.ones(2 * n), outer, 1.0 - outer]),
                       lower=np.zeros(2 * M + n))
    nvar = 2 * M + n
    crash = np.concatenate([nvar + np.arange(n), 2 * M + np.arange(n),
                            nvar + np.arange(2 * n, point.size)])
    return lp, crash


def test_a_point_has_one_middle_row_where_a_is_1():
    # at d = 1/2 the two middle rows of a point are one: a sample has one
    # row and a mixed atom three, and both fits match the program with
    # both rows; at any other d the program keeps its bytes
    config = ExperimentConfig("two_gaussian", repetitions=1)
    design = evaluate(build_linear(config.M), *gen_two_gaussian(
        config.n_train // 2, config.M, 2024)[:2])
    base = logistic_atoms(3)
    eta = base.eta.copy()
    eta[:20] = np.repeat([0.0, 1.0], 10)
    dist = DiscreteDistribution(x=base.x, p=base.p, eta=eta)
    lattice = build_rbf_lattice((6, 6), dist.x.min(axis=0),
                                dist.x.max(axis=0))
    samples = (design.phi, np.full(design.n, 1.0 / design.n),
               (1.0 + design.y) / 2.0)
    atoms = (evaluate(lattice, dist.x).phi, dist.p, dist.eta)
    mixed = dist.n_atoms - 20
    plain = CostParams(d=0.5)
    assert split_lp(design, plain, 0.1).ncon == design.n
    lp = _hinge_lp(*atoms, plain, 0.1)
    assert lp.ncon == dist.n_atoms + 2 * mixed
    assert np.bincount(lp.rows[:, 2 * lattice.M:].argmax(axis=1)).tolist() \
        == [1] * 20 + [3] * mixed
    for points in (samples, atoms):
        new = _hinge_lp(*points, CP, 0.1)
        old, crash = _two_middle_rows(*points, CP, 0.1)
        assert new.relations == old.relations
        for name in ("objective", "rows", "rhs", "lower", "upper"):
            assert getattr(new, name).tobytes() == getattr(old, name).tobytes()
        assert _crash_start(new, points[0].shape[1])[2].tobytes() == \
            crash.tobytes()
    for r in (0.005, 0.02, 0.1, 0.5):
        for model, points in ((fit(design, plain, r), samples),
                              (fit_population(dist, lattice, plain, r), atoms)):
            old, crash = _two_middle_rows(*points, plain, r)
            form = _to_standard_form(old)
            T, nonbasic = factored_start(form.A, form.b, crash)
            sol = solve_lp(old, path=seeded_path(old, form, T, crash,
                                                 nonbasic))
            M = points[0].shape[1]
            lam = sol.x[:M] - sol.x[M:2 * M]
            assert abs(model.objective - sol.objective_value) <= \
                1e-12 * abs(sol.objective_value)
            assert np.array_equal(np.abs(model.lam) > SUPPORT_TOL,
                                  np.abs(lam) > SUPPORT_TOL)


def test_crash_start_is_the_factored_start_bit_for_bit():
    # the crash tableau, its nonbasic order and the CSC standard form that
    # _crash_start writes are those of _to_standard_form and a factored
    # start, bit for bit: samples and atoms, some with 0 < eta < 1, at
    # a = 1 and a != 1, with exact zeros in phi, whose -0.0 entries the
    # CSC form does not store
    design = random_design(np.random.default_rng(23), 40, 6)
    samples = (design.phi.copy(), np.full(design.n, 1.0 / design.n),
               (1.0 + design.y) / 2.0)
    dist = logistic_atoms(4)
    eta = dist.eta.copy()
    eta[:10] = np.repeat([0.0, 1.0], 5)
    lattice = build_rbf_lattice((4, 4), dist.x.min(axis=0),
                                dist.x.max(axis=0))
    atoms = (evaluate(lattice, dist.x).phi, dist.p, eta)
    for phi, *_ in (samples, atoms):
        phi[::7, ::3] = 0.0
    for cp in (CP, CostParams(d=0.5)):
        for (phi, mass, eta), mixed in ((samples, 0), (atoms, 190)):
            n, M = phi.shape
            lp = _hinge_lp(phi, mass, eta, cp, 0.1)
            form, T, basis, nonbasic = _crash_start(lp, M)
            assert basis.tobytes() == crash_basis(n, M, cp, mixed).tobytes()
            ref = _to_standard_form(lp)
            want, want_nonbasic = factored_start(ref.A, ref.b, basis)
            assert T.dtype == want.dtype and T.shape == want.shape
            assert T.flags.f_contiguous
            assert T.tobytes() == want.tobytes()
            assert nonbasic.tobytes() == want_nonbasic.tobytes()
            for name in ("data", "indices", "indptr"):
                got, array = getattr(form.A, name), getattr(ref.A, name)
                assert got.dtype == array.dtype
                assert got.tobytes() == array.tobytes(), name
            assert form.A.shape == ref.A.shape
            for got, array in zip((form.b, form.sigma, form.sense, *form.cmap),
                                  (ref.b, ref.sigma, ref.sense, *ref.cmap)):
                assert got.dtype == array.dtype
                assert got.tobytes() == array.tobytes()


def test_population_objective_is_the_penalized_population_risk():
    rng = np.random.default_rng(19)
    x = rng.uniform(-2.0, 2.0, size=(50, 2))
    p = rng.uniform(0.5, 1.5, size=50)
    eta = 1.0 / (1.0 + np.exp(-2.0 * x[:, 0] - rng.normal(size=50)))
    dist = DiscreteDistribution(x=x, p=p / p.sum(), eta=eta)
    dic = build_linear(2)
    phi = evaluate(dic, x).phi
    for r in (0.0, 0.02, 0.2):
        model = fit_population(dist, dic, CP, r)
        want = (population_risk(dist, phi @ model.lam, CP)
                + r * model.l1_norm())
        assert model.objective == pytest.approx(want, rel=1e-14, abs=1e-15)
        assert model.c_f == float(np.abs(phi).max())


def test_fit_validation():
    rng = np.random.default_rng(1)
    design = random_design(rng, 4, 2)
    with pytest.raises(ValueError):
        fit(design, CP, -0.1)
    with pytest.raises(ValueError):
        fit(DesignMatrix(phi=design.phi), CP, 0.1)  # unlabeled


def test_population_solution_on_plateau_fixture():
    dist, dic, cp = plateau_fixture()
    model = fit_population(dist, dic, cp, r=0.0)
    assert np.allclose(model.lam, [1.0, 0.0], atol=1e-9)
    assert model.objective == pytest.approx(0.6, abs=1e-12)
    # small penalties leave the minimizer untouched
    small = fit_population(dist, dic, cp, r=0.05)
    assert np.allclose(small.lam, [1.0, 0.0], atol=1e-9)


def test_cross_validation_prefers_a_working_penalty():
    rng = np.random.default_rng(17)
    n = 40
    x = rng.normal(size=(n, 3))
    y = np.where(x[:, 0] + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
    dic = build_linear(3)
    design = evaluate(dic, x, y)
    r_star, table = cross_validate(design, CP, [0.01, 0.1, 1.0, 10.0],
                                   folds=5)
    assert r_star in (0.01, 0.1, 1.0, 10.0)
    risks = dict((r, v) for r, v in table)
    assert risks[r_star] == min(risks.values())
    # at r = 10 > a * C_F the model is empty and always rejects: risk d
    assert risks[10.0] == pytest.approx(CP.d)
    assert r_star != 10.0


def test_cross_validation_tie_goes_to_larger_penalty():
    # two identical grid entries force an exact tie
    rng = np.random.default_rng(2)
    x = rng.normal(size=(12, 2))
    y = np.where(x[:, 0] > 0, 1.0, -1.0)
    design = evaluate(build_linear(2), x, y)
    r_star, _ = cross_validate(design, CP, [0.2, 0.2], folds=3)
    assert r_star == 0.2
    with pytest.raises(ValueError):
        cross_validate(design, CP, [0.1], folds=1)
    with pytest.raises(ValueError):
        cross_validate(design, CP, [0.1], folds=13)
    with pytest.raises(ValueError):
        cross_validate(design, CP, [], folds=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_cross_validation_rejects_a_grid_point_that_is_not_a_penalty(bad):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(12, 2))
    design = evaluate(build_linear(2), x, np.where(x[:, 0] > 0, 1.0, -1.0))
    with pytest.raises(ValueError, match="^r_grid must be finite, "
                                         "non-negative and non-empty$"):
        cross_validate(design, CP, [0.1, bad], folds=3)


def test_default_grid_spans_up_to_the_shutoff():
    grid = default_r_grid(CP, 2.0, num=10)
    assert grid[0] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(CP.a * 2.0)
    assert len(grid) == 10
    assert np.all(np.diff(grid) > 0)
    assert default_r_grid(CP, 2.0, num=1).tolist() == [1e-4]
    for num in (0, -3):
        with pytest.raises(ValueError, match=f"^a penalty grid needs at "
                                             f"least 1 point, not {num}$"):
            default_r_grid(CP, 2.0, num=num)


def test_penalty_recommendation_frozen_value():
    # n=100, M=200, C_F=1, d=0.25, delta=0.1, p=1; frozen via an
    # independent high-precision evaluation of the closed form
    value = theoretical_r(100, 200, 1.0, CP, 0.1, p=1.0)
    assert repr(value) == "11.983365930871562"


def test_concentration_bracket_validation_and_shrinkage():
    with pytest.raises(ValueError):
        concentration_bracket(100, 200, 0.0)
    with pytest.raises(ValueError):
        concentration_bracket(100, 200, 1.0)
    with pytest.raises(ValueError):
        concentration_bracket(0, 200, 0.1)
    for p in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match=re.escape(
                f"p must be a finite number > 0, not {p!r}")):
            concentration_bracket(100, 200, 0.1, p)
    a = concentration_bracket(100, 200, 0.1)
    b = concentration_bracket(10_000, 200, 0.1)
    assert b < a  # more data, tighter deviation term
