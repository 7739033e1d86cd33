"""Training optimality against independent oracles, and path properties."""

import numpy as np
import pytest

from rejectsvm.dictionary import DesignMatrix, build_linear, evaluate
from rejectsvm.losses import CostParams, gen_hinge
from rejectsvm.lp import solve_lp
from rejectsvm.train import (
    concentration_bracket,
    cross_validate,
    default_r_grid,
    fit,
    fit_population,
    split_lp,
    theoretical_r,
)

from helpers import assemble_lp, plateau_fixture, random_design
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
    a = concentration_bracket(100, 200, 0.1)
    b = concentration_bracket(10_000, 200, 0.1)
    assert b < a  # more data, tighter deviation term
