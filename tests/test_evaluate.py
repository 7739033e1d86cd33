"""Prediction conventions, risk reports, and the rate-bound calculator."""

import numpy as np
import pytest

from rejectsvm.dictionary import DesignMatrix, build_linear, evaluate as dic_eval
from rejectsvm.evaluate import (
    bounds,
    default_gamma_grid,
    margins,
    predict,
    rate_r,
    report_from_margins,
    risk_report,
)
from rejectsvm.losses import CostParams
from rejectsvm.train import Model, fit

CP = CostParams(d=0.25, tau=0.5)


def toy_model(lam, dic=None, cp=CP, n_train=10, c_f=1.0):
    lam = np.asarray(lam, dtype=float)
    if dic is None:
        dic = build_linear(lam.size)
    return Model(lam=lam, dic=dic, cp=cp, r=0.1, n_train=n_train,
                 objective=0.0, iterations=0, c_f=c_f)


def test_margins_are_linear_scores():
    model = toy_model([2.0, -1.0])
    x = np.array([[1.0, 1.0], [0.5, 0.0]])
    assert np.allclose(margins(model, x), [1.0, 1.0])
    bare = Model(lam=np.ones(2), dic=None, cp=CP, r=0.0, n_train=1,
                 objective=0.0, iterations=0, c_f=1.0)
    with pytest.raises(ValueError):
        margins(bare, x)


def test_predict_decision_boundaries():
    model = toy_model([1.0])
    x = np.array([[-0.51], [-0.5], [0.0], [0.5], [0.51]])
    dec, f = predict(model, x)
    assert np.array_equal(dec, [-1.0, 0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(f, x.ravel())


def test_report_counts_and_decomposition():
    # margins placed on each side of every boundary
    f = np.array([-0.6, -0.5, 0.2, 0.5, 0.9])
    y = np.ones(5)
    rep = report_from_margins(y * f, f, CP, 5)
    assert rep.misclass_rate == pytest.approx(1 / 5)   # only -0.6
    assert rep.reject_rate == pytest.approx(3 / 5)     # -0.5, 0.2, 0.5
    assert rep.ell_risk == pytest.approx(rep.misclass_rate
                                         + CP.d * rep.reject_rate, abs=1e-15)
    assert rep.n_eval == 5


def test_decomposition_on_random_margins():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        f = rng.normal(size=n) * 1.5
        y = rng.choice([-1.0, 1.0], size=n)
        d = float(rng.uniform(0.05, 0.5))
        cp = CostParams(d=d, tau=float(rng.uniform(d, 1.0 - d)))
        rep = report_from_margins(y * f, f, cp, n)
        assert abs(rep.ell_risk - (rep.misclass_rate
                                   + d * rep.reject_rate)) < 1e-12


def test_risk_report_ties_out_with_fit():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(30, 3))
    y = np.where(x[:, 0] > 0, 1.0, -1.0)
    dic = build_linear(3)
    model = fit(dic_eval(dic, x, y), CP, 0.2, dic=dic)
    rep = risk_report(model, x, y)
    assert 0.0 <= rep.misclass_rate <= 1.0
    assert 0.0 <= rep.reject_rate <= 1.0
    assert rep.ell_risk == pytest.approx(
        rep.misclass_rate + CP.d * rep.reject_rate, abs=1e-12)
    with pytest.raises(ValueError):
        risk_report(model, x[:0], y[:0])


def test_rate_formula_frozen_value():
    # gamma=0.5, n=100, M=200, C_F=1, delta=0.1, p=1; frozen from an
    # independent 50-digit evaluation of the closed form, compared at a
    # tolerance that only forgives the final-bit association difference
    value = rate_r(0.5, 100, 200, 1.0, 0.1, p=1.0)
    assert value == pytest.approx(7.9889106205810416, rel=1e-13)


def test_rate_formula_shape():
    base = rate_r(1.0, 100, 200, 1.0, 0.1)
    assert rate_r(0.5, 100, 200, 1.0, 0.1) == pytest.approx(2 * base)
    assert rate_r(1.0, 100, 200, 2.0, 0.1) == pytest.approx(2 * base)
    assert rate_r(1.0, 100, 200, 1.0, 0.01) > base  # stricter confidence
    with pytest.raises(ValueError):
        rate_r(0.0, 100, 200, 1.0, 0.1)


def test_zero_model_bound_is_tail_only():
    model = toy_model([0.0, 0.0])
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 2))
    y = rng.choice([-1.0, 1.0], size=50)
    rep = bounds(model, x, y, delta=0.1, p=1.0)
    # no mass within gamma of the error threshold and a zero penalty term:
    # the misclassification bound collapses to the n^-p tail
    assert rep.bound_misclass == pytest.approx(1.0 / 50.0)
    assert rep.components_misclass[:2] == (0.0, 0.0)
    # everything is rejected, so that side saturates at 1 + tail
    assert rep.bound_reject == pytest.approx(1.0 + 1.0 / 50.0)


def test_bound_dominates_its_empirical_rate():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(60, 3))
    y = np.where(x[:, 0] + 0.5 * rng.normal(size=60) > 0, 1.0, -1.0)
    dic = build_linear(3)
    model = fit(dic_eval(dic, x, y), CP, 0.15, dic=dic)
    rep = bounds(model, x, y, delta=0.05)
    f = margins(model, x)
    yf = y * f
    assert rep.bound_misclass >= float(np.mean(yf <= -CP.tau))
    assert rep.bound_reject >= float(np.mean(np.abs(f) <= CP.tau))
    # components re-assemble to the stated totals
    assert rep.bound_misclass == pytest.approx(sum(rep.components_misclass))
    assert rep.bound_reject == pytest.approx(sum(rep.components_reject))
    assert rep.gamma_star_misclass in default_gamma_grid()


def test_bound_tightens_with_looser_confidence():
    model = toy_model([0.4, -0.2])
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 2))
    y = rng.choice([-1.0, 1.0], size=40)
    strict = bounds(model, x, y, delta=0.01)
    loose = bounds(model, x, y, delta=0.2)
    assert loose.bound_misclass <= strict.bound_misclass
    assert loose.bound_reject <= strict.bound_reject


def test_the_gamma_grid_and_the_support_tolerance_are_constants():
    grid = default_gamma_grid()
    assert grid.size == 25
    assert (grid[0], grid[-1]) == pytest.approx((0.02, 2.0))
    model = toy_model([1.0, 1e-9])
    assert model.support_size() == 1  # SUPPORT_TOL is 1e-8
    with pytest.raises(TypeError):
        bounds(model, np.ones((3, 2)), np.ones(3), gamma_grid=[1.0])
    with pytest.raises(TypeError):
        model.support_size(tol=0.1)
