"""Synthetic scenario generators and study runners."""

import math
import runpy
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from rejectsvm.losses import CostParams, gen_hinge
from rejectsvm.sim import (
    GRID_COLUMNS,
    RESULT_COLUMNS,
    ExperimentConfig,
    _gaussian_risks,
    _two_gaussian_bayes_risk,
    gen_mixture,
    gen_two_gaussian,
    mixture_eta_density,
    run_mixture_boundaries,
    run_reject_vs_plain,
)

from helpers import loaded_modules


def test_config_validation():
    ExperimentConfig(scenario="two_gaussian")
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="circles")
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="two_gaussian", n_train=99)
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="mixture", n_test=0)
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="mixture", r_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="mixture", r_grid=(0.0, 0.1))


def test_gaussian_sample_moments():
    x, y, eta = gen_two_gaussian(20_000, 5, seed=1)
    assert x.shape == (40_000, 5)
    assert y.sum() == 0.0  # balanced by construction
    target = 1.0 / np.sqrt(2.0)
    pos_mean = x[y > 0].mean(axis=0)
    # signal lives in the first two coordinates only; each mean has
    # standard error 1/sqrt(20000) ~ 0.007, checked at 4 sigma
    assert abs(pos_mean[0] - target) < 0.03
    assert abs(pos_mean[1] - target) < 0.03
    assert np.all(np.abs(pos_mean[2:]) < 0.03)
    neg_mean = x[y < 0].mean(axis=0)
    assert abs(neg_mean[0] + target) < 0.03
    assert np.all((eta > 0) & (eta < 1))
    with pytest.raises(ValueError):
        gen_two_gaussian(10, 1, seed=0)


def test_gaussian_draws_match_the_stacked_construction():
    # the sample is drawn into one array; the reference stacks two draws
    n, M, seed = 500, 7, 3
    rng = np.random.default_rng(seed)
    mu = np.zeros(M)
    mu[:2] = 1.0 / np.sqrt(2.0)
    ref = np.vstack([rng.normal(size=(n, M)) + mu,
                     rng.normal(size=(n, M)) - mu])
    x, _, _ = gen_two_gaussian(n, M, seed)
    assert x.flags.c_contiguous
    assert x.tobytes() == ref.tobytes()


def test_gaussian_eta_matches_label_frequency():
    # E[1{Y=+1}] = E[eta(X)]; compare the two estimates at 4 sigma
    x, y, eta = gen_two_gaussian(30_000, 3, seed=7)
    freq = float(np.mean(y > 0))
    assert abs(freq - float(eta.mean())) < 4.0 / np.sqrt(len(y))


def test_mixture_sample_and_density():
    x, y, eta = gen_mixture(30_000, seed=5)
    assert x.shape == (30_000, 2)
    assert np.all((eta >= 0) & (eta <= 1))
    # label frequency is a binomial draw around E[eta]
    assert abs(float(np.mean(y > 0)) - float(eta.mean())) < 0.02
    eta_grid, density = mixture_eta_density(np.array([[0.0, 0.0],
                                                      [8.0, 8.0]]))
    assert np.all(density > 0)
    assert density[1] < density[0]  # far corner carries almost no mass
    # the density normalizes to ~1 over a box that captures the mixture
    g = np.linspace(-6.0, 8.0, 281)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    _, dens = mixture_eta_density(np.column_stack([xx.ravel(), yy.ravel()]))
    cell = (g[1] - g[0]) ** 2
    assert float(dens.sum() * cell) == pytest.approx(1.0, abs=1e-3)


def test_reject_vs_plain_small_run():
    cfg = ExperimentConfig(scenario="two_gaussian", n_train=20, n_test=500,
                           M=4, repetitions=2, r_grid=(0.1, 0.5), seed=3)
    rows = run_reject_vs_plain(cfg)
    assert len(rows) == 2 * 2 * 2  # reps x grid x arms
    assert set(rows[0]) == set(RESULT_COLUMNS)
    for row in rows:
        if row["arm"] == "plain":
            assert row["reject"] == 0.0
            assert row["ell_risk"] == row["misclass"]
        else:
            assert row["ell_risk"] == pytest.approx(
                row["misclass"] + cfg.d * row["reject"], abs=1e-12)
        assert row["excess_ell"] == pytest.approx(
            row["ell_risk"] - row["bayes_risk"], abs=1e-12)
    with pytest.raises(ValueError):
        run_reject_vs_plain(ExperimentConfig(scenario="mixture"))


def test_closed_form_risks_match_a_large_sample():
    # a fixed rule scored the Monte Carlo way, by averaging the conditional
    # risks at exact eta over a large sample, agrees with the closed form
    # within 4 of the sample's own standard errors
    M = 5
    cp, cp_plain = CostParams(d=0.25, tau=0.5), CostParams(d=0.5)
    lam = np.array([1.0, 0.5, 0.3, -0.2, 0.1])
    x, _, eta = gen_two_gaussian(200_000, M, seed=4)
    f = x @ lam
    m, s = lam[:2].sum() / np.sqrt(2.0), np.linalg.norm(lam)

    def hinge_risk(arm_cp):
        return eta * gen_hinge(f, arm_cp) + (1.0 - eta) * gen_hinge(-f, arm_cp)

    samples = {
        ("reject", "phi"): hinge_risk(cp),
        ("reject", "misclass"): (eta * (f < -cp.tau)
                                 + (1.0 - eta) * (f > cp.tau)),
        ("reject", "reject"): np.abs(f) <= cp.tau,
        ("plain", "phi"): hinge_risk(cp_plain),
        ("plain", "misclass"): np.where(f >= 0.0, 1.0 - eta, eta),
        ("bayes",): np.minimum(np.minimum(eta, 1.0 - eta), cp.d),
    }
    exact = {("bayes",): _two_gaussian_bayes_risk(cp.d)}
    for arm, arm_cp, threshold in (("reject", cp, cp.tau),
                                   ("plain", cp_plain, 0.0)):
        phi, ell, mis, rej = _gaussian_risks(m, s, arm_cp, threshold)
        assert ell == mis + arm_cp.d * rej
        exact.update({(arm, "phi"): phi, (arm, "misclass"): mis,
                      (arm, "reject"): rej})
    assert exact[("plain", "reject")] == 0.0
    for key, values in samples.items():
        values = values.astype(float)
        se = values.std(ddof=1) / np.sqrt(values.size)
        z = (values.mean() - exact[key]) / se
        assert abs(z) < 4.0, (key, z)


def test_closed_form_risks_of_the_zero_rule():
    # f = 0: the reject arm withholds everywhere; the plain arm decides +1
    # and is wrong on the negative half
    cp = CostParams(d=0.25, tau=0.5)
    assert _gaussian_risks(0.0, 0.0, cp, cp.tau) == (1.0, 0.25, 0.0, 1.0)
    assert _gaussian_risks(0.0, 0.0, CostParams(d=0.5), 0.0) == (
        1.0, 0.5, 0.5, 0.0)


def test_two_gaussian_bayes_risk_matches_adaptive_quadrature():
    # the closed-form middle and the Gauss-Legendre tails against quad over
    # the whole integrand, kinks at -b, 0 and b
    from scipy.integrate import quad
    for d in (0.05, 0.1, 0.25, 0.4, 0.49):
        b = 0.5 * math.log((1.0 - d) / d)
        want, _ = quad(lambda t: (min(expit(-2.0 * abs(t)), d)
                                  * math.exp(-0.5 * (t - 1.0) ** 2)),
                       -11.0, 13.0, points=(-b, 0.0, b))
        want /= math.sqrt(2.0 * math.pi)
        got = _two_gaussian_bayes_risk(d)
        assert abs(got - want) <= 1e-13 * want, (d, got, want)


def test_the_study_leaves_scipy_integrate_unloaded():
    assert loaded_modules(
        "from rejectsvm.sim import ExperimentConfig, run_reject_vs_plain\n"
        "run_reject_vs_plain(ExperimentConfig('two_gaussian', n_train=8,"
        " M=3, repetitions=1, r_grid=(0.2,)))", "scipy.integrate") == []


def test_reject_vs_plain_is_deterministic():
    cfg = ExperimentConfig(scenario="two_gaussian", n_train=16, n_test=300,
                           M=3, repetitions=1, r_grid=(0.2,), seed=11)
    a = run_reject_vs_plain(cfg)
    b = run_reject_vs_plain(cfg)
    assert all(repr(ra) == repr(rb) for ra, rb in zip(a, b))


def test_mixture_boundary_map_small_run():
    cfg = ExperimentConfig(scenario="mixture", n_train=60, n_test=100,
                           r_grid=(0.05, 0.3), seed=2)
    rows, info = run_mixture_boundaries(cfg, grid_shape=(8, 8), folds=5)
    assert len(rows) == 64
    assert set(rows[0]) == set(GRID_COLUMNS)
    assert info["r_star"] in cfg.r_grid
    assert info["model"].r == info["r_star"]
    for row in rows:
        want = (1.0 if row["eta"] > 0.75
                else -1.0 if row["eta"] < 0.25 else 0.0)
        assert row["optimal"] == want
        assert row["estimated"] in (-1.0, 0.0, 1.0)
        assert row["density"] > 0.0
    with pytest.raises(ValueError):
        run_mixture_boundaries(ExperimentConfig(scenario="two_gaussian"))


@pytest.mark.slow
def test_two_gaussian_study_demo_runs(capsys):
    # the demo reads the study's columns by name
    demo = Path(__file__).parents[1] / "demos" / "two_gaussian_study.py"
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert "optimal risk (exact): 0.1270" in out
    assert "reject arm wins" in out
