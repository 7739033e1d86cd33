"""Synthetic scenario generators and study runners."""

import numpy as np
import pytest

from rejectsvm.sim import (
    GRID_COLUMNS,
    RESULT_COLUMNS,
    ExperimentConfig,
    gen_mixture,
    gen_two_gaussian,
    mixture_eta_density,
    run_mixture_boundaries,
    run_reject_vs_plain,
)


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
            row["ell_risk"] - row["bayes_risk_mc"], abs=1e-12)
    with pytest.raises(ValueError):
        run_reject_vs_plain(ExperimentConfig(scenario="mixture"))


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
