"""Loss shapes, orderings, and exact Bayes quantities on small distributions."""

import numpy as np
import pytest

from rejectsvm.losses import (
    CostParams,
    DiscreteDistribution,
    bayes_phi_risk,
    bayes_risk,
    bayes_rule,
    gen_hinge,
    population_risk,
    ramp_reject,
    ramp_upper,
    reject_loss,
)

import check_oracle
from helpers import hex_bits, random_distribution


GRID = np.linspace(-4.0, 4.0, 10_001)


def test_cost_params_validation():
    cp = CostParams(d=0.25)
    assert cp.a == 3.0 and cp.tau == 0.5
    with pytest.raises(ValueError):
        CostParams(d=0.0)
    with pytest.raises(ValueError):
        CostParams(d=0.6)
    with pytest.raises(ValueError):
        CostParams(d=0.25, tau=0.1)  # below d
    with pytest.raises(ValueError):
        CostParams(d=0.25, tau=0.8)  # above 1 - d
    # the slope is worked out from d, not taken
    with pytest.raises(TypeError):
        CostParams(d=0.25, a=3.0)


def test_hinge_values_at_named_points():
    cp = CostParams(d=0.25, tau=0.5)
    assert gen_hinge(0.0, cp) == 1.0
    assert gen_hinge(1.0, cp) == 0.0
    assert gen_hinge(2.0, cp) == 0.0
    assert gen_hinge(-1.0, cp) == 1.0 + cp.a
    assert gen_hinge(0.5, cp) == 0.5


def test_hinge_is_convex_and_decreasing_on_grid():
    cp = CostParams(d=0.2, tau=0.6)
    v = gen_hinge(GRID, cp)
    assert np.all(np.diff(v) <= 1e-12)
    # convexity: second differences non-negative on the uniform grid
    assert np.all(np.diff(v, 2) >= -1e-9)


def test_discrete_loss_dominated_by_hinge():
    # holds for every threshold up to 1 - d, at all margins
    for d in (0.1, 0.25, 0.4, 0.5):
        for tau in np.linspace(d, 1.0 - d, 7):
            cp = CostParams(d=d, tau=tau)
            gap = gen_hinge(GRID, cp) - reject_loss(GRID, cp)
            assert gap.min() >= 0.0


def test_discrete_loss_boundary_conventions():
    cp = CostParams(d=0.25, tau=0.5)
    # strictly below -tau costs 1; both endpoints of the band cost d
    assert reject_loss(-0.5001, cp) == 1.0
    assert reject_loss(-0.5, cp) == 0.25
    assert reject_loss(0.5, cp) == 0.25
    assert reject_loss(0.5001, cp) == 0.0


def test_half_cost_reduces_to_standard_hinge():
    cp = CostParams(d=0.5, tau=0.5)
    assert np.array_equal(gen_hinge(GRID, cp), np.maximum(1.0 - GRID, 0.0))


def test_ramps_sandwich_their_indicators():
    tau, gamma = 0.5, 0.3
    up = ramp_upper(GRID, tau, gamma)
    assert np.all(up >= (GRID <= -tau) - 1e-15)
    assert np.all(up <= (GRID <= -tau + gamma) + 1e-15)
    rj = ramp_reject(GRID, tau, gamma)
    assert np.all(rj >= (np.abs(GRID) < tau) - 1e-15)
    assert np.all(rj <= (np.abs(GRID) <= tau + gamma) + 1e-15)
    with pytest.raises(ValueError):
        ramp_upper(GRID, tau, 0.0)
    with pytest.raises(ValueError):
        ramp_reject(GRID, tau, -1.0)


def test_bayes_rule_thresholds():
    cp = CostParams(d=0.25, tau=0.5)
    eta = np.array([0.0, 0.2499, 0.25, 0.5, 0.75, 0.7501, 1.0])
    assert np.array_equal(bayes_rule(eta, cp),
                          [-1.0, -1.0, 0.0, 0.0, 0.0, 1.0, 1.0])


def test_nan_margins_rejected():
    cp = CostParams(d=0.25)
    with pytest.raises(ValueError):
        gen_hinge(np.array([0.0, np.nan]), cp)


@pytest.mark.parametrize("x, p, eta, message", [
    ([[0.0], [1.0]], [1.0], [0.5], "must align"),
    ([[0.0]], [1.0], [0.5, 0.5], "must align"),
    ([[0.0], [1.0]], [1.0, 0.0], [0.5, 0.5], "must be positive"),
    ([[0.0], [1.0]], [1.5, -0.5], [0.5, 0.5], "must be positive"),
    ([[0.0], [1.0]], [0.5, 0.5], [0.5, 1.5], r"must lie in \[0, 1\]"),
    ([[0.0], [1.0]], [0.5, 0.5], [-0.1, 0.5], r"must lie in \[0, 1\]"),
    ([[0.0], [np.nan]], [0.5, 0.5], [0.5, 0.5], "x contains non-finite"),
    ([[0.0], [np.inf]], [0.5, 0.5], [0.5, 0.5], "x contains non-finite"),
    ([[0.0], [1.0]], [0.5, np.nan], [0.5, 0.5], "p contains non-finite"),
    ([[0.0], [1.0]], [0.5, 0.5], [np.nan, 0.5], "eta contains non-finite"),
])
def test_discrete_distribution_refuses_bad_atoms(x, p, eta, message):
    with pytest.raises(ValueError, match=message):
        DiscreteDistribution(x=x, p=p, eta=eta)


def test_population_risk_hand_example():
    # single atom, eta = 0.9, f = 1: risk = 0.9*phi(1) + 0.1*phi(-1)
    cp = CostParams(d=0.25, tau=0.5)
    dist = DiscreteDistribution(x=[[0.0]], p=[1.0], eta=[0.9])
    assert population_risk(dist, [1.0], cp) == pytest.approx(0.1 * 4.0)
    assert population_risk(dist, [1.0], cp, loss="reject") == pytest.approx(0.1)
    with pytest.raises(ValueError):
        population_risk(dist, [1.0, 2.0], cp)
    with pytest.raises(ValueError):
        population_risk(dist, [1.0], cp, loss="ramp_upper")  # gamma missing


@pytest.mark.parametrize("loss, gamma", [
    ("hinge", None), ("reject", None), ("ramp_upper", 0.3),
    ("ramp_reject", 0.3),
])
def test_population_risk_rows_have_the_bits_of_one_dimensional_calls(
        loss, gamma):
    # each row of a (k, atoms) table is summed on its own, so it rounds as
    # the 1-D call of that row does; sizes cover numpy's unrolled and
    # pairwise sums
    rng = np.random.default_rng(5)
    cp = CostParams(d=0.2, tau=0.5)
    for atoms in (1, 7, 200, 1000):
        dist = random_distribution(rng, k=atoms)
        f = rng.uniform(-3.0, 3.0, size=(40, atoms))
        f[:3] = np.round(f[:3] * 2.0) / 4.0  # margins on the kinks
        rows = population_risk(dist, f, cp, loss, gamma)
        assert rows.shape == (40,)
        one = [population_risk(dist, row, cp, loss, gamma) for row in f]
        assert all(type(v) is float for v in one)
        assert hex_bits(rows) == hex_bits(one)
        if gamma is None:
            assert hex_bits(one) == hex_bits(
                check_oracle.risk(dist, row, cp, loss) for row in f)
        assert population_risk(dist, f[:0], cp, loss, gamma).shape == (0,)
        with pytest.raises(ValueError):
            population_risk(dist, f.reshape(2, 20, atoms), cp, loss, gamma)
        with pytest.raises(ValueError):
            population_risk(dist, np.zeros((40, atoms + 1)), cp, loss, gamma)


def test_bayes_risks_on_three_atom_fixture():
    cp = CostParams(d=0.25, tau=0.5)
    dist = DiscreteDistribution(x=[[-1.0], [0.0], [1.0]],
                                p=[1 / 3, 1 / 3, 1 / 3],
                                eta=[0.1, 0.5, 0.9])
    # per atom: min(eta, 1-eta, d) = 0.1, 0.25, 0.1
    assert bayes_risk(dist, cp) == pytest.approx(0.45 / 3.0)
    assert bayes_phi_risk(dist, cp) == pytest.approx(0.6)
    # the optimal decisions realize the risk exactly
    f_opt = bayes_rule(dist.eta, cp)
    assert population_risk(dist, f_opt, cp, loss="reject") == pytest.approx(
        bayes_risk(dist, cp))
    assert population_risk(dist, f_opt, cp, loss="hinge") == pytest.approx(
        bayes_phi_risk(dist, cp))


def test_no_rule_beats_bayes_on_random_distributions():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        w = rng.random(k) + 0.01
        p = w / w.sum()
        p[-1] = 1.0 - p[:-1].sum()
        dist = DiscreteDistribution(x=rng.normal(size=(k, 1)), p=p,
                                    eta=rng.random(k))
        cp = CostParams(d=float(rng.uniform(0.05, 0.5)))
        f = rng.normal(size=k) * 2.0
        assert population_risk(dist, f, cp, loss="reject") >= bayes_risk(
            dist, cp) - 1e-12
        assert population_risk(dist, f, cp, loss="hinge") >= bayes_phi_risk(
            dist, cp) - 1e-12
