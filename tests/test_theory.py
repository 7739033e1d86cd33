"""Population-level structure: Gram matrix, margin exponent, and the four
distribution-level checks."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import rejectsvm.theory as theory_module
from rejectsvm.dictionary import build_linear, build_rbf_lattice
from rejectsvm.losses import (
    CostParams,
    DiscreteDistribution,
    gen_hinge,
    reject_loss,
)
from rejectsvm.theory import (
    PopulationPath,
    check_excess_domination,
    check_lemma_a1,
    check_plateau,
    check_prop21,
    complexity_estimate,
    gram_psi,
    make_context,
    population_path,
    weighted_norm,
)
from rejectsvm.train import Model

import check_oracle
from helpers import (
    hex_bits,
    logistic_atoms,
    plateau_fixture,
    random_distribution,
)


def test_gram_matrix_matches_double_loop():
    rng = np.random.default_rng(19)
    dist = random_distribution(rng, k=5, dim=3)
    dic = build_linear(3)
    psi = gram_psi(dist, dic)
    ref = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(5):
                w = dist.p[k] * dist.eta[k] * (1.0 - dist.eta[k])
                ref[i, j] += 4.0 * dist.x[k, i] * dist.x[k, j] * w
    assert np.allclose(psi, ref, atol=1e-12)
    assert np.allclose(psi, psi.T)
    assert np.linalg.eigvalsh(psi).min() >= -1e-12


def test_gram_matrix_on_plateau_fixture():
    dist, dic, _ = plateau_fixture()
    psi = gram_psi(dist, dic)
    # outer atoms carry omega = 0.09, middle one 0.25, each with mass 1/3
    assert np.allclose(psi, np.diag([4 * 2 * 0.09 / 3, 4 * 0.25 / 3]))


def test_weighted_norm_rows_have_the_bits_of_one_dimensional_calls():
    rng = np.random.default_rng(31)
    for atoms in (1, 9, 200, 1000):
        dist = random_distribution(rng, k=atoms)
        g = rng.normal(size=(30, atoms))
        rows = weighted_norm(dist, g)
        one = [weighted_norm(dist, row) for row in g]
        assert all(type(v) is float for v in one)
        assert hex_bits(rows) == hex_bits(one)
        assert hex_bits(one) == hex_bits(
            check_oracle.norm(dist, row) for row in g)
    with pytest.raises(ValueError):
        weighted_norm(dist, g.reshape(2, 15, atoms))


def test_weighted_norm_is_a_seminorm():
    rng = np.random.default_rng(29)
    dist = random_distribution(rng, k=6)
    g = rng.normal(size=6)
    h = rng.normal(size=6)
    assert weighted_norm(dist, g + h) <= (weighted_norm(dist, g)
                                          + weighted_norm(dist, h) + 1e-12)
    assert weighted_norm(dist, 3.0 * g) == pytest.approx(
        3.0 * weighted_norm(dist, g))
    # noiseless atoms contribute nothing
    pure = DiscreteDistribution(x=[[0.0], [1.0]], p=[0.5, 0.5],
                                eta=[0.0, 1.0])
    assert weighted_norm(pure, np.array([7.0, -4.0])) == 0.0


def test_context_carries_the_optimal_rule():
    dist, dic, cp = plateau_fixture()
    ctx = make_context(dist, dic, cp)
    assert np.array_equal(ctx.f0_values, [-1.0, 0.0, 1.0])
    assert ctx.phi.shape == (3, 2)


def test_margin_exponent_near_one_for_uniform_eta():
    k = 1000
    eta = (np.arange(k) + 0.5) / k
    dist = DiscreteDistribution(x=np.zeros((k, 1)), p=np.full(k, 1.0 / k),
                                eta=eta)
    est = complexity_estimate(dist, 0.25)
    assert est.alpha == pytest.approx(1.0, abs=0.1)
    assert est.a_const >= 1.0
    # the fitted pair really bounds the step function everywhere
    for t in np.geomspace(5e-4, 1.0, 50):
        mass = max(np.sum(dist.p[np.abs(eta - 0.25) <= t]),
                   np.sum(dist.p[np.abs(eta - 0.75) <= t]))
        assert mass <= est.a_const * t**est.alpha + 1e-12


def test_margin_exponent_atom_on_threshold():
    dist = DiscreteDistribution(x=[[0.0], [1.0]], p=[0.5, 0.5],
                                eta=[0.25, 0.5])
    est = complexity_estimate(dist, 0.25)
    assert (est.alpha, est.a_const, est.gap) == (0.0, 1.0, 0.0)
    for d in (0.0, 0.51, -0.25, math.nan):
        with pytest.raises(ValueError, match=r"outside \(0, 0\.5\]"):
            complexity_estimate(dist, d)


def test_margin_exponent_matches_its_per_width_rescan():
    # the sorted cumulative sums add in another order than the rescan
    rng = np.random.default_rng(47)
    dists = [logistic_atoms(seed, atoms=80) for seed in (7, 11, 1301)]
    for _ in range(30):
        dist = random_distribution(rng, k=int(rng.integers(2, 40)))
        # ties: repeated eta values, and pairs mirrored about d = 0.25
        eta = rng.choice(np.round(dist.eta, 1), dist.eta.size)
        eta[::3] = np.clip(0.5 - eta[::3], 0.0, 1.0)
        dists.append(DiscreteDistribution(dist.x, dist.p, eta))
    for dist in dists:
        for d in (0.1, 0.25, 0.4, 0.5):
            est = complexity_estimate(dist, d)
            ref = check_oracle.complexity_margin_fit(dist, d)
            assert est.gap == ref[2]
            assert est.alpha == pytest.approx(ref[0], rel=1e-12, abs=1e-12)
            assert est.a_const == pytest.approx(ref[1], rel=1e-12)


def test_norm_excess_risk_check_passes_on_fixture():
    dist, dic, cp = plateau_fixture()
    ctx = make_context(dist, dic, cp)
    rep = check_lemma_a1(ctx, seed=0)
    assert rep.status == "pass"
    assert rep.slack >= 0.0
    assert rep.detail["n_checked"] == 200


def test_norm_excess_risk_check_accepts_explicit_candidates():
    dist, dic, cp = plateau_fixture()
    ctx = make_context(dist, dic, cp)
    rep = check_lemma_a1(ctx, lam_set=[[1.0, 0.0], [0.0, 0.0], [-2.0, 1.0]])
    assert rep.status == "pass"
    assert rep.detail["n_checked"] == 3


def test_population_path_check_passes_on_fixture():
    dist, dic, cp = plateau_fixture()
    ctx = make_context(dist, dic, cp)
    rep = check_prop21(ctx, population_path(ctx, np.linspace(0.03, 0.6, 20)))
    assert rep.status == "pass"
    trace = rep.detail["trace"]
    assert len(trace) == 20
    assert rep.detail["l1_at_zero"] == pytest.approx(1.0)
    # the trace's l1 column is non-increasing in r
    l1s = [row[1] for row in trace]
    assert all(a >= b - 1e-7 for a, b in zip(l1s, l1s[1:]))
    with pytest.raises(ValueError):
        population_path(ctx, [])
    with pytest.raises(ValueError):
        population_path(ctx, [0.0, 0.1])


def _plateau_path(steps):
    """Hand-built PopulationPath from (r, lam, unpenalized risk) steps.

    lambda(0) is (1, 0) at risk 0.5; each step's objective is its risk plus
    r times its l1 norm, as a population fit reports it.
    """
    def model(r, lam, risk):
        lam = np.asarray(lam, dtype=float)
        return Model(lam=lam, dic=None, cp=CostParams(0.25), r=r, n_train=1,
                     objective=risk + r * float(np.abs(lam).sum()),
                     iterations=0, c_f=1.0)

    return PopulationPath(model(0.0, [1.0, 0.0], 0.5),
                          np.array([r for r, _, _ in steps]),
                          [model(*step) for step in steps])


def test_plateau_check_passes_through_the_whole_grid():
    rep = check_plateau(_plateau_path([(0.1, [1.0, 0.0], 0.5),
                                       (0.2, [1.0, 0.0], 0.5 + 5e-7)]))
    assert (rep.name, rep.status, rep.slack) == ("plateau", "pass", 0.2)
    assert rep.witness == "plateau verified through r=0.2; grid exhausted"


def test_plateau_check_reports_where_the_solution_breaks():
    # at r = 0.3 the l1 distance moves, or the unpenalized risk alone
    for moved in ((0.3, [0.9, 0.0], 0.5), (0.3, [1.0, 0.0], 0.5 + 2e-6)):
        rep = check_plateau(_plateau_path([(0.1, [1.0, 0.0], 0.5),
                                           (0.2, [1.0, 0.0], 0.5), moved,
                                           (0.4, [0.0, 0.0], 1.0)]))
        assert (rep.status, rep.slack) == ("pass", 0.2)
        assert rep.witness == "plateau verified through r=0.2; breaks by r=0.3"


def test_plateau_check_fails_when_the_first_fit_moved():
    rep = check_plateau(_plateau_path([(0.1, [1.0, 2e-6], 0.5),
                                       (0.2, [1.0, 0.0], 0.5)]))
    assert (rep.status, rep.slack) == ("fail", 0.0)
    assert rep.witness == "solution moved already at r=0.1"


def test_population_path_repairs_dust_in_a_restored_basis():
    # on this distribution a restored basis once held basic values in
    # [-FEAS_TOL, 0): clipped to 0 without a repair, they moved a row by
    # more than FEAS_TOL, the audit failed and the last resort blew up
    dist = logistic_atoms(3939563265)
    dic = build_rbf_lattice((6, 6), dist.x.min(axis=0), dist.x.max(axis=0))
    grid = np.geomspace(0.003, 3.0, 20)
    fits = population_path(make_context(dist, dic, CostParams(0.25)), grid)
    assert list(fits.r) == list(grid)
    assert len(fits.models) == 20
    assert fits.base.r == 0.0


def test_domination_check_passes_on_fixture_and_random():
    dist, dic, cp = plateau_fixture()
    ctx = make_context(dist, dic, cp)
    rep = check_excess_domination(ctx)
    assert rep.status == "pass"
    assert rep.slack >= -1e-12
    rng = np.random.default_rng(37)
    for _ in range(5):
        rdist = random_distribution(rng, dim=2)
        rcp = CostParams(d=float(rng.uniform(0.05, 0.5)))
        rctx = make_context(rdist, build_linear(2), rcp)
        assert check_excess_domination(rctx).status == "pass"


def _pointwise_gap(eta, z, cp):
    """eta phi(z) + (1-eta) phi(-z) - [eta l(z) + (1-eta) l(-z)], per atom
    row and margin column."""
    eta = eta[:, None]
    return (eta * gen_hinge(z, cp) + (1.0 - eta) * gen_hinge(-z, cp)
            - eta * reject_loss(z, cp) - (1.0 - eta) * reject_loss(-z, cp))


def _dense_scan_slack(ctx):
    """sum_k p_k (least gap over a fine margin grid - gap at f0_k).

    The grid holds -1, 0 and 1 exactly, and +-tau with their neighbours
    1e-9 and one ulp away, so a one-sided limit at +-tau is reached to
    rounding.
    """
    tau = ctx.cp.tau
    near = [[t, t - 1e-9, t + 1e-9, np.nextafter(t, -2.0),
             np.nextafter(t, 2.0)] for t in (-tau, tau)]
    z = np.concatenate([np.arange(-4000, 4001) / 1000.0, *near])
    eta = ctx.dist.eta
    least = _pointwise_gap(eta, z, ctx.cp).min(axis=1)
    at_f0 = _pointwise_gap(eta, ctx.f0_values, ctx.cp).diagonal()
    return float(np.sum(ctx.dist.p * (least - at_f0)))


def _domination_cases(rng, count):
    """Random distributions with atoms at eta 0 and 1, on costs at the edges
    of their range (tau = d, tau = 1 - d, d = 0.5) and inside it."""
    for _ in range(count):
        dist = random_distribution(rng, k=int(rng.integers(2, 9)))
        eta = dist.eta.copy()
        pinned = rng.random(eta.size) < 0.4
        eta[pinned] = rng.integers(0, 2, pinned.sum())
        d = float(rng.choice([0.5, rng.uniform(0.02, 0.5)]))
        tau = float(rng.choice([d, 1.0 - d, rng.uniform(d, 1.0 - d)]))
        yield DiscreteDistribution(dist.x, dist.p, eta), CostParams(d, tau)


def test_domination_slack_is_the_infimum_of_a_dense_scan():
    fixture, _, cp = plateau_fixture()
    cases = [(fixture, cp), *_domination_cases(np.random.default_rng(41), 60)]
    for dist, cp in cases:
        ctx = make_context(dist, build_linear(2), cp)
        rep = check_excess_domination(ctx)
        assert rep.status == "pass"
        assert abs(rep.slack - _dense_scan_slack(ctx)) <= 1e-12


def test_domination_check_fails_once_tau_leaves_its_range():
    # costs CostParams refuses, tau below d or above 1 - d, where the
    # infimum can sit at a one-sided limit at +-tau
    fixture, _, _ = plateau_fixture()
    cases = [(fixture, 0.25, 0.1)]
    rng = np.random.default_rng(43)
    for _ in range(60):
        d = float(rng.uniform(0.05, 0.5))
        tau = float(rng.choice([rng.uniform(0.01, d),
                                rng.uniform(1.0 - d, 0.99)]))
        cases.append((random_distribution(rng), d, tau))
    reports = []
    for dist, d, tau in cases:
        cp = SimpleNamespace(d=d, tau=tau, a=(1.0 - d) / d)
        ctx = make_context(dist, build_linear(2), cp)
        reports.append(check_excess_domination(ctx))
        assert abs(reports[-1].slack - _dense_scan_slack(ctx)) <= 1e-12
    # the fixture's noise atom gains 0.15 by a score just past -tau
    assert reports[0].status == "fail"
    assert math.isclose(reports[0].slack, -0.05)
    assert reports[0].witness == ("atom 1 (eta=0.5): least at f=-tau, "
                                  "optimal rule f0=0")
    assert all(rep.status == ("pass" if rep.slack >= -1e-12 else "fail")
               for rep in reports)


def test_checks_without_candidates_report_an_infinite_slack():
    dist, dic, cp = plateau_fixture()
    ctx = make_context(dist, dic, cp)
    rep = check_lemma_a1(ctx, lam_set=np.empty((0, 2)))
    assert (rep.status, rep.slack) == ("pass", math.inf)
    assert rep.witness == "all candidates satisfied the bound"
    assert rep.detail["n_checked"] == 0


def _captured_slacks(monkeypatch):
    """The slack list each check hands to theory._worst_slack, in order."""
    seen, real = [], theory_module._worst_slack

    def spy(slacks, witness):
        seen.append(list(slacks))
        return real(seen[-1], witness)

    monkeypatch.setattr(theory_module, "_worst_slack", spy)
    return seen


@pytest.mark.parametrize("seed, d", [(7, 0.25), (11, 0.1), (1301, 0.4),
                                     (2024, 0.2)])
@pytest.mark.parametrize("lattice", [None, (4, 4)], ids=["linear", "rbf"])
def test_checks_match_their_per_candidate_loops_bit_for_bit(monkeypatch, seed,
                                                            d, lattice):
    # every slack and the prop21 trace, against one candidate at a time
    dist = logistic_atoms(seed, atoms=60)
    dic = (build_linear(2) if lattice is None else
           build_rbf_lattice(lattice, dist.x.min(axis=0), dist.x.max(axis=0)))
    ctx = make_context(dist, dic, CostParams(d))
    rng = np.random.default_rng(seed)
    lam_set = rng.normal(scale=2.0, size=(50, ctx.phi.shape[1]))
    f_set = rng.uniform(-3.0, 3.0, size=(100, dist.n_atoms))
    fits = population_path(ctx, np.geomspace(0.01, 1.0, 4))
    seen = _captured_slacks(monkeypatch)
    lemma = check_lemma_a1(ctx, lam_set=lam_set)
    prop = check_prop21(ctx, fits)
    domination = check_excess_domination(ctx)
    assert hex_bits(seen[0]) == hex_bits(
        check_oracle.lemma_a1_slacks(ctx, lam_set))
    slacks, trace = check_oracle.prop21_slacks(ctx, fits)
    assert hex_bits(seen[1]) == hex_bits(slacks)
    assert [hex_bits(row) for row in prop.detail["trace"]] == [
        hex_bits(row) for row in trace]
    # the exact infimum lies at or below every sampled score vector's slack
    assert domination.slack <= min(check_oracle.domination_slacks(ctx, f_set))
