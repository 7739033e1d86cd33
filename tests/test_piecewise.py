"""The piecewise-linear simplex of population programs: the epigraph LP,
HiGHS, warm walks, the dual check and the speed of a wide path."""

import time

import numpy as np
import pytest

from rejectsvm.dictionary import build_linear, build_rbf_lattice, evaluate
from rejectsvm.losses import CostParams, DiscreteDistribution, gen_hinge
from rejectsvm.lp import (
    LpInputError,
    LpNumericalError,
    LpPath,
    PiecewiseProgram,
    solve_lp,
)
from rejectsvm.theory import make_context, population_path
from rejectsvm.train import _crash_start, _hinge_lp, _population_program

from helpers import (
    logistic_atoms,
    random_distribution,
    seeded_path,
    within_highs,
)


def _lattice(dist, shape):
    return build_rbf_lattice(shape, dist.x.min(axis=0), dist.x.max(axis=0))


def _distributions():
    """Seeded distributions with their dictionaries: four small random ones
    on a linear dictionary, then logistic atoms on RBF lattices with a
    sixth of them at eta = 0 and a sixth at eta = 1."""
    rng = np.random.default_rng(38)
    cases = [(random_distribution(rng, k=int(rng.integers(3, 12))),
              build_linear(2)) for _ in range(4)]
    for seed, atoms, shape in ((5, 60, (4, 4)), (3939563265, 200, (6, 6))):
        dist = logistic_atoms(seed, atoms)
        eta = dist.eta.copy()
        eta[:atoms // 6], eta[atoms // 6:atoms // 3] = 0.0, 1.0
        dist = DiscreteDistribution(x=dist.x, p=dist.p, eta=eta)
        cases.append((dist, _lattice(dist, shape)))
    return cases


def _penalized_risk(dist, phi, cp, lam, r):
    z = phi @ lam
    loss = dist.eta * gen_hinge(z, cp) + (1.0 - dist.eta) * gen_hinge(-z, cp)
    return float(dist.p @ loss) + r * float(np.abs(lam).sum())


@pytest.mark.parametrize("d", [0.25, 0.5, 0.1])
def test_piecewise_solves_match_the_epigraph_lp_and_highs(d):
    # d = 1/2 is a = 1, where a cost's jump at 0 is zero; the atoms at
    # eta 0 or 1 have a zero jump at 1 or -1
    cp = CostParams(d)
    for dist, dic in _distributions():
        phi = evaluate(dic, dist.x).phi
        M = dic.M
        for r in (0.0, 0.003, 0.05):
            sol = solve_lp(_population_program(phi, dist.p, dist.eta, cp, r))
            lp = _hinge_lp(phi, dist.p, dist.eta, cp, r)
            ref = solve_lp(lp, path=seeded_path(lp, *_crash_start(lp, M)))
            assert sol.status == ref.status == "optimal"
            assert sol.objective_value == pytest.approx(
                ref.objective_value, rel=1e-12, abs=1e-15)
            assert within_highs(sol.objective_value, dist, cp, r, dic)
            lam, z = sol.x[:M], sol.x[M:]
            assert np.max(np.abs(phi @ lam - z)) <= 1e-12
            assert sol.objective_value == pytest.approx(
                _penalized_risk(dist, phi, cp, lam, r), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("d", [0.25, 0.5])
def test_a_walk_reuses_its_kept_tableau(d):
    # one program re-costed down a grid to r = 0: each solve after the
    # first starts from the tableau the last one kept, pivoted in place,
    # and ends at the optimum a lone solve reaches
    dist = logistic_atoms(7, 120)
    dic = _lattice(dist, (5, 5))
    cp = CostParams(d)
    phi = evaluate(dic, dist.x).phi
    program = _population_program(phi, dist.p, dist.eta, cp, 1.0)
    path = LpPath()
    for r in (0.3, 0.03, 0.003, 0.0003, 0.0):
        program.penalty = r
        kept = path.tableau
        sol = solve_lp(program, path=path)
        assert sol.warm == (kept is not None)
        assert kept is None or path.tableau is kept
        assert path.program is program
        lone = solve_lp(_population_program(phi, dist.p, dist.eta, cp, r))
        assert sol.objective_value == pytest.approx(lone.objective_value,
                                                    rel=1e-12, abs=1e-15)
        assert within_highs(sol.objective_value, dist, cp, r, dic)
    # the same r again takes no iteration and returns the kept point
    again = solve_lp(program, path=path)
    assert again.warm and again.iterations == 0
    assert again.x.tobytes() == sol.x.tobytes()


def _kept_solve():
    """A solved program of 60 atoms on a 4x4 lattice at r = 0.01, its path
    and its feature count."""
    dist = logistic_atoms(11, 60)
    dic = _lattice(dist, (4, 4))
    phi = evaluate(dic, dist.x).phi
    program = _population_program(phi, dist.p, dist.eta, CostParams(0.25),
                                  0.01)
    path = LpPath()
    assert solve_lp(program, path=path).iterations > 0
    return program, path, dic.M


def test_a_tampered_tableau_is_refused_by_the_dual_check():
    # a nonbasic z's column of the tableau gives its atom's dual: moved,
    # the duals no longer price the features' penalty against the data
    program, path, M = _kept_solve()
    column = np.flatnonzero(path.nonbasic >= M)[0]
    path.tableau[0, column] += 1e-3
    with pytest.raises(LpNumericalError, match=r"^dual of feature \d+, "
                       r"\S+, lies outside its slopes \[\S+, \S+\] at \S+ "
                       r"after 0 iterations$"):
        solve_lp(program, path=path)
    assert path.program is None  # a refused solve clears its path


def test_a_tampered_basic_value_is_refused_by_the_row_audit():
    program, path, M = _kept_solve()
    row = np.flatnonzero(path.basis >= M)[0]
    path.tableau[row, -1] += 1e-3
    atom = path.basis[row] - M
    with pytest.raises(LpNumericalError, match=rf"^claimed-optimal point "
                       rf"breaks atom {atom}'s row z = phi lam by "):
        solve_lp(program, path=path)


def test_piecewise_programs_are_validated():
    phi, slopes, at_zero = np.eye(2), np.tile([-1.0, 0.0, 1.0, 2.0], (2, 1)), \
        np.ones(2)
    for bad in (dict(slopes=slopes[:, :3]), dict(at_zero=np.ones(3)),
                dict(phi=np.full((2, 2), np.nan)),
                dict(slopes=slopes[:, ::-1])):
        args = dict(phi=phi, slopes=slopes, at_zero=at_zero, penalty=0.1)
        with pytest.raises(LpInputError):
            PiecewiseProgram(**{**args, **bad})
    program = PiecewiseProgram(phi, slopes, at_zero, 0.1)
    with pytest.raises(ValueError, match="read-only"):
        program.slopes[0, 0] = 5.0
    for penalty in (-0.1, np.nan, np.inf):
        program.penalty = penalty
        with pytest.raises(LpInputError, match="^penalty must be finite"):
            solve_lp(program)


def test_a_500_atom_population_path_is_fast_and_within_highs():
    # a 6-point grid and lambda(0) on 500 atoms: 0.54 s in epigraph form
    # (four rows per atom), about 0.08 s in piecewise-linear form, on a
    # 2-core Xeon with one BLAS thread
    dist = logistic_atoms(500, 500)
    dic = _lattice(dist, (6, 6))
    ctx = make_context(dist, dic, CostParams(0.25))
    start = time.perf_counter()
    fits = population_path(ctx, np.geomspace(0.002, 0.6, 6))
    seconds = time.perf_counter() - start
    assert seconds < 0.3
    assert within_highs(fits.base.objective, dist, ctx.cp, 0.0, dic)
