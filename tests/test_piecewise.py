"""The piecewise-linear simplex of population programs: the epigraph LP,
HiGHS, warm walks, the long step and the dual check against their full
reference forms, and the speed of a wide path."""

import time

import numpy as np
import pytest

from rejectsvm import lp as lp_module
from rejectsvm.constants import FEAS_TOL
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
from piecewise_oracle import full_long_step, masked_slope_interval


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
    # (four rows per atom; 2-core Xeon), 0.014 s of this thread's CPU time
    # in piecewise-linear form (2-core AMD EPYC, one BLAS thread).  The
    # bound is on the calling thread's CPU time: wall time counts other
    # processes' load, and process time a spinning BLAS worker thread
    dist = logistic_atoms(500, 500)
    dic = _lattice(dist, (6, 6))
    ctx = make_context(dist, dic, CostParams(0.25))
    start = time.thread_time()
    fits = population_path(ctx, np.geomspace(0.002, 0.6, 6))
    seconds = time.thread_time() - start
    assert seconds < 0.3
    assert fits.base.iterations + sum(m.iterations for m in fits.models) \
        == 202
    assert within_highs(fits.base.objective, dist, ctx.cp, 0.0, dic)


def _same_decision(got, want):
    length, moved, r, b, beyond = got
    return (length == want[0] and np.array_equal(moved, want[1])
            and (r, b, beyond) == want[2:])


def _checked_steps(monkeypatch):
    """Make lp's long step also run the full collection and assert the
    same decision; returns the list of decisions it fills."""
    lazy, steps = lp_module._long_step, []

    def both(*args):
        got = lazy(*args)
        assert _same_decision(got, full_long_step(*args))
        steps.append(got)
        return got

    monkeypatch.setattr(lp_module, "_long_step", both)
    return steps


def _walks(d):
    """Each _distributions program walked from r = 0.3 down to 0: (x
    bytes, objective repr, iterations, warm) per solve."""
    out = []
    for dist, dic in _distributions():
        phi = evaluate(dic, dist.x).phi
        program = _population_program(phi, dist.p, dist.eta, CostParams(d),
                                      1.0)
        path = LpPath()
        for r in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001, 0.0):
            program.penalty = r
            sol = solve_lp(program, path=path)
            out.append((sol.x.tobytes(), repr(sol.objective_value),
                        sol.iterations, sol.warm))
    return out


@pytest.mark.parametrize("d", [0.25, 0.5])
def test_the_long_step_decides_as_the_full_collection(d, monkeypatch):
    # every step of warm walks down to r = 0 on the random programs and
    # the lattices with atoms at eta 0 and 1 (d = 1/2: a zero jump at 0)
    # stops where the full collection of breakpoints stops, leaves the
    # same row at the same breakpoint and passes the same ones; the walks
    # end with the same bits and iteration counts
    steps = _checked_steps(monkeypatch)
    walked = _walks(d)
    monkeypatch.setattr(lp_module, "_long_step", full_long_step)
    assert walked == _walks(d)
    assert sum(w[3] for w in walked) == 6 * len(walked) // 7
    assert len(steps) == sum(w[2] for w in walked) > 150


def test_a_variable_passing_two_breakpoints_is_read_in_a_later_round(
        monkeypatch):
    # lam enters upward; z_0 = lam passes its breakpoints 0 and 1 (slope
    # jumps 0.1 each) on the way to z_1 = lam / 4 reaching 1 at lam = 4,
    # where a jump of 11 / 4 ends the step.  Round 1 reads z_0's
    # breakpoint 0 only; its breakpoint 1 lies before the stop, so a
    # second round must read it for z_0 to end in its last segment
    program = PiecewiseProgram([[1.0], [0.25]],
                               [[0.0, 0.0, 0.1, 0.2],
                                [-1.0, -1.0, -1.0, 10.0]], [1.0, 1.0], 0.0)
    steps = _checked_steps(monkeypatch)
    sol = solve_lp(program)
    assert steps[0][0] == 4.0 and steps[0][1].tolist() == [0, 0]
    assert sol.x.tolist() == [4.0, 4.0, 1.0]
    assert sol.objective_value == pytest.approx(2.0 + 0.1 + 0.6 - 1.0)


def _drifted_states(rng, count):
    """Random long-step inputs on small programs with slopes from a short
    list (zero jumps and equal rates are common), each basic value at an
    end of its segment, inside it, or anywhere in [-2.5, 2.5] (past one
    or two breakpoints, whose thetas clamp to 0)."""
    for _ in range(count):
        n, M = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        slopes = np.sort(rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0],
                                    size=(n, 4)), axis=1)
        program = PiecewiseProgram(rng.normal(size=(n, M)), slopes,
                                   np.ones(n), float(rng.choice([0.0, 1.0])))
        tables = lp_module._costed(program)
        perm = rng.permutation(M + n)
        basis, nonbasic = perm[:n], perm[n:]
        at = np.ones(M + n, dtype=np.intp)  # a nonbasic lam sits at 0
        at[M:] = rng.integers(0, 3, n)
        at[basis] = np.where(basis < M, rng.integers(1, 3, n),
                             rng.integers(0, 4, n))
        ends = tables.ends[basis, at[basis]], tables.ends[basis, at[basis] + 1]
        inside = np.clip(rng.uniform(np.maximum(ends[0], -3.0),
                                     np.minimum(ends[1], 3.0)), -3.0, 3.0)
        x_b = np.choose(rng.integers(0, 4, n), [
            np.where(np.isfinite(ends[0]), ends[0], inside),
            np.where(np.isfinite(ends[1]), ends[1], inside),
            rng.uniform(-2.5, 2.5, n), inside])
        rate = rng.choice([-1.0, -0.5, 0.0, 1e-12, 0.5, 1.0, 2.0], size=n)
        q = int(rng.choice(nonbasic))
        yield (rate, x_b, basis, at, q, int(at[q]),
               float(rng.choice([-1.0, 1.0])),
               -float(rng.choice([1e-3, 0.1, 1.0, 10.0])), tables)


def test_the_long_step_decides_as_the_full_collection_on_drifted_states():
    decided = refused = passed_twice = 0
    for args in _drifted_states(np.random.default_rng(39), 4000):
        try:
            got = lp_module._long_step(*args)
        except LpNumericalError:
            with pytest.raises(LpNumericalError):
                full_long_step(*args)
            refused += 1
            continue
        assert _same_decision(got, full_long_step(*args))
        decided += 1
        passed_twice += np.unique(got[1]).size < got[1].size
    assert decided > 2000 and refused > 100 and passed_twice > 100


def test_the_counted_slope_interval_matches_the_masked_one():
    # every variable at, and within and just past FEAS_TOL of, each of its
    # breakpoints, lam at exactly 0 and -0.0, and random values
    rng = np.random.default_rng(5)
    program = _population_program(rng.normal(size=(6, 3)), np.full(6, 1 / 6),
                                  np.array([0.0, 1.0, 0.3, 0.5, 0.9, 0.1]),
                                  CostParams(0.5), 0.0)
    near = [b + o for b in (-1.0, 0.0, 1.0)
            for o in (0.0, FEAS_TOL / 2, FEAS_TOL, 2 * FEAS_TOL)]
    near += [np.nextafter(v, s) for v in near for s in (-np.inf, np.inf)]
    near += [-v for v in near] + [0.0, -0.0] + list(rng.uniform(-3, 3, 40))
    for r in (0.0, 0.02):
        program.penalty = r
        tables = lp_module._costed(program)
        for v in near:
            x = np.full(9, v)
            got = lp_module._slope_interval(tables, x)
            want = masked_slope_interval(tables, x)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
