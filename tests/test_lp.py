"""Solver correctness against hand-worked fixtures and the enumeration oracle."""

import time

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from rejectsvm import lp as lp_module
from rejectsvm.constants import FEAS_TOL, PIVOT_TOL
from rejectsvm.dictionary import (
    DesignMatrix,
    build_linear,
    build_rbf_lattice,
    estimated_c_f,
    evaluate,
)
from rejectsvm.losses import CostParams
from rejectsvm.lp import (
    LinearProgram,
    LpInputError,
    LpNumericalError,
    LpPath,
    solve_lp,
)
from rejectsvm.sim import ExperimentConfig, gen_mixture, gen_two_gaussian
from rejectsvm.train import _crash_start, _hinge_lp, default_r_grid, split_lp

from helpers import (
    factored_start,
    loaded_modules,
    logistic_atoms,
    random_lp,
    seeded_path,
    within_highs,
)
from oracle import LpOversizeError, enumerate_vertices_oracle


def test_hand_worked_two_variable_program():
    # min -x - y  s.t.  x + 2y <= 4,  3x + y <= 6,  x,y >= 0
    # vertices: (0,0), (2,0), (0,2), (8/5, 6/5); optimum at the crossing
    lp = LinearProgram(objective=[-1.0, -1.0],
                       rows=[[1.0, 2.0], [3.0, 1.0]],
                       relations=["<=", "<="], rhs=[4.0, 6.0],
                       lower=[0.0, 0.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - (-14.0 / 5.0)) < 1e-12
    assert np.allclose(sol.x, [8.0 / 5.0, 6.0 / 5.0], atol=1e-12)


def test_equality_and_free_variable():
    # min x + y  s.t.  x + y = 2, x - y <= 0, y free
    # substitute y = 2 - x: objective constant 2, need x <= 1
    lp = LinearProgram(objective=[1.0, 1.0],
                       rows=[[1.0, 1.0], [1.0, -1.0]],
                       relations=["=", "<="], rhs=[2.0, 0.0],
                       lower=[0.0, -np.inf])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 2.0) < 1e-9
    assert sol.x[0] + sol.x[1] == pytest.approx(2.0, abs=1e-9)
    assert sol.x[0] <= sol.x[1] + 1e-9
    # min -x s.t. x + y = 1, x, y >= 0: the slack start puts the >= half's
    # slack at -1, and the solve still reaches the vertex (1, 0)
    sol = solve_lp(LinearProgram(objective=[-1.0, 0.0], rows=[[1.0, 1.0]],
                                 relations=["="], rhs=[1.0], lower=[0.0, 0.0]))
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-12)


def test_reports_infeasible():
    lp = LinearProgram(objective=[1.0], rows=[[1.0], [1.0]],
                       relations=["<=", ">="], rhs=[1.0, 2.0], lower=[0.0])
    assert solve_lp(lp).status == "infeasible"


def test_reports_unbounded():
    lp = LinearProgram(objective=[-1.0], rows=[[-1.0]],
                       relations=["<="], rhs=[0.0], lower=[0.0])
    sol = solve_lp(lp)
    assert sol.status == "unbounded"
    assert sol.iterations == 0  # x enters the slack basis along a ray


def test_two_sided_bounds_become_active():
    lp = LinearProgram(objective=[1.0, -1.0], rows=np.zeros((0, 2)),
                       relations=[], rhs=[],
                       lower=[-2.0, -1.5], upper=[3.0, 0.5])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [-2.0, 0.5], atol=1e-12)


def _slack_start(lp):
    """The basic solution of lp's slack basis, which is diagonal."""
    A, b = lp_module._to_standard_form(lp)[:2]
    m, ncols = A.shape
    return A[:, ncols - m:].diagonal() * b


def _oracle_programs():
    """The 290 random programs the enumeration oracle decides."""
    rng = np.random.default_rng(7)
    small = np.random.default_rng(21)
    programs = [random_lp(rng) for _ in range(250)]
    return programs + [random_lp(small, max_vars=4, max_cons=5)
                       for _ in range(40)]


def test_matches_enumeration_oracle_on_random_programs():
    t0 = time.time()
    programs = _oracle_programs()
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    infeasible_start = 0  # programs whose slack start is infeasible
    for lp in programs:
        sol = solve_lp(lp)
        infeasible_start += bool(np.any(_slack_start(lp) < -PIVOT_TOL))
        ref = enumerate_vertices_oracle(lp)
        assert sol.status == ref.status
        statuses[sol.status] += 1
        if sol.status == "optimal":
            assert abs(sol.objective_value - ref.objective_value) < 1e-7
            # the reported point must itself be feasible and consistent
            assert abs(float(lp.objective @ sol.x) - sol.objective_value) < 1e-9
    assert min(statuses.values()) > 5  # all three verdicts exercised
    assert infeasible_start > 5
    assert time.time() - t0 < 10.0


def test_cold_start_is_the_factored_slack_start_bit_for_bit():
    # the slack basis is diag(sigma), its own inverse: the start written
    # as sigma [A_N | b] has a sparse LU's tableau and nonbasic order, bit
    # for bit, signed zeros and the clipped roundoff dust included
    for lp in _oracle_programs():
        A, b, _, sigma, _ = lp_module._to_standard_form(lp)
        m, ncols = A.shape
        T, nonbasic = lp_module._start_tableau(A, b, sigma)
        want, want_nonbasic = factored_start(A, b, ncols - m + np.arange(m))
        assert T.dtype == want.dtype and T.shape == want.shape
        assert T.flags.f_contiguous
        assert T.tobytes() == want.tobytes()
        assert nonbasic.dtype == want_nonbasic.dtype
        assert nonbasic.tobytes() == want_nonbasic.tobytes()


def test_fits_and_solves_load_no_factorization_or_optimizer():
    # a fresh process that fits, fits a population and solves a general
    # program loads neither SciPy's sparse solvers nor its optimizers
    assert loaded_modules(
        "import numpy as np\n"
        "import rejectsvm as rs\n"
        "cp = rs.CostParams(0.25)\n"
        "rs.fit(rs.DesignMatrix(np.array([[1.0, 0.5], [-1.0, 0.2]]),"
        " np.array([1.0, -1.0])), cp, 0.1)\n"
        "rs.fit_population(rs.DiscreteDistribution(np.eye(2), np.full(2, 0.5),"
        " np.array([0.2, 0.9])), rs.build_linear(2), cp, 0.1)\n"
        "rs.solve_lp(rs.LinearProgram([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]],"
        " ['<=', '>='], [4.0, 6.0], lower=[0.0, 0.0]))",
        "scipy.sparse.linalg", "scipy.optimize") == []


def test_bitwise_determinism():
    lp = LinearProgram(objective=[-1.0, -2.0, 0.5],
                       rows=[[1.0, 1.0, 1.0], [2.0, -1.0, 0.0]],
                       relations=["<=", ">="], rhs=[4.0, 1.0],
                       lower=[0.0, 0.0, 0.0], upper=[2.5, 2.5, 2.5])
    ref = solve_lp(lp)
    for _ in range(5):
        again = solve_lp(lp)
        assert again.x.tobytes() == ref.x.tobytes()
        assert repr(again.objective_value) == repr(ref.objective_value)


def _dual_pivots(monkeypatch):
    """Record the pivots of every dual simplex run, cold start or restore."""
    pivots = []
    real = lp_module._dual_simplex

    def counting(T, basis, nonbasic, state):
        before = state["iter"]
        raised = real(T, basis, nonbasic, state)
        pivots.append(state["iter"] - before)
        return raised

    monkeypatch.setattr(lp_module, "_dual_simplex", counting)
    return pivots


def test_slack_start_with_roundoff_dust_takes_no_phase_one_pivot(monkeypatch):
    # a shifted bound leaves -2.2e-16 in one slack's starting value; that is
    # set to 0, so the slack start is feasible and the dual simplex is idle
    lp = random_lp(np.random.default_rng(1509), 12, 14)
    start = _slack_start(lp)
    assert np.all(start >= -PIVOT_TOL) and start.min() < 0.0
    dual = _dual_pivots(monkeypatch)
    sol = solve_lp(lp)
    assert dual[0] == 0 and sol.iterations > 0
    ref = enumerate_vertices_oracle(lp)
    assert sol.status == ref.status == "optimal"
    assert abs(sol.objective_value - ref.objective_value) < 1e-9


def test_rejects_malformed_input():
    with pytest.raises(LpInputError):
        LinearProgram(objective=[1.0], rows=[[1.0, 2.0]],
                      relations=["<="], rhs=[1.0])
    with pytest.raises(LpInputError):
        LinearProgram(objective=[1.0], rows=[[1.0]],
                      relations=["<"], rhs=[1.0])
    with pytest.raises(LpInputError):
        LinearProgram(objective=[np.nan], rows=[[1.0]],
                      relations=["<="], rhs=[1.0])
    with pytest.raises(LpInputError):
        LinearProgram(objective=[1.0], rows=[[1.0]],
                      relations=["<="], rhs=[np.inf])
    with pytest.raises(LpInputError):
        LinearProgram(objective=[1.0, 1.0], rows=[[1.0, 1.0]],
                      relations=["<="], rhs=[1.0],
                      lower=[0.0, 2.0], upper=[1.0, 1.0])


@pytest.mark.parametrize("kwargs, message", [
    ({"rhs": [1.0, 2.0]}, r"rhs has shape \(2,\), expected \(1,\)"),
    ({"rows": [[1.0, np.nan]]}, "constraint rows contain non-finite"),
    ({"rows": [[1.0, np.inf]]}, "constraint rows contain non-finite"),
    ({"lower": [0.0]}, "one entry per variable"),
    ({"upper": [1.0, 1.0, 1.0]}, "one entry per variable"),
    ({"lower": [0.0, np.nan]}, "variable bounds contain NaN"),
    ({"upper": [np.nan, 1.0]}, "variable bounds contain NaN"),
])
def test_rejects_malformed_rhs_rows_and_bounds(kwargs, message):
    data = {"objective": [1.0, 1.0], "rows": [[1.0, 1.0]],
            "relations": ["<="], "rhs": [1.0], **kwargs}
    with pytest.raises(LpInputError, match=message):
        LinearProgram(**data)


def test_variables_default_to_free():
    lp = LinearProgram(objective=[1.0, 1.0], rows=[[1.0, 1.0]],
                       relations=[">="], rhs=[1.0])
    assert np.array_equal(lp.lower, [-np.inf, -np.inf])
    assert np.array_equal(lp.upper, [np.inf, np.inf])


def test_oracle_refuses_oversized_problems():
    rng = np.random.default_rng(0)
    lp = LinearProgram(objective=rng.normal(size=30),
                       rows=rng.normal(size=(4, 30)),
                       relations=["<="] * 4, rhs=np.ones(4),
                       lower=np.zeros(30))
    with pytest.raises(LpOversizeError):
        enumerate_vertices_oracle(lp)


def test_iteration_count_is_reported():
    lp = LinearProgram(objective=[-1.0, -1.0],
                       rows=[[1.0, 2.0], [3.0, 1.0]],
                       relations=["<=", "<="], rhs=[4.0, 6.0],
                       lower=[0.0, 0.0])
    sol = solve_lp(lp)
    assert sol.iterations > 0


# ---------------------------------------------------------------------------
# one attempt: a failure names its reason and the pivots it took

def _two_variable_program():
    return LinearProgram(objective=[-1.0, -1.0],
                         rows=[[1.0, 2.0], [3.0, 1.0]],
                         relations=["<=", "<="], rhs=[4.0, 6.0],
                         lower=[0.0, 0.0])


def _budget(monkeypatch, pivots):
    """Give every solve a budget of the given number of pivots."""
    monkeypatch.setattr(lp_module, "_pivot_budget", lambda m, ncols: pivots)


def test_exhausted_pivot_budget_ends_the_solve(monkeypatch):
    # the slack start needs two pivots; one budget covers the whole solve
    _budget(monkeypatch, 2)
    sol = solve_lp(_two_variable_program())
    assert sol.status == "optimal" and sol.iterations == 2
    assert abs(sol.objective_value - (-14.0 / 5.0)) < 1e-12
    # with one pivot fewer the solve fails, and no second attempt follows
    _budget(monkeypatch, 1)
    path = LpPath()
    with pytest.raises(LpNumericalError,
                       match="^simplex iteration limit exceeded after 2 pivots$"):
        solve_lp(_two_variable_program(), path=path)
    assert path.program is None  # a failed solve leaves no tableau behind


@pytest.mark.parametrize("message", [
    "simplex iteration limit exceeded",
    "tableau magnitude exceeded blow-up limit",
    "pivot element vanished",
])
def test_numerical_guard_ends_the_solve_with_its_reason(monkeypatch, message):
    # a numerical guard ends the solve at once, with its reason
    calls = []

    def guarded(*args):
        calls.append(1)
        raise LpNumericalError(message)

    monkeypatch.setattr(lp_module, "_run_phase", guarded)
    with pytest.raises(LpNumericalError, match=f"^{message} after 0 pivots$"):
        solve_lp(_two_variable_program())
    assert len(calls) == 1


def _failed_audit(lp, x, sense):
    raise LpNumericalError("forced audit failure")


@pytest.mark.parametrize("owner, name, fake, reason", [
    (lp_module, "_audit_feasible", _failed_audit, "forced audit failure"),
], ids=["failed audit"])
def test_restore_and_audit_failures_end_the_solve_named(monkeypatch, owner,
                                                       name, fake, reason):
    # the failure reaches the caller named, after the two pivots taken
    monkeypatch.setattr(owner, name, fake)
    with pytest.raises(LpNumericalError, match=f"^{reason} after 2 pivots$"):
        solve_lp(_two_variable_program())


def test_failure_names_its_one_reason_and_pivots(monkeypatch):
    # the solve's one attempt is unrelaxed; its error is the one reason
    # with its pivot count, and nothing else
    _budget(monkeypatch, 0)
    with pytest.raises(LpNumericalError) as err:
        solve_lp(_two_variable_program())
    assert str(err.value) == "simplex iteration limit exceeded after 1 pivots"


def _entering(monkeypatch):
    """Record the variable entering at every counted pivot."""
    entering = []
    real = lp_module._counted_pivot

    def counting(T, basis, nonbasic, r, p, state):
        entering.append(int(nonbasic[p]))
        return real(T, basis, nonbasic, r, p, state)

    monkeypatch.setattr(lp_module, "_counted_pivot", counting)
    return entering


def _redundant_program():
    """min x + 2y s.t. x + y = 1, 2x + 2y = 2, x - y <= 0.5, x, y >= 0.

    The second equality row is redundant, but each of its halves keeps a
    slack, so no row is dropped.  The optimum is (3/4, 1/4).
    """
    return LinearProgram(objective=[1.0, 2.0],
                         rows=[[1.0, 1.0], [2.0, 2.0], [1.0, -1.0]],
                         relations=["=", "=", "<="], rhs=[1.0, 2.0, 0.5],
                         lower=[0.0, 0.0])


def _tied_tableau(cost, row, basic):
    """One-row condensed tableau over variables 5 and 2, in that order.

    Both columns score the same, so only the tie-break chooses.
    """
    T = np.asfortranarray([row + [1.0], cost + [0.0]])
    return T, np.array([basic]), np.array([5, 2])


def test_steepest_edge_ties_enter_the_lowest_variable():
    T, basis, nonbasic = _tied_tableau([-1.0, -1.0], [1.0, 1.0], 0)
    state = {"iter": 0, "max_iter": 10}
    assert lp_module._run_phase(T, basis, nonbasic, state) is None
    assert state["iter"] == 1
    # variable 2 entered from position 1, not variable 5 from position 0
    assert basis.tolist() == [2] and nonbasic.tolist() == [5, 0]


def test_dual_simplex_ties_enter_the_lowest_variable():
    T, basis, nonbasic = _tied_tableau([1.0, 1.0], [-1.0, -1.0], 3)
    T[0, -1] = -1.0
    state = {"iter": 0, "max_iter": 10}
    assert lp_module._dual_simplex(T, basis, nonbasic, state)
    assert T[0, -1] == 1.0 and state["iter"] == 1
    assert basis.tolist() == [2] and nonbasic.tolist() == [5, 3]


def test_dual_simplex_raises_the_lowest_basic_variable_first():
    # variables 4 and 1 are both below -PIVOT_TOL, 4 the further; by
    # Bland's rule variable 1's row leaves, and the one pivot, on
    # variable 6, raises both rows
    T = np.asfortranarray([[-5.0, -5.0], [-1.0, -1.0], [0.0, 0.0]])
    basis, nonbasic = np.array([4, 1]), np.array([6])
    state = {"iter": 0, "max_iter": 10}
    assert lp_module._dual_simplex(T, basis, nonbasic, state)
    assert basis.tolist() == [4, 6] and nonbasic.tolist() == [1]
    assert state["iter"] == 1 and T[:2, -1].tolist() == [0.0, 1.0]


def test_dual_simplex_stops_at_a_row_no_column_raises():
    # variable 3's row has no entry below -PIVOT_TOL: no pivot raises it,
    # and the routine says so with the tableau untouched
    T = np.asfortranarray([[0.5, -PIVOT_TOL, -1.0], [1.0, 2.0, 0.0]])
    before = T.copy()
    basis, nonbasic = np.array([3]), np.array([0, 1])
    state = {"iter": 0, "max_iter": 10}
    assert not lp_module._dual_simplex(T, basis, nonbasic, state)
    assert state["iter"] == 0 and np.array_equal(T, before)


def _harris_pick(col, rhs, basis):
    """The basis after one pivot of a column over rows holding basis.

    The column is variable 9; its reduced cost is -1 and its ratio test
    alone decides the leaving row.  Returns (basis, rhs column).
    """
    T = np.asfortranarray(np.column_stack([col + [-1.0], rhs + [0.0]]))
    basis, nonbasic = np.array(basis), np.array([9])
    state = {"iter": 0, "max_iter": 1}
    assert lp_module._run_phase(T, basis, nonbasic, state) is None
    assert state["iter"] == 1
    return basis.tolist(), T[:-1, -1]


def test_harris_ratio_test_takes_the_lowest_basic_variable_of_large_near_ties():
    # row 1's ratio is 5e-13 above row 0's, inside pass 1's bound, so it
    # ties, and variable 3 leaves from the later row.  Breaking this tie by
    # the largest pivot element instead cycled on the seed-2024 study LP.
    assert _harris_pick([1.0, 1.0], [1.0, 1.0 + 5e-13], [7, 3])[0] == [7, 9]
    # a ratio PIVOT_TOL / col above the least is out of reach
    assert _harris_pick([1.0, 1.0], [1.0, 1.0 + 2 * PIVOT_TOL],
                        [7, 3])[0] == [9, 3]
    # variable 2's row ties, but its entry is below a tenth of the largest,
    # so it is passed over for the lowest of the others
    # and its ratio is even the least; the step then takes its value just
    # below 0, which pass 1's bound keeps above -PIVOT_TOL
    basis, rhs = _harris_pick([1.0, 0.09, 1.0], [1.0, 0.09 - 5e-11, 1.0],
                              [7, 2, 3])
    assert basis == [7, 2, 9]
    assert -PIVOT_TOL <= rhs[1] < 0.0
    # a leaving value below 0 is set to 0 first: the step is not backwards
    basis, rhs = _harris_pick([1.0, 1.0], [-0.5 * PIVOT_TOL, 1.0], [7, 3])
    assert basis == [9, 3] and rhs.tolist() == [0.0, 1.0]


def test_a_column_with_no_positive_entry_is_returned_unpivoted():
    # variable 2 wins the pricing, and its column has no entry above
    # PIVOT_TOL: the edge is a ray, returned as its column position
    T = np.asfortranarray([[1.0, -1.0, 1.0], [1.0, PIVOT_TOL, 1.0],
                           [-1.0, -2.0, 0.0]])
    before = T.copy()
    basis, nonbasic = np.array([0, 1]), np.array([5, 2])
    state = {"iter": 0, "max_iter": 10}
    assert lp_module._run_phase(T, basis, nonbasic, state) == 1
    assert state["iter"] == 0 and np.array_equal(T, before)
    assert basis.tolist() == [0, 1] and nonbasic.tolist() == [5, 2]


def _audited_program():
    """x0 <= 1, x1 >= 1 and x2 = 1, with 0 <= x3 <= 1; x = 1 is feasible."""
    return LinearProgram(objective=np.zeros(4), rows=np.eye(3, 4),
                         relations=["<=", ">=", "="], rhs=np.ones(3),
                         lower=np.zeros(4), upper=[np.inf] * 3 + [1.0])


@pytest.mark.parametrize("moved, message", [
    ({0: 1.5}, "violates row 0 by 5.000e-01"),
    ({1: 0.5}, "violates row 1 by -5.000e-01"),
    ({2: 1.5}, "violates row 2 by 5.000e-01"),
    ({2: 0.5}, "violates row 2 by -5.000e-01"),
    ({3: 1.5}, "violates a variable bound"),
    ({3: -0.5}, "violates a variable bound"),
    ({2: 0.5, 1: 0.5, 3: 2.0}, "violates row 1 by -5.000e-01"),  # the first
])
def test_feasibility_audit_names_the_violated_row(moved, message):
    lp = _audited_program()
    sense = lp_module._to_standard_form(lp)[-1]  # the row signs a solve uses
    x = np.ones(4)
    for k in range(4):  # within FEAS_TOL on either side of each bound
        for step in (-0.5 * FEAS_TOL, 0.5 * FEAS_TOL):
            x[k] = 1.0 + step
            lp_module._audit_feasible(lp, x, sense)
        x[k] = 1.0
    x[list(moved)] = list(moved.values())
    with pytest.raises(LpNumericalError, match=message + "$"):
        lp_module._audit_feasible(lp, x, sense)


def _gap_program(gap):
    """x + y <= 1 and x + y >= 1 + gap: infeasible, but only by gap."""
    return LinearProgram(objective=[1.0, 1.0], rows=[[1.0, 1.0], [1.0, 1.0]],
                         relations=["<=", ">="], rhs=[1.0, 1.0 + gap],
                         lower=[0.0, 0.0])


@pytest.mark.parametrize("gap", [0.0, 1e-10, 5e-9, 5e-8, 9e-8, 1e-7, 1.5e-7,
                                 3e-7, 1e-6])
def test_gap_just_above_feas_tol_is_an_infeasible_verdict(gap):
    # x enters at the >= row, which leaves the <= row's slack at -gap with
    # no column to raise it: a gap beyond PIVOT_TOL, below FEAS_TOL or
    # above it, is a verdict and not a numerical failure, and a smaller
    # one is roundoff dust
    sol = solve_lp(_gap_program(gap))
    assert sol.iterations == 1
    if gap > PIVOT_TOL:
        assert sol.status == "infeasible"
    else:
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0 + gap, abs=1e-12)


def test_failed_dual_repair_is_named(monkeypatch):
    # min -x s.t. x <= 1 is optimal after x enters for the slack; handed a
    # restored value below -PIVOT_TOL, the repair finds no negative entry
    # in x's row to pivot on, and the solve fails with that reason
    monkeypatch.setattr(lp_module, "_refined",
                        lambda *args: np.array([-2 * PIVOT_TOL]))
    path = LpPath()
    with pytest.raises(LpNumericalError, match="^dual repair found no "
                                               "entering column after 1 pivots$"):
        solve_lp(LinearProgram(objective=[-1.0], rows=[[1.0]], relations=["<="],
                               rhs=[1.0], lower=[0.0]), path=path)
    assert path.program is None


def _probe_fold(index):
    """Fold 0 of a 5-fold CV of the RBF mixture at grid point index of 10.

    Returns the fold's LP, its feature count, its HiGHS reference (fold,
    cost and r, as within_highs takes them) and its penalty grid.
    """
    x, y, _ = gen_mixture(200, 3)
    dic = build_rbf_lattice((10, 10), x.min(axis=0), x.max(axis=0), beta=2.0)
    cp = CostParams(d=0.25, tau=0.5)
    design = evaluate(dic, x, y)
    grid = default_r_grid(cp, estimated_c_f(dic, design), num=10)
    keep = np.arange(design.n) % 5 != 0
    fold = DesignMatrix(design.phi[keep], design.y[keep])
    r = float(grid[index])
    return split_lp(fold, cp, r), fold.M, (fold, cp, r), grid


def test_negative_restored_value_is_repaired_and_kept_on_the_path(monkeypatch):
    # a restored basic solution with a value below -PIVOT_TOL is repaired
    # by dual pivots, and the repaired tableau stays on the path: the next
    # solve, of the same program re-costed, starts warm from it
    lp, M, (fold, cp, r), grid = _probe_fold(6)
    real_restore = lp_module._refined

    def dipped(*args):
        x_b = real_restore(*args)
        x_b[np.argmin(x_b)] = -2 * PIVOT_TOL  # a degenerate value, dipped
        return x_b

    monkeypatch.setattr(lp_module, "_refined", dipped)
    dual = _dual_pivots(monkeypatch)
    path = seeded_path(lp, *_crash_start(lp, M))
    sol = solve_lp(lp, path=path)
    # a seeded start runs no dual pass: the one dual run is the restore's
    assert sol.status == "optimal" and sol.warm
    assert dual[0] > 0 and len(dual) == 1
    assert within_highs(sol.objective_value, fold, cp, r)
    # the path holds the repaired basis, and its clipped basic solution is
    # the tableau's right-hand-side column
    assert path.program is lp and path.tableau[:-1, -1].min() >= 0.0
    x_std = np.zeros(path.form[0].shape[1])
    x_std[path.basis] = path.tableau[:-1, -1]
    assert np.array_equal(x_std[:lp.nvar], sol.x)  # every bound is 0
    monkeypatch.setattr(lp_module, "_refined", real_restore)
    lp.objective[:2 * fold.M] = grid[7]  # the penalty costs
    sol = solve_lp(lp, path=path)
    assert sol.status == "optimal" and sol.warm and not any(dual[1:])
    assert within_highs(sol.objective_value, fold, cp, grid[7])


def _restores(monkeypatch):
    """Record every restore as (A, b, basis, values before, values after)."""
    seen = []
    real = lp_module._refined

    def recording(A, b, sigma, T, basis, nonbasic):
        before = T[:-1, -1].copy()
        x_b = real(A, b, sigma, T, basis, nonbasic)
        seen.append((A, b, basis.copy(), before, x_b.copy()))
        return x_b

    monkeypatch.setattr(lp_module, "_refined", recording)
    return seen


def _probe_walk():
    lp, M, _, grid = _probe_fold(0)
    return lp, M, grid


def _population_walk():
    lp, M, _ = _population_lp(3939563265, 3.0, CostParams(0.25))
    return lp, M, np.geomspace(0.003, 3.0, 20)


@pytest.mark.parametrize("walk", [_probe_walk, _population_walk],
                         ids=["probe fold", "atoms 3939563265"])
def test_restored_values_match_a_factor_of_the_final_basis(monkeypatch, walk):
    # every restore of a walk refines the tableau's drifted values once,
    # with B^-1 read from the tableau, to within 1e-13 relative of a sparse
    # LU solve of the same basis
    lp, M, grid = walk()
    seen = _restores(monkeypatch)
    path = seeded_path(lp, *_crash_start(lp, M))
    for r in sorted(grid, reverse=True):
        lp.objective[:2 * M] = r
        assert solve_lp(lp, path=path).status == "optimal"
    assert len(seen) >= 5
    drift = 0.0
    for A, b, basis, before, x_b in seen:
        oracle = splu(A[:, basis]).solve(b)
        scale = np.max(np.abs(oracle))
        drift = max(drift, np.max(np.abs(before - oracle)) / scale)
        assert np.max(np.abs(x_b - oracle)) <= 1e-13 * scale
    assert drift > 1e-11  # the tableau's own values would not pass


def _population_lp(seed, r, cp):
    """The population hinge LP of logistic_atoms(seed) on a 6x6 RBF lattice,
    its feature count and its HiGHS reference."""
    dist = logistic_atoms(seed)
    dic = build_rbf_lattice((6, 6), dist.x.min(axis=0), dist.x.max(axis=0))
    phi = evaluate(dic, dist.x).phi
    return (_hinge_lp(phi, dist.p, dist.eta, cp, r), dic.M,
            (dist, cp, r, dic))


def _study_lp(d, r):
    config = ExperimentConfig("two_gaussian", repetitions=1)
    design = evaluate(build_linear(config.M), *gen_two_gaussian(
        config.n_train // 2, config.M, 2024)[:2])
    cp = CostParams(d=d, tau=0.5)
    return split_lp(design, cp, r), design.M, (design, cp, r)


@pytest.mark.parametrize("build", [
    lambda: _population_lp(4185785210, 0.0, CostParams(0.25)),
    lambda: _population_lp(3939563265, 0.003, CostParams(0.25)),
    lambda: _population_lp(3939563265, 0.0043, CostParams(0.25)),
    lambda: _population_lp(3939563265, 0.0062, CostParams(0.25)),
    lambda: _population_lp(3939563265, 0.0266, CostParams(0.25)),
    lambda: _probe_fold(6)[:3],
    lambda: _study_lp(0.25, 0.1077),
], ids=["atoms 4185785210 r=0", "atoms 3939563265 r=0.003",
        "atoms 3939563265 r=0.0043", "atoms 3939563265 r=0.0062",
        "atoms 3939563265 r=0.0266", "probe fold r=0.0966",
        "study d=0.25 r=0.1077"])
def test_cold_start_decides_degenerate_package_lps(build):
    # degenerate LPs the package builds, each solved once from its crash
    # start, seeded as train seeds it; atoms 4185785210 and 3939563265 are
    # the third and second distributions the diagnose benchmark draws at
    # seed 7.  Without the Harris ratio test the first five, then built
    # with two rows per atom and label, outgrew the blow-up limit, and the
    # probe fold ended on a false ray; the study LP cycled when ties went
    # to the largest pivot element.  In the epigraph form the first five
    # take 213, 166, 166, 154 and 118 pivots
    lp, M, reference = build()
    sol = solve_lp(lp, path=seeded_path(lp, *_crash_start(lp, M)))
    assert sol.status == "optimal"
    assert within_highs(sol.objective_value, *reference)


def test_unbounded_ray_is_audited(monkeypatch):
    # min -x - y s.t. x - y <= 1: the edge x = y is a ray of the original
    # data, so it passes the audit; the same ray reversed does not
    lp = LinearProgram(objective=[-1.0, -1.0], rows=[[1.0, -1.0]],
                       relations=["<="], rhs=[1.0], lower=[0.0, 0.0])
    assert solve_lp(lp).status == "unbounded"
    real = lp_module._simplex_core

    def reversed_ray(*args):
        status, ray, nonbasic, T = real(*args)
        return status, -ray, nonbasic, T

    monkeypatch.setattr(lp_module, "_simplex_core", reversed_ray)
    with pytest.raises(LpNumericalError,
                       match=r"^unbounded ray fails its audit: c\.d = "):
        solve_lp(lp)


def test_redundant_row_is_decided_by_one_attempt(monkeypatch):
    # one attempt decides: from the slack start, where the >= halves are
    # below 0, the dual simplex enters x and then y, and every pivot is
    # counted
    entering = _entering(monkeypatch)
    sol = solve_lp(_redundant_program())
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [0.75, 0.25], atol=1e-12)
    assert sol.iterations == len(entering) > 0
