"""Solver correctness against hand-worked fixtures and the enumeration oracle."""

import time

import numpy as np
import pytest
from scipy.optimize import linprog

from rejectsvm import lp as lp_module
from rejectsvm.dictionary import (
    DesignMatrix,
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
from rejectsvm.sim import gen_mixture
from rejectsvm.train import default_r_grid, split_lp

from helpers import random_lp
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


def test_reports_infeasible():
    lp = LinearProgram(objective=[1.0], rows=[[1.0], [1.0]],
                       relations=["<=", ">="], rhs=[1.0, 2.0], lower=[0.0])
    assert solve_lp(lp).status == "infeasible"


def test_reports_unbounded():
    lp = LinearProgram(objective=[-1.0], rows=[[-1.0]],
                       relations=["<="], rhs=[0.0], lower=[0.0])
    sol = solve_lp(lp)
    assert sol.status == "unbounded"
    assert sol.eps == 0.0  # the relaxed attempt hands its verdict over


def test_two_sided_bounds_become_active():
    lp = LinearProgram(objective=[1.0, -1.0], rows=np.zeros((0, 2)),
                       relations=[], rhs=[],
                       lower=[-2.0, -1.5], upper=[3.0, 0.5])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [-2.0, 0.5], atol=1e-12)


def test_matches_enumeration_oracle_on_random_programs():
    t0 = time.time()
    rng = np.random.default_rng(7)
    small = np.random.default_rng(21)
    programs = [random_lp(rng) for _ in range(250)]
    programs += [random_lp(small, max_vars=4, max_cons=5) for _ in range(40)]
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for lp in programs:
        sol = solve_lp(lp)
        ref = enumerate_vertices_oracle(lp)
        assert sol.status == ref.status
        statuses[sol.status] += 1
        if sol.status == "optimal":
            assert abs(sol.objective_value - ref.objective_value) < 1e-7
            # the reported point must itself be feasible and consistent
            assert abs(float(lp.objective @ sol.x) - sol.objective_value) < 1e-9
    assert min(statuses.values()) > 5  # all three verdicts exercised
    assert time.time() - t0 < 10.0


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


def test_warm_start_reaches_the_same_optimum():
    # x1 + 2y <= 4 and 3x + y <= 6 with slacks in columns 2 and 3;
    # the slack basis (origin vertex) is feasible, so phase 1 is skipped
    lp = LinearProgram(objective=[-1.0, -1.0],
                       rows=[[1.0, 2.0], [3.0, 1.0]],
                       relations=["<=", "<="], rhs=[4.0, 6.0],
                       lower=[0.0, 0.0])
    sol = solve_lp(lp, initial_basis=[2, 3])
    assert sol.status == "optimal"
    assert abs(sol.objective_value - (-14.0 / 5.0)) < 1e-12


def test_warm_start_validation():
    lp = LinearProgram(objective=[-1.0, -1.0],
                       rows=[[1.0, 2.0], [3.0, 1.0]],
                       relations=["<=", "<="], rhs=[4.0, 6.0],
                       lower=[0.0, 0.0])
    with pytest.raises(LpInputError):
        solve_lp(lp, initial_basis=[0])  # wrong length
    with pytest.raises(LpInputError):
        solve_lp(lp, initial_basis=[1, 1])  # repeated column
    with pytest.raises(LpInputError):
        solve_lp(lp, initial_basis=[0, 99])  # out of range


def test_unusable_warm_start_falls_back():
    # basis [0, 1] solves to x=(8/5, 6/5) which is feasible, but [0, 2]
    # yields a negative basic value; the solver must still find the optimum
    lp = LinearProgram(objective=[-1.0, -1.0],
                       rows=[[1.0, 2.0], [3.0, 1.0]],
                       relations=["<=", "<="], rhs=[4.0, 6.0],
                       lower=[0.0, 0.0])
    sol = solve_lp(lp, initial_basis=[1, 2])
    assert sol.status == "optimal"
    assert abs(sol.objective_value - (-14.0 / 5.0)) < 1e-12


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
# two attempts: a relaxed one that hands over, then an unrelaxed last resort

def _two_variable_program():
    return LinearProgram(objective=[-1.0, -1.0],
                         rows=[[1.0, 2.0], [3.0, 1.0]],
                         relations=["<=", "<="], rhs=[4.0, 6.0],
                         lower=[0.0, 0.0])


def _budgets(monkeypatch, per_attempt):
    """Give solve attempts the listed pivot budgets, in attempt order."""
    budgets = iter(per_attempt)
    monkeypatch.setattr(lp_module, "_pivot_budget",
                        lambda m, ncols: next(budgets))


def test_exhausted_relaxed_budget_hands_over(monkeypatch):
    # the slack start needs two pivots; the relaxed attempt gets one
    _budgets(monkeypatch, [1, 1000])
    sol = solve_lp(_two_variable_program(), initial_basis=[2, 3])
    assert sol.status == "optimal"
    assert sol.eps == 0.0
    assert abs(sol.objective_value - (-14.0 / 5.0)) < 1e-12
    assert sol.iterations == 2 + 2  # both attempts' pivots count


@pytest.mark.parametrize("message", [
    "simplex iteration limit exceeded",
    "tableau magnitude exceeded blow-up limit",
    "pivot element vanished",
])
def test_relaxed_numerical_guard_hands_over(monkeypatch, message):
    calls = []
    real = lp_module._run_phase

    def guarded(*args):
        calls.append(1)
        if len(calls) == 1:  # the relaxed attempt's one phase from the slacks
            raise LpNumericalError(message)
        return real(*args)

    monkeypatch.setattr(lp_module, "_run_phase", guarded)
    sol = solve_lp(_two_variable_program(), initial_basis=[2, 3])
    assert sol.status == "optimal"
    assert sol.eps == 0.0
    assert abs(sol.objective_value - (-14.0 / 5.0)) < 1e-12


def _singular(*args):
    raise np.linalg.LinAlgError("forced")


def _failed_audit(lp, x):
    raise LpNumericalError("forced audit failure")


@pytest.mark.parametrize("owner, name, fake, reason", [
    (np.linalg, "solve", _singular, "singular restored basis"),
    (lp_module, "_audit_feasible", _failed_audit, "forced audit failure"),
], ids=["singular restore", "failed audit"])
def test_restore_and_audit_failures_hand_over(monkeypatch, owner, name, fake,
                                              reason):
    monkeypatch.setattr(owner, name, fake)
    _budgets(monkeypatch, [1000, 1])  # the last resort fails too
    with pytest.raises(LpNumericalError) as err:
        solve_lp(_two_variable_program(), initial_basis=[2, 3])
    assert f"eps=1e-07: {reason} after 2 pivots" in str(err.value)


def test_unrelaxed_failure_names_every_reason(monkeypatch):
    _budgets(monkeypatch, [1, 1])
    with pytest.raises(LpNumericalError) as err:
        solve_lp(_two_variable_program(), initial_basis=[2, 3])
    text = str(err.value)
    assert text.startswith("every solve attempt failed")
    assert "eps=1e-07: simplex iteration limit exceeded after 2 pivots" in text
    assert "eps=0: simplex iteration limit exceeded after 2 pivots" in text


def test_relaxed_attempts_never_switch_to_bland(monkeypatch):
    modes = []
    real = lp_module._run_phase

    def recording(T, basis, m, obj_row, allowed, state):
        modes.append(state["bland"])
        return real(T, basis, m, obj_row, allowed, state)

    monkeypatch.setattr(lp_module, "_run_phase", recording)
    _budgets(monkeypatch, [1, 1000])
    sol = solve_lp(_two_variable_program(), initial_basis=[2, 3])
    assert sol.eps == 0.0
    # Dantzig for the relaxed attempt; Bland's rule from the last resort's
    # first pivot
    assert modes == [False, True]


def _gap_program(gap):
    """x + y <= 1 and x + y >= 1 + gap: infeasible, but only by gap.

    The relaxed rows overlap, so the relaxed attempt ends optimal on a
    basis whose true basic solution is negative and that no dual pivot can
    repair.
    """
    return LinearProgram(objective=[1.0, 1.0], rows=[[1.0, 1.0], [1.0, 1.0]],
                         relations=["<=", ">="], rhs=[1.0, 1.0 + gap],
                         lower=[0.0, 0.0])


def test_failed_repair_hands_over():
    sol = solve_lp(_gap_program(3e-7))
    assert sol.status == "infeasible"
    assert sol.eps == 0.0


def test_failed_repair_is_named_when_the_last_resort_fails(monkeypatch):
    _budgets(monkeypatch, [1000, 0])
    with pytest.raises(LpNumericalError) as err:
        solve_lp(_gap_program(3e-7))
    text = str(err.value)
    assert "eps=1e-07: dual repair found no entering column" in text
    assert "eps=0: simplex iteration limit exceeded" in text


def _probe_program():
    """Fold 0 of a 5-fold CV of the RBF mixture at r = 0.0965.

    Its relaxed attempt ends on a basis that is infeasible for the true
    right-hand side (basic values down to -2.7e-7), so the dual repair must
    decide.  An attempt that restarted from the crash basis instead took
    521 more pivots.
    """
    x, y, _ = gen_mixture(200, 3)
    dic = build_rbf_lattice((10, 10), x.min(axis=0), x.max(axis=0), beta=2.0)
    cp = CostParams(d=0.25, tau=0.5)
    design = evaluate(dic, x, y)
    r = float(default_r_grid(cp, estimated_c_f(dic, design), num=10)[6])
    keep = np.arange(design.n) % 5 != 0
    fold = DesignMatrix(design.phi[keep], design.y[keep])
    n, M = fold.n, fold.M
    crash = np.concatenate([2 * M + n + np.arange(n), 2 * M + np.arange(n)])
    return split_lp(fold, cp, r), crash


def test_rejected_relaxed_basis_is_repaired():
    lp, crash = _probe_program()
    path = LpPath()
    sol = solve_lp(lp, initial_basis=crash, path=path)
    assert sol.status == "optimal"
    assert sol.eps == 1e-7
    assert sol.iterations < 1025  # 504 relaxed + 6 dual pivots when written
    assert path.key is None  # a repaired tableau is not kept
    ref = linprog(lp.objective, A_ub=-lp.rows, b_ub=-lp.rhs, bounds=(0, None),
                  method="highs")
    gap = (sol.objective_value - ref.fun) / (1.0 + abs(ref.fun))
    assert -1e-7 <= gap <= 1e-9
