"""Dictionary construction and evaluation fixtures."""

import re
from dataclasses import fields

import numpy as np
import pytest

from rejectsvm.dictionary import (
    DesignMatrix,
    Dictionary,
    build_constant_linear,
    build_custom_rbf,
    build_linear,
    build_rbf_lattice,
    estimated_c_f,
    evaluate,
)

# exp(-2), frozen independently: a unit-distance bump at bandwidth 2
EXP_MINUS_TWO = 0.13533528323661269


def test_linear_passes_coordinates_through():
    dic = build_linear(3)
    assert (dic.M, dic.dim) == (3, 3)
    assert dic.C_F_estimated
    x = np.array([[1.0, -2.0, 0.5]])
    design = evaluate(dic, x)
    assert np.array_equal(design.phi, x)


def test_constant_linear_prepends_ones():
    dic = build_constant_linear(2)
    assert dic.M == 3
    design = evaluate(dic, np.array([[3.0, -1.0], [0.0, 2.0]]))
    assert np.array_equal(design.phi[:, 0], [1.0, 1.0])
    assert np.array_equal(design.phi[:, 1:], [[3.0, -1.0], [0.0, 2.0]])


def test_rbf_value_at_unit_distance():
    dic = build_custom_rbf(centers=[[0.0, 0.0]], beta=2.0)
    design = evaluate(dic, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert design.phi[0, 0] == pytest.approx(EXP_MINUS_TWO, abs=1e-16)
    assert design.phi[1, 0] == 1.0
    assert dic.C_F == 1.0 and not dic.C_F_estimated


def test_lattice_includes_box_corners():
    dic = build_rbf_lattice((3, 2), [0.0, -1.0], [2.0, 1.0], beta=0.5)
    assert dic.M == 6
    corners = {(0.0, -1.0), (0.0, 1.0), (2.0, -1.0), (2.0, 1.0)}
    have = {tuple(c) for c in dic.centers}
    assert corners <= have
    # single-count axis keeps the lower corner only
    thin = build_rbf_lattice((1,), [2.0], [5.0])
    assert np.array_equal(thin.centers, [[2.0]])


def test_lattice_validation():
    with pytest.raises(ValueError):
        build_rbf_lattice((2, 2), [0.0], [1.0, 1.0])  # corner shape mismatch
    with pytest.raises(ValueError):
        build_rbf_lattice((0, 2), [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        build_rbf_lattice((2,), [1.0], [0.0])  # inverted box
    with pytest.raises(ValueError):
        build_rbf_lattice((2,), [0.0], [1.0], beta=0.0)
    with pytest.raises(ValueError):
        build_linear(0)
    with pytest.raises(ValueError):
        Dictionary("fourier", 1)


def test_the_kind_fixes_c_f():
    # C_F is no field: 1 for Gaussian bumps, 0 (estimated from data) for
    # the linear kinds
    assert "C_F" not in {f.name for f in fields(Dictionary)}
    for dic in (build_linear(2), build_constant_linear(2)):
        assert (dic.C_F, dic.C_F_estimated) == (0.0, True)
    for dic in (build_custom_rbf([[0.0, 0.0]]),
                build_rbf_lattice((2, 2), [0.0, 0.0], [1.0, 1.0])):
        assert (dic.C_F, dic.C_F_estimated) == (1.0, False)


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_rbf_builders_refuse_a_beta_that_is_not_finite_and_positive(beta):
    message = f"rbf beta must be a finite number > 0, not {beta!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_custom_rbf([[0.0, 0.0]], beta=beta)
    with pytest.raises(ValueError, match=re.escape(message)):
        build_rbf_lattice((3, 3), [0.0, 0.0], [1.0, 1.0], beta=beta)


def test_rbf_builders_refuse_non_finite_centers_and_box_corners():
    with pytest.raises(ValueError, match=r"rbf centers must be a finite "
                                         r"\(M, 2\) array"):
        build_custom_rbf([[0.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="rbf centers"):
        build_custom_rbf([[np.inf]])
    # a single count keeps only the lower corner, so the upper one must be
    # checked as given
    for lo, hi, grid in [([np.nan, 0.0], [1.0, 1.0], (2, 2)),
                         ([0.0, 0.0], [1.0, np.nan], (2, 2)),
                         ([0.0], [np.nan], (1,)),
                         ([0.0], [np.inf], (1,))]:
        with pytest.raises(ValueError, match="box corners must be finite"):
            build_rbf_lattice(grid, lo, hi)


LATTICE = {"centers": np.zeros((4, 2)), "beta": 1.0, "grid": (2, 2),
           "box": np.array([[0.0, 0.0], [1.0, 1.0]])}


@pytest.mark.parametrize("args, kwargs, message", [
    (("linear", 0), {}, "dim must be at least 1"),
    (("custom_rbf", 1), {"centers": np.zeros((0, 1)), "beta": 1.0},
     "at least one function"),
    (("linear", 2), {"centers": np.zeros((2, 2))},
     "a linear dictionary has no centers or beta"),
    (("constant_linear", 2), {"beta": 1.0},
     "a constant_linear dictionary has no centers or beta"),
    (("custom_rbf", 2), {"centers": np.zeros((1, 2)), "beta": 1.0,
                         "grid": (1, 1)},
     "a custom_rbf dictionary has no grid or box"),
    (("custom_rbf", 2), {"beta": 1.0}, "rbf centers"),
    (("custom_rbf", 2), {"centers": np.zeros((1, 3)), "beta": 1.0},
     "rbf centers"),
    (("rbf_lattice", 2), {"centers": np.zeros((1, 2))}, "rbf beta"),
    (("rbf_lattice", 2), {**LATTICE, "grid": (4,)},
     "rbf_lattice grid must hold 2 counts"),
    (("rbf_lattice", 2), {**LATTICE, "grid": (4, 0)},
     "grid counts must be at least 1"),
    (("rbf_lattice", 2), {**LATTICE, "grid": (3, 3)},
     "rbf_lattice grid (3, 3) gives 9 centers, not 4"),
    (("rbf_lattice", 2), {**LATTICE, "box": None},
     "rbf_lattice box must be a (2, 2) array"),
    (("rbf_lattice", 2), {**LATTICE, "box": np.zeros((2, 3))},
     "rbf_lattice box must be a (2, 2) array"),
    (("rbf_lattice", 2), {**LATTICE, "box": np.array([[0.0, 0.0],
                                                      [np.inf, 1.0]])},
     "box corners must be finite"),
    (("rbf_lattice", 2), {**LATTICE, "box": np.array([[0.0, 1.0],
                                                      [1.0, 0.0]])},
     "degenerate box on axis 1"),
    (("rbf_lattice", 2), {**LATTICE, "grid": (4, 1), "box": np.ones((2, 2))},
     "degenerate box on axis 0"),
    (("rbf_lattice", 2), LATTICE,
     "rbf_lattice centers must be the lattice its grid and box give"),
])
def test_dictionary_refuses_fields_that_do_not_fit(args, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Dictionary(*args, **kwargs)


def test_kind_and_shape_fix_m():
    assert build_linear(3).M == 3
    assert build_constant_linear(3).M == 4
    assert build_custom_rbf(np.zeros((5, 2))).M == 5
    # a single-count axis may have equal corners
    centers = np.column_stack([np.linspace(0.0, 1.0, 4), np.ones(4)])
    dic = Dictionary("rbf_lattice", 2, **{**LATTICE, "centers": centers,
                                         "grid": (4, 1),
                                         "box": np.array([[0.0, 1.0],
                                                          [1.0, 1.0]])})
    assert dic.M == 4
    # M, like C_F, is worked out and not taken
    with pytest.raises(TypeError):
        Dictionary("linear", 2, 2)
    with pytest.raises(TypeError):
        Dictionary("linear", 2, M=2)


def test_dictionaries_compare_by_value():
    # == compares every field, arrays by value, for every kind
    lattice = build_rbf_lattice((2, 2), [0, 0], [1, 1])
    assert lattice == build_rbf_lattice((2, 2), [0, 0], [1, 1])
    assert lattice != build_rbf_lattice((2, 2), [0, 0], [1, 2])
    assert lattice != build_rbf_lattice((2, 2), [0, 0], [1, 1], beta=1.5)
    rbf = build_custom_rbf(np.array([[0.0, 1.0]]))
    assert rbf == build_custom_rbf(np.array([[0.0, 1.0]]))
    assert rbf != build_custom_rbf(np.array([[0.0, 2.0]]))
    assert rbf != build_custom_rbf(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert build_linear(2) == build_linear(2) != build_constant_linear(2)
    assert build_linear(2) != build_linear(3)
    assert lattice != "rbf_lattice" and lattice != build_linear(2)


def test_evaluate_checks_feature_count():
    dic = build_linear(2)
    with pytest.raises(ValueError):
        evaluate(dic, np.ones((4, 3)))


def test_design_matrix_label_validation():
    with pytest.raises(ValueError):
        DesignMatrix(phi=np.ones((2, 2)), y=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        DesignMatrix(phi=np.ones((2, 2)), y=np.array([1.0]))
    with pytest.raises(ValueError):
        DesignMatrix(phi=np.array([[np.inf]]))


def test_sup_norm_estimation():
    dic = build_linear(2)
    design = evaluate(dic, np.array([[0.5, -3.0], [1.0, 2.0]]))
    assert estimated_c_f(dic, design) == 3.0
    rbf = build_custom_rbf(centers=[[0.0, 0.0]])
    rbf_design = evaluate(rbf, np.array([[5.0, 5.0]]))
    assert estimated_c_f(rbf, rbf_design) == 1.0  # exact, not data-dependent
    with pytest.raises(ValueError):
        estimated_c_f(dic, evaluate(dic, np.zeros((2, 2))))
