"""Tests for the exact two-part norm computation exhibiting a cover to which
the circle action does not extend."""

from __future__ import annotations

import numpy as np
import pytest

from corrdil import (
    admissibility_gap,
    embed_poly,
    mobius_coeffs,
    op_norm,
    relation_defect,
)

GAP = 3.0 * np.sqrt(10.0) / 16.0


# ---------------------------------------------------------------- coefficients

def test_mobius_coeffs_values():
    c = mobius_coeffs(3)
    assert c == [-0.5, 0.75, 0.375, 0.1875]


def test_mobius_coeffs_requires_positive_degree():
    with pytest.raises(ValueError):
        mobius_coeffs(0)


def test_mobius_partial_sums_vanish_at_half():
    for n in (4, 8, 16):
        c = mobius_coeffs(n)
        val = sum(a * 0.5 ** k for k, a in enumerate(c))
        assert abs(val) < 2.0 ** (-n)


# ---------------------------------------------------------------- embedding

def test_embed_coordinate_function():
    x = embed_poly([0.0, 1.0])
    assert np.array_equal(x.mat_part, np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex))


def test_embed_constant_one():
    one = embed_poly([1.0])
    assert np.array_equal(one.mat_part, np.eye(2, dtype=complex))
    assert np.allclose(one.func_part, 1.0)


def test_embed_truncated_mobius_matrix_part_exact():
    for degree in (2, 8, 64):
        x = embed_poly(mobius_coeffs(degree))
        want = np.array([[-0.5, 0.0], [0.75, -0.5]], dtype=complex)
        assert np.array_equal(x.mat_part, want)


def test_embed_degree_overflow():
    with pytest.raises(ValueError):
        embed_poly([0.0] * 70, grid=64)


# ---------------------------------------------------------------- relation defect

def test_relation_defect_matrix_part_exact():
    d = relation_defect(mobius_coeffs(64))
    want = np.array([[-3 / 8, -3 / 16], [3 / 8, 3 / 16]], dtype=complex)
    assert np.array_equal(d.mat_part, want)


def test_relation_defect_function_part_vanishes():
    for degree, grid in ((32, 64), (64, 256), (64, 4096)):
        d = relation_defect(mobius_coeffs(degree), grid=grid)
        assert float(np.max(np.abs(d.func_part))) < 1e-9


def test_relation_defect_coordinate_function():
    d = relation_defect([0.0, 1.0])
    # z - z^2 conj(z) vanishes on the circle; the matrix part is the full shift
    assert float(np.max(np.abs(d.func_part))) < 1e-12
    assert op_norm(d.mat_part) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------- the gap

def test_admissibility_gap_values():
    lo, hi = admissibility_gap()
    assert lo == pytest.approx(GAP, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)
    assert lo < hi


def test_admissibility_gap_degree_two_matrices_unchanged():
    lo, hi = admissibility_gap(trunc_degree=2)
    assert lo == pytest.approx(GAP, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_admissibility_gap_small_grid():
    lo, hi = admissibility_gap(trunc_degree=16, grid=64)
    assert lo == pytest.approx(GAP, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_admissibility_gap_preconditions():
    with pytest.raises(ValueError):
        admissibility_gap(trunc_degree=1)
    with pytest.raises(ValueError):
        admissibility_gap(grid=32)


# ---------------------------------------------------------------- algebra

def test_cover_element_star_algebra():
    x = embed_poly([0.5, 0.25, -0.125])
    y = embed_poly([0.0, 1.0, 0.5])
    lhs = (x * y).adjoint()
    rhs = y.adjoint() * x.adjoint()
    assert np.allclose(lhs.func_part, rhs.func_part)
    assert np.allclose(lhs.mat_part, rhs.mat_part)
