"""Tests for the dense linear-algebra core."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdil import (
    HALMOS_CONSTANT,
    ContractivityError,
    DimensionError,
    PositivityError,
    ResourceCapError,
    Subspace,
    Tolerance,
    as_cmatrix,
    defect_sqrt,
    is_psd,
    op_norm,
    orthonormal_closure,
    psd_sqrt,
)
from helpers import rng_for, sqrtm_psd


# ---------------------------------------------------------------- op_norm

def test_op_norm_nilpotent_shift():
    assert op_norm(np.array([[0.0, 0.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-14)


def test_op_norm_counterexample_defect_matrix():
    M = np.array([[-3.0 / 8.0, -3.0 / 16.0], [3.0 / 8.0, 3.0 / 16.0]])
    assert op_norm(M) == pytest.approx(3.0 * np.sqrt(10.0) / 16.0, abs=1e-14)


def test_op_norm_identity():
    for n in (1, 2, 7):
        assert op_norm(np.eye(n)) == pytest.approx(1.0, abs=1e-14)


def test_op_norm_empty():
    assert op_norm(np.zeros((0, 0))) == 0.0


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
def test_op_norm_bounds_entries(a, b, c, d):
    M = np.array([[a, b], [c, d]])
    n = op_norm(M)
    assert n >= max(abs(a), abs(b), abs(c), abs(d)) - 1e-12
    assert n <= np.sqrt(np.sum(np.abs(M) ** 2)) + 1e-12


@settings(max_examples=50)
@given(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
def test_op_norm_homogeneous(c):
    M = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    assert op_norm(c * M) == pytest.approx(abs(c) * op_norm(M), rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------- is_psd

def test_is_psd_examples():
    assert is_psd(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert not is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))          # not Hermitian
    assert not is_psd(np.array([[1.0, 0.0], [0.0, -1e-3]]))        # real negative eigenvalue


def test_is_psd_tolerates_clip_level_noise():
    assert is_psd(np.array([[1.0, 0.0], [0.0, -1e-11]]))


def test_is_psd_random_gram_matrices():
    rng = rng_for(900)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert is_psd(A @ A.conj().T)
        assert not is_psd(A @ A.conj().T - 2.0 * np.eye(n) * op_norm(A @ A.conj().T) - np.eye(n))


# ---------------------------------------------------------------- psd_sqrt

def test_psd_sqrt_diagonal():
    S = psd_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(S, np.diag([2.0, 3.0]), atol=1e-14)


def test_psd_sqrt_scalar_defect():
    S = psd_sqrt(np.array([[0.75]]))
    assert S[0, 0] == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-15)


def test_psd_sqrt_zero():
    assert np.allclose(psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))


def test_psd_sqrt_rejects_non_psd():
    with pytest.raises(PositivityError):
        psd_sqrt(np.array([[-1.0]]))
    with pytest.raises(PositivityError):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt_matches_scipy_oracle():
    rng = rng_for(901)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = A @ A.conj().T
        S = psd_sqrt(M)
        assert op_norm(S - sqrtm_psd(M)) <= 1e-8 * (1.0 + op_norm(M))
        assert op_norm(S @ S - M) <= 1e-9 * (1.0 + op_norm(M))
        assert is_psd(S)


def test_psd_sqrt_halmos_commutation():
    # For PSD A, B: ||sqrt(A) - sqrt(B)|| <= C sqrt(||A - B||) with the
    # module's advertised constant.
    rng = rng_for(902)
    for _ in range(40):
        n = int(rng.integers(1, 10))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        E = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        MA = A @ A.conj().T
        MB = MA + 1e-6 * (E + E.conj().T)
        if not is_psd(MB):
            MB = MB + 2e-6 * np.eye(n)
        diff = op_norm(psd_sqrt(MA) - psd_sqrt(MB))
        assert diff <= HALMOS_CONSTANT * np.sqrt(op_norm(MA - MB)) + 1e-12


# ---------------------------------------------------------------- defect_sqrt

def test_defect_sqrt_scalar():
    D = defect_sqrt(np.array([[0.5]]))
    assert D[0, 0] == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-15)


def test_defect_sqrt_isometry_column():
    col = np.array([[0.6], [0.8]])
    assert op_norm(defect_sqrt(col)) <= 1e-12


def test_defect_sqrt_zero_contraction():
    assert np.allclose(defect_sqrt(np.zeros((4, 4))), np.eye(4), atol=1e-14)


def test_defect_sqrt_rejects_expansive():
    with pytest.raises(ContractivityError):
        defect_sqrt(np.array([[2.0]]))


def test_defect_sqrt_square_identity():
    rng = rng_for(903)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        T = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        nrm = op_norm(T)
        if nrm > 0.97:
            T = T * (0.97 / nrm)
        D = defect_sqrt(T)
        assert D.shape == (n, n)
        assert op_norm(D @ D - (np.eye(n) - T.conj().T @ T)) <= 1e-10
        assert is_psd(D)


def test_defect_sqrt_accepts_norm_within_eps():
    # admitted by the precondition ||T|| <= 1 + eps; result must stay real PSD
    T = np.array([[1.0 + 5e-9]])
    D = defect_sqrt(T)
    assert D[0, 0] >= 0.0
    assert abs(D[0, 0]) <= 1e-3


# ---------------------------------------------------------------- Subspace

def test_subspace_requires_orthonormal_columns():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0], [1.0]]))


def test_subspace_constructors():
    S = Subspace.coordinate(4, [1, 3])
    assert S.dim == 2
    F = Subspace.full(3)
    assert F.dim == 3
    G = Subspace.from_vectors(3, [np.array([2.0, 0.0, 0.0]), np.array([2.0, 1.0, 0.0])])
    assert G.dim == 2


# ---------------------------------------------------------------- orthonormal_closure

def test_closure_no_generators():
    e0 = np.eye(3)[:, 0]
    S = orthonormal_closure(3, [e0], [])
    assert S.dim == 1
    assert abs(abs(S.basis[:, 0] @ e0) - 1.0) <= 1e-12


def test_closure_cyclic_shift_fills_space():
    C = np.roll(np.eye(3), 1, axis=0)
    S = orthonormal_closure(3, [np.eye(3)[:, 0]], [C])
    assert S.dim == 3


def test_closure_eigenvector_stays_small():
    S = orthonormal_closure(2, [np.eye(2)[:, 0]], [np.diag([1.0, 2.0])])
    assert S.dim == 1


def test_closure_invariant_under_generators():
    rng = rng_for(905)
    for _ in range(15):
        n = int(rng.integers(2, 10))
        gens = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(int(rng.integers(1, 4)))]
        seeds = [rng.standard_normal(n) + 1j * rng.standard_normal(n)]
        S = orthonormal_closure(n, seeds, gens)
        B = S.basis
        P = B @ B.conj().T
        for G in gens:
            # closure invariance: G maps the subspace into itself
            assert op_norm((np.eye(n) - P) @ G @ P) <= 1e-8
        # seeds are contained
        for s in seeds:
            assert np.linalg.norm(s - P @ s) <= 1e-8 * np.linalg.norm(s)


# ---------------------------------------------------------------- Tolerance & shapes

def test_tolerance_dimension_cap():
    tol = Tolerance(max_dim=16)
    with pytest.raises(ResourceCapError):
        tol.check_dim(17)
    tol.check_dim(16)


@pytest.mark.parametrize("field", ["eps", "eig_clip"])
@pytest.mark.parametrize("value", [0.0, -1e-8, float("inf"), float("nan")])
def test_tolerance_requires_finite_positive(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        Tolerance(**{field: value})


def test_as_cmatrix_shape_errors():
    with pytest.raises(DimensionError):
        as_cmatrix(np.zeros((2, 3)), rows=3)
    with pytest.raises(DimensionError):
        as_cmatrix(np.zeros(4))
