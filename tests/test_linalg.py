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
from corrdil import linalg
from corrdil.linalg import _max_op_norms, _op_norms
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


# ---------------------------------------------------------------- stacked residual norms

def brute_max(residuals, k=None) -> float:
    """The per-residual reference: one op_norm per (leading block of a) residual."""
    return max((op_norm(R[:k, :k]) for R in residuals), default=0.0)


def assert_max_norms_match(residuals, sizes=(None,)):
    got = _max_op_norms(iter(residuals), sizes)
    for k, value in zip(sizes, got):
        assert value == pytest.approx(brute_max(residuals, k), rel=1e-12, abs=0.0), k


def random_residuals(rng, count: int, n: int, spread: float = 8.0) -> list:
    """Complex n x n residuals whose scales span 10^-spread .. 1."""
    return [
        10.0 ** -rng.uniform(0.0, spread)
        * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_max_op_norms_match_brute_force(seed):
    rng = rng_for(1300 + seed)
    n = int(rng.integers(1, 12))
    residuals = random_residuals(rng, int(rng.integers(1, 60)), n)
    assert_max_norms_match(residuals, (None, 0, 1, n // 2, n))


def test_max_op_norms_pick_between_equal_bounds():
    # one nonzero column: Frobenius norm = column norm = operator norm, so
    # every residual ties its own bounds and the scaled copies tie each other
    rng = rng_for(1310)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    column = np.zeros((5, 5), dtype=complex)
    column[:, 2] = u
    residuals = [column, 0.5 * column, column.copy(), np.roll(column, 1, axis=1)]
    assert_max_norms_match(residuals, (None, 2, 3))
    assert _max_op_norms(residuals)[0] == op_norm(column)
    # general rank one, u v*: Frobenius norm = operator norm > column norm
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    rank_one = [np.outer(u, v.conj()) * s for s in (1.0, 1.0 - 1e-15, 0.3)]
    assert_max_norms_match(rank_one + random_residuals(rng, 10, 5, spread=1.0), (None, 4))


def test_max_op_norms_of_nothing_and_of_zeros():
    assert _max_op_norms([]) == [0.0]
    assert _max_op_norms([], (None, 0, 3)) == [0.0, 0.0, 0.0]
    zeros = [np.zeros((4, 4), dtype=complex)] * 5
    assert _max_op_norms(zeros, (None, 2)) == [0.0, 0.0]
    empty = [np.zeros((0, 0), dtype=complex)] * 3   # the residuals of a dim-0 rep
    assert _max_op_norms(empty, (None, 0)) == [0.0, 0.0]
    some = random_residuals(rng_for(1320), 4, 3)
    assert _max_op_norms(some, (0,)) == [0.0]


def test_max_op_norms_do_not_drop_a_non_finite_residual():
    # an overflowed product is never pruned or passed over: a NaN residual
    # raises as op_norm does, and a residual with an inf entry makes the
    # maximum NaN, which fails every "<= eps" check
    rng = rng_for(1325)
    finite = random_residuals(rng, 5, 3)
    nan = np.full((3, 3), np.nan, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        op_norm(nan)
    for residuals in ([nan], [nan, nan], finite + [nan]):
        with pytest.raises(np.linalg.LinAlgError):
            _max_op_norms(residuals)
    inf = np.eye(3, dtype=complex)
    inf[0, 1] = np.inf
    for residuals in ([inf], finite + [inf], [inf] + finite):
        assert all(np.isnan(_max_op_norms(residuals, (None, 2))))
    assert np.isnan(_op_norms([finite[0], inf])[1])


@pytest.mark.parametrize("budget", [16, 700, 4096])
def test_max_op_norms_across_stack_boundaries(monkeypatch, budget):
    # stacks of one, a few and many residuals; the largest residual sits at
    # the start, the middle and the end of the sequence in turn
    monkeypatch.setattr(linalg, "_STACK_BYTES", budget)
    rng = rng_for(1330)
    residuals = random_residuals(rng, 40, 4)
    big = 3.0 * residuals[0] / op_norm(residuals[0])
    for at in (0, 20, 40):
        assert_max_norms_match(residuals[:at] + [big] + residuals[at:], (None, 1, 3))


def test_max_op_norms_straddling_the_byte_budget():
    # 7 x 7 complex residuals are 784 bytes: the first stack holds 1337 of
    # them, so 1500 residuals take two stacks, the maximum in the second
    rng = rng_for(1340)
    residuals = random_residuals(rng, 1500, 7, spread=2.0)
    assert 1500 * residuals[0].nbytes > linalg._STACK_BYTES
    residuals[1400] *= 1e3
    assert_max_norms_match(residuals, (None, 5))
    # a residual larger than the budget is a stack of its own
    n = int(np.sqrt(linalg._STACK_BYTES / 16)) + 1
    huge = np.zeros((n, n), dtype=complex)
    huge[0, -1] = 2.0
    assert _max_op_norms([huge, residuals[0]]) == [2.0]


def test_max_op_norms_mixed_shapes():
    # a change of shape starts a new stack; leading blocks clip at each size
    rng = rng_for(1350)
    residuals = []
    for n in (3, 3, 5, 1, 5, 5, 2, 3, 0, 4):
        residuals.extend(random_residuals(rng, int(rng.integers(1, 5)), n, spread=3.0))
    assert_max_norms_match(residuals, (None, 0, 1, 2, 4, 9))


def test_op_norms_every_residual_in_order(monkeypatch):
    monkeypatch.setattr(linalg, "_STACK_BYTES", 1000)
    rng = rng_for(1360)
    residuals = []
    for n in (2, 2, 2, 6, 6, 0, 3):
        residuals.extend(random_residuals(rng, 5, n, spread=4.0))
    want = [op_norm(R) for R in residuals]
    np.testing.assert_allclose(_op_norms(iter(residuals)), want, rtol=1e-12, atol=0.0)
    assert _op_norms([]).shape == (0,)


# ---------------------------------------------------------------- norms on the support

def scattered(rng, shape, block, diagonal) -> np.ndarray:
    """A residual of the given shape that is permutation equivalent to
    blockdiag(block, diag(diagonal), 0): the diagonal sits on random
    indices j (row j and column j), the block on random other rows and
    columns, and every other entry is an exact zero."""
    n, m = shape
    R = np.zeros(shape, dtype=complex)
    on = rng.permutation(min(n, m))[:len(diagonal)]
    R[on, on] = diagonal
    rows = rng.permutation(np.setdiff1d(np.arange(n), on))[:block.shape[0]]
    cols = rng.permutation(np.setdiff1d(np.arange(m), on))[:block.shape[1]]
    R[np.ix_(rows, cols)] = block
    return R


def random_block(rng, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def svd_norm(R) -> float:
    return float(np.linalg.svd(R, compute_uv=False)[0]) if R.size else 0.0


@pytest.mark.parametrize("seed", range(8))
def test_support_norm_of_scattered_residuals(seed):
    # coupled blocks among exact zeros and decoupled diagonals holding
    # zeros, ties, a +-I tail and entries that beat the block
    rng = rng_for(1370 + seed)
    n = int(rng.integers(linalg._SUPPORT_MIN + 1, 2 * linalg._SUPPORT_MIN))
    residuals = []
    for case in range(6):
        a, b = (int(x) for x in rng.integers(0, n // 3, size=2))
        block = random_block(rng, a, b, scale=10.0 ** -rng.uniform(0, 3))
        top = svd_norm(block)
        diagonal = [
            rng.standard_normal(int(rng.integers(0, 5))),                 # random
            np.zeros(3),                                                 # zero diagonals
            np.full(4, top) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4)),  # ties
            np.concatenate([np.ones(5), -np.ones(5)]),                   # +-I tail
            np.full(2, 2.0 * top + 1.0),                                 # the diagonal wins
            np.zeros(0),                                                 # no diagonal
        ][case]
        residuals.append(scattered(rng, (n, n), block, diagonal))
    for R in residuals:
        assert _max_op_norms([R])[0] == pytest.approx(svd_norm(R), rel=1e-12, abs=0.0)
        assert op_norm(R) == _max_op_norms([R])[0]
    assert_max_norms_match(residuals, (None, n // 2, n - 1))
    # the value is the maximizer's own, whatever else its stack holds
    worst = max(residuals, key=svd_norm)
    others = [0.5 * R for R in residuals]
    assert _max_op_norms(others + [worst] + others)[0] == op_norm(worst)


def test_support_norm_of_degenerate_supports():
    rng = rng_for(1380)
    n = linalg._SUPPORT_MIN + 7
    zero = np.zeros((n, n), dtype=complex)
    assert op_norm(zero) == 0.0 and _max_op_norms([zero, zero]) == [0.0]
    diagonal = np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    assert op_norm(diagonal) == np.abs(np.diag(diagonal)).max()
    # a coupled block holding every row and column, one of one entry, and a
    # lone off-diagonal entry (row j and column j then both coupled)
    full = random_block(rng, n, n)
    assert op_norm(full) == pytest.approx(svd_norm(full), rel=1e-12)
    lone = zero.copy()
    lone[3, 7], lone[7, 7] = 2.0 - 1.0j, 0.5
    assert op_norm(lone) == pytest.approx(svd_norm(lone), rel=1e-12)
    single = scattered(rng, (n, n), np.array([[3.0j]]), np.ones(6))
    assert op_norm(single) == 3.0


def test_dense_stack_is_normed_by_its_own_svd():
    # no zero row, zero column or decoupled index anywhere in the stack: the
    # norms are its whole-stack SVD, bit for bit, and they stay so when one
    # scattered member sends the stack through the coupled-block search
    rng = rng_for(1385)
    n = linalg._SUPPORT_MIN + 9
    dense = np.stack([random_block(rng, n, n + 4) for _ in range(5)])
    dense[:, 0, 0] = 0.0   # an exact zero entry leaves its row and column coupled
    whole = np.linalg.svd(dense, compute_uv=False)[:, 0]
    assert np.array_equal(linalg._exact_norms(dense), whole)
    assert [op_norm(R) for R in dense] == whole.tolist()
    mixed = np.concatenate([dense, scattered(rng, (n, n + 4), random_block(rng, 5, 5),
                                             np.ones(3))[None]])
    assert np.array_equal(linalg._exact_norms(mixed)[:5], whole)


@pytest.mark.parametrize("shape", [(40, 70), (70, 40), (33, 90)])
def test_support_norm_decides_rectangular_bounds(shape):
    rng = rng_for(1390 + shape[0])
    for case in range(4):
        block = random_block(rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        diagonal = [np.zeros(0), np.ones(8), 3.0 * np.ones(2), -np.ones(5)][case]
        X = scattered(rng, shape, block, diagonal)
        s = svd_norm(X)
        assert linalg._norm_within(X, s * (1 + 1e-12))
        assert not linalg._norm_within(X, s * (1 - 1e-12))
        assert op_norm(X) == pytest.approx(s, rel=1e-12)


@pytest.fixture()
def svd_shapes(monkeypatch):
    """The shapes of the matrices np.linalg.svd is asked for, in order."""
    shapes, real = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.extend([np.shape(a)[-2:]] * int(np.prod(np.shape(a)[:-2], dtype=int)))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


def settled_case(rng, n: int, case: str):
    """(R, B, dmax): R = blockdiag(B, diag(d), 0) of size n, B a dense
    6 x 6 block, max|d| = dmax = 1.  'below': ||B||_F just below
    dmax (B of rank one, so sigma_1(B) is just below too); 'within':
    ||B||_F below dmax by less than the slack; 'above': ||B||_F just above
    dmax; in both sigma_1(B) = ||B||_F / sqrt(6) is below dmax; 'wins':
    sigma_1(B) above dmax."""
    if case == "below":
        x, y = random_block(rng, 6, 1), random_block(rng, 6, 1)
        B = x @ y.conj().T
        B *= (1 - 1e-12) / np.linalg.norm(B)
    elif case in ("within", "above"):
        U = np.linalg.qr(random_block(rng, 6, 6))[0]
        B = U * ((1 - 1e-14 if case == "within" else 1 + 1e-12) / np.sqrt(6))
    else:
        B = random_block(rng, 6, 6)
        B *= 1.5 / svd_norm(B)
    d = np.exp(1j * rng.uniform(0, 2 * np.pi, 10)) * np.linspace(0.1, 1.0, 10)
    R = np.zeros((n, n), dtype=complex)
    R[:6, :6] = B
    R[range(6, 16), range(6, 16)] = d
    return R, B, 1.0


@pytest.mark.parametrize("case", ["below", "within", "above", "wins"])
def test_support_norm_settles_a_block_below_the_diagonal(svd_shapes, case):
    # the coupled block takes an SVD only when its Frobenius norm can reach
    # the largest decoupled |R_jj|; the value is max(max|d|, sigma_1(B))
    # either way, bit for bit
    rng = rng_for(1397)
    n = linalg._SUPPORT_MIN + 8
    R, B, dmax = settled_case(rng, n, case)
    assert (np.linalg.norm(B) < dmax) == (case in ("below", "within"))
    top = svd_norm(B)
    assert (top > dmax) == (case == "wins")
    svd_shapes.clear()
    got = op_norm(R)
    assert got == max(dmax, top) == (top if case == "wins" else dmax)
    assert svd_shapes == ([] if case == "below" else [B.shape])


def test_support_norm_settles_blocks_one_matrix_at_a_time(svd_shapes):
    # in one stack each matrix is settled by its own diagonal alone
    rng = rng_for(1398)
    n = linalg._SUPPORT_MIN + 8
    cases = [settled_case(rng, n, case) for case in ("below", "above", "wins", "within")]
    want = [max(dmax, svd_norm(B)) for _, B, dmax in cases]
    svd_shapes.clear()
    assert linalg._exact_norms(np.stack([R for R, _, _ in cases])).tolist() == want
    assert svd_shapes == [(6, 6)] * 3


def test_a_residual_that_fills_a_stack_is_not_copied():
    rng = rng_for(1399)
    lone = int(np.sqrt(linalg._STACK_BYTES / 32)) + 1   # two of these exceed the budget
    small, big = random_block(rng, 5, 5), random_block(rng, lone, lone)
    twin = random_block(rng, lone - 1, lone - 1)
    stacks = list(linalg._stacks([small, big, big, twin, twin, small]))
    assert [S.shape for S in stacks] == [(1, 5, 5), (1, lone, lone), (1, lone, lone),
                                         (2, lone - 1, lone - 1), (1, 5, 5)]
    assert all(np.shares_memory(S, big) for S in stacks[1:3])
    assert not np.shares_memory(stacks[3], twin)
    assert _max_op_norms([small, big, twin]) == [max(map(op_norm, (small, big, twin)))]


def test_support_norm_keeps_the_non_finite_verdicts():
    # above _SUPPORT_MIN a NaN still raises, an inf entry still gives NaN,
    # and a finite entry whose square overflows is still normed exactly
    rng = rng_for(1395)
    n = linalg._SUPPORT_MIN + 8
    R = scattered(rng, (n, n), random_block(rng, 10, 10), np.ones(6))
    nan, inf, huge = R.copy(), R.copy(), R.copy()
    nan[2, 5] = np.nan
    inf[3, 4] = np.inf
    huge[0, 0] = 1e200
    for residuals in ([nan], [R, nan], [nan, R]):
        with pytest.raises(np.linalg.LinAlgError):
            _max_op_norms(residuals)
    with pytest.raises(np.linalg.LinAlgError):
        op_norm(nan)
    for residuals in ([inf], [R, inf], [inf, R]):
        assert all(np.isnan(_max_op_norms(residuals, (None, n // 2))))
    assert np.isnan(op_norm(inf))
    assert op_norm(huge) == pytest.approx(svd_norm(huge), rel=1e-12)
    assert _max_op_norms([R, huge]) == [op_norm(huge)]


# ---------------------------------------------------------------- Tolerance & shapes

def test_tolerance_dimension_cap():
    tol = Tolerance(max_dim=16)
    with pytest.raises(ResourceCapError):
        tol.check_dim(17)
    tol.check_dim(16)


@pytest.mark.parametrize("value, message", [
    (0, "at least 1"), (-1, "at least 1"), (3.9, "an integer"), (True, "an integer"),
])
def test_tolerance_requires_an_integral_dimension_cap(value, message):
    # the library twin of the problem file's max_dim check: no float truncated, no bool read as 1
    with pytest.raises(ValueError, match=f"max_dim must be {message}"):
        Tolerance(max_dim=value)
    tol = Tolerance(max_dim=np.int64(5))
    assert tol.max_dim == 5 and type(tol.max_dim) is int


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
