"""Dense complex-matrix primitives: norms, positivity, square roots, defect
operators, and invariant-subspace closures.

A "CMatrix" is simply a two-dimensional :class:`numpy.ndarray` with dtype
``complex128``.  Every function here is pure (no shared mutable state) and
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ContractivityError,
    DimensionError,
    PositivityError,
    ResourceCapError,
)

__all__ = [
    "HALMOS_CONSTANT",
    "Tolerance",
    "DEFAULT_TOL",
    "Subspace",
    "as_cmatrix",
    "op_norm",
    "is_psd",
    "psd_sqrt",
    "defect_sqrt",
    "orthonormal_closure",
]

# Commutation constant for square roots: for a unitary U and PSD A,
# U sqrt(A) U* = sqrt(U A U*), so ||[U, sqrt(A)]|| = ||sqrt(UAU*) - sqrt(A)||
# <= ||UAU* - A||^{1/2} = ||[U, A]||^{1/2} by operator monotonicity of the
# square root.  The exact-arithmetic constant is therefore 1; the value 2
# absorbs the eigenvalue clipping and rounding inside psd_sqrt/defect_sqrt.
HALMOS_CONSTANT = 2.0


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy knobs.

    eps bounds acceptable defect norms, eig_clip is the cutoff below which
    eigenvalues/singular values are treated as zero, and max_dim, an integer
    of at least 1, caps the dimension of any space a computation is allowed
    to construct (dilation spaces grow geometrically).
    """

    eps: float = 1e-8
    eig_clip: float = 1e-10
    max_dim: int = 4096

    def __post_init__(self):
        if not (0.0 < self.eps < math.inf):
            raise ValueError("eps must be finite and positive")
        if not (0.0 < self.eig_clip < math.inf):
            raise ValueError("eig_clip must be finite and positive")
        if isinstance(self.max_dim, bool) or not isinstance(self.max_dim, (int, np.integer)):
            raise ValueError("max_dim must be an integer")
        if self.max_dim < 1:
            raise ValueError("max_dim must be at least 1")
        object.__setattr__(self, "max_dim", int(self.max_dim))   # problem_text writes only int

    def check_dim(self, dim: int) -> None:
        """Raise ResourceCapError when dim exceeds the configured cap."""
        if dim > self.max_dim:
            raise ResourceCapError(
                f"dimension {dim} exceeds the configured cap {self.max_dim}"
            )


DEFAULT_TOL = Tolerance()


def as_cmatrix(M, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a 2-d complex array, optionally enforcing its shape."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {A.ndim}")
    if rows is not None and A.shape[0] != rows:
        raise DimensionError(f"expected {rows} rows, got {A.shape[0]}")
    if cols is not None and A.shape[1] != cols:
        raise DimensionError(f"expected {cols} columns, got {A.shape[1]}")
    return A


def _frozen(M, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """M as a read-only complex matrix, shape-checked as by as_cmatrix: M
    itself if it is read-only, complex128 and owns its memory, else a copy
    (of a caller's writable array, or of any view), M left as it is."""
    if not (isinstance(M, np.ndarray) and M.dtype == complex and M.base is None
            and not M.flags.writeable):
        M = _readonly(np.array(M, dtype=complex))
    return as_cmatrix(M, rows, cols)


def _readonly(A: np.ndarray) -> np.ndarray:
    """A itself, made read-only: an array its caller just made, kept by _frozen as is."""
    A.setflags(write=False)
    return A


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient_dim presented by orthonormal basis columns."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, dim)

    def __post_init__(self):
        B = as_cmatrix(self.basis, rows=self.ambient_dim)
        if B.shape[1] > self.ambient_dim:
            raise DimensionError(
                f"{B.shape[1]} basis vectors in ambient dimension {self.ambient_dim}"
            )
        if not _norm_within(B.conj().T @ B - np.eye(B.shape[1]), 1e-6):
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", B)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, np.eye(n, dtype=complex))

    @staticmethod
    def coordinate(ambient_dim: int, indices) -> "Subspace":
        """Span of the listed standard basis vectors."""
        return Subspace(ambient_dim, np.eye(ambient_dim, dtype=complex)[:, list(indices)])

    @staticmethod
    def from_vectors(ambient_dim: int, vectors, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Orthonormalize spanning vectors: their closure under no generators."""
        return orthonormal_closure(ambient_dim, vectors, (), tol)


def op_norm(M) -> float:
    """Largest singular value; an empty matrix has norm 0.  The one-matrix
    case of _exact_norms, so it equals _op_norms([M])[0] and
    _max_op_norms([M])[0] bit for bit."""
    return float(_exact_norms(as_cmatrix(M)[None])[0])


# Residuals are normed in stacks of at most this many bytes: one batched
# SVD per stack instead of one call per residual, in memory that stays
# bounded however many residuals a measurement has.
_STACK_BYTES = 1 << 20

# A residual whose smaller side exceeds this is normed on its coupled
# support (_support_norms), and _lead_product multiplies operators on their
# nonzero extents (_extent); on smaller matrices finding the support costs
# more than the SVD or the gemm it would save.
_SUPPORT_MIN = 32


def _stacks(residuals):
    """The residual matrices in order, packed into (m, rows, cols) complex
    stacks of one shape and at most _STACK_BYTES each.  A residual that
    fills a stack on its own (over half the budget) is yielded as a
    (1, rows, cols) view of itself, not copied; the stacks are read, never
    written."""
    S, m = None, 0
    for R in residuals:
        if S is not None and (m == len(S) or R.shape != S.shape[1:]):
            yield S[:m]
            S = None
        if S is None:
            cap = max(1, _STACK_BYTES // (16 * max(R.size, 1)))
            if cap == 1:
                yield np.asarray(R, dtype=complex)[None]
                continue
            S, m = np.empty((cap, *R.shape), dtype=complex), 0
        S[m] = R
        m += 1
    if S is not None:
        yield S[:m]


def _slack(rows: int, cols: int) -> float:
    """The relative margin by which a squared Frobenius norm, summed by
    columns and then over them, of a matrix within rows x cols must fall
    below a squared bound before the bound settles its operator norm.  The
    sums of squares round within (rows + cols + 2) ulps of exact, which
    leaves over (rows + cols) ulps of the norm for an SVD's rounding of the
    top singular value (a small multiple of eps times itself)."""
    return 4 * (rows + cols) * np.finfo(float).eps


def _stack_max(S: np.ndarray, floor: float) -> float:
    """max(floor, max_i ||S[i]||_2), with an exact norm (_exact_norms) only
    for the candidates: the S[i] whose Frobenius norm (an upper bound)
    reaches the largest column norm (a lower bound) of the stack and floor.

    Both bounds are sums of the same squared entries; the Frobenius one
    sums the computed column sums, so rounding keeps it at or above every
    column norm of its own matrix.  Between matrices the two naive sums
    are each within (rows + cols) ulps of exact, which the slack of the
    candidate test covers: no residual whose norm can reach the maximum is
    dropped, and the value returned is an exact norm (or floor)."""
    if S.size == 0:
        return floor
    with np.errstate(over="ignore"):   # inf bounds only widen the candidates
        col2 = (S.real ** 2 + S.imag ** 2).sum(axis=1)
        fro2 = col2.sum(axis=1)
        best2 = max(floor * floor, float(col2.max()))
    slack = _slack(*S.shape[1:])
    # "not below", so that a NaN bound stays a candidate: its SVD raises
    # LinAlgError, as op_norm does, instead of the residual dropping out
    cand = ~(fro2 < best2 * (1.0 - slack))
    if not cand.any():
        return floor
    norms = _exact_norms(S[cand], fro2[cand])
    # np.maximum keeps the NaN norm of a residual with an inf entry (an
    # overflowed product), which Python's max would drop
    return float(np.maximum(floor, norms.max()))


def _exact_norms(C: np.ndarray, fro2=None) -> np.ndarray:
    """||C[i]||_2 for each matrix in the stack C, the one body that takes an
    operator norm: on its support (_support_norms) for a stack above
    _SUPPORT_MIN whose squared Frobenius norms fro2 (computed unless given)
    are finite, else by the SVD of each whole matrix; zeros for an empty
    stack.  Each value depends on its own matrix alone."""
    if C.size == 0:
        return np.zeros(len(C))
    if min(C.shape[1:]) > _SUPPORT_MIN:
        if fro2 is None:
            with np.errstate(over="ignore"):   # summed as _stack_max sums
                fro2 = (C.real ** 2 + C.imag ** 2).sum(axis=1).sum(axis=1)
        if np.isfinite(fro2).all():   # finite Frobenius norms mean finite entries
            return _support_norms(C)
    return np.linalg.svd(C, compute_uv=False)[:, 0]


def _support_norms(C: np.ndarray) -> np.ndarray:
    """||R||_2 for each finite R in the stack C, read from its support.

    An index j < min(rows, cols) is decoupled when row j and column j of R
    are zero off the diagonal.  Without its exact-zero rows and columns and
    its decoupled indices, R leaves its coupled block, and R is permutation
    equivalent to blockdiag(coupled, diag(R_jj over decoupled j), 0).  So
    ||R|| is the larger of the coupled block's top singular value and the
    largest decoupled |R_jj|: each an exact SVD or an exact entry.  Blocks
    of one shape share one batched SVD.  A block whose Frobenius norm (an
    upper bound of its top singular value) falls below the largest
    decoupled |R_jj| by _slack, as in _stack_max, cannot change ||R||, so it
    takes no SVD: the value is that entry, as the SVD would have left it."""
    p = min(C.shape[1:])
    nz = C != 0   # exact zeros; squared sums would underflow
    rows, cols = nz.sum(axis=2), nz.sum(axis=1)
    diag = np.arange(p)
    on = nz[:, diag, diag]
    decoupled = (rows[:, :p] == on) & (cols[:, :p] == on)
    keep_rows, keep_cols = rows > 0, cols > 0
    keep_rows[:, :p] &= ~decoupled
    keep_cols[:, :p] &= ~decoupled
    if keep_rows.all() and keep_cols.all():   # dense: the coupled block is R
        return np.linalg.svd(C, compute_uv=False)[:, 0]
    norms = np.where(decoupled, np.abs(C[:, diag, diag]), 0.0).max(axis=1, initial=0.0)
    settled = norms * norms * (1.0 - _slack(*C.shape[1:]))
    blocks = {}   # coupled block shape -> [(stack index, block)]
    for i, (r, c) in enumerate(zip(keep_rows, keep_cols)):
        r, c = np.flatnonzero(r), np.flatnonzero(c)
        if r.size:   # a kept row has its nonzero entries in kept columns
            B = C[i][np.ix_(r, c)]
            if (B.real ** 2 + B.imag ** 2).sum(axis=0).sum() >= settled[i]:
                blocks.setdefault((r.size, c.size), []).append((i, B))
    for members in blocks.values():
        at = [i for i, _ in members]
        top = np.linalg.svd(np.stack([B for _, B in members]), compute_uv=False)[:, 0]
        norms[at] = np.maximum(norms[at], top)
    return norms


def _extent(M: np.ndarray) -> tuple:
    """(1 + the last nonzero row, 1 + the last nonzero column) of M: it is
    zero outside that leading block.  At or below _SUPPORT_MIN rows or
    columns it is M's shape, so that small products stay one dense gemm."""
    if min(M.shape) <= _SUPPORT_MIN:
        return M.shape
    nz = M != 0
    rows, cols = np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))
    return (int(rows[-1]) + 1 if rows.size else 0, int(cols[-1]) + 1 if cols.size else 0)


def _extent_bound(extents) -> tuple:
    """An extent of a sum: the largest row and column extent of its terms."""
    return tuple(max(x) for x in zip((0, 0), *extents))


def _lead_product(A: np.ndarray, a: tuple, B: np.ndarray, b: tuple,
                  adjoint: bool = False) -> np.ndarray:
    """A @ B, or A* @ B with adjoint, given a and b, extents of A and B: the
    product of their leading blocks, zero elsewhere.  The leading blocks
    hold every nonzero term, so this is A @ B up to the order in which the
    gemm sums; with full extents it is A @ B itself."""
    if a == A.shape and b == B.shape:
        return (A.conj().T if adjoint else A) @ B
    if adjoint:
        A, a = A.T, a[::-1]
    (ra, ca), (rb, cb) = a, b
    k = min(ca, rb)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=complex)
    lead = A[:ra, :k]
    out[:ra, :cb] = (lead.conj() if adjoint else lead) @ B[:k, :cb]
    return out


def _norm_within(X: np.ndarray, bound: float) -> bool:
    """||X||_2 <= bound, False for a NaN norm.  With bound as the floor of
    _stack_max, the SVD runs only when the Frobenius norm does not settle it."""
    return _stack_max(X[None], bound) <= bound


def _max_op_norms(residuals, sizes=(None,)) -> list:
    """[max_i ||R_i[:k, :k]||_2 for k in sizes], k = None standing for all
    of R_i and 0 for no residual or an empty block, from one pass over the
    residuals in _STACK_BYTES stacks.  This is the one place that takes a
    maximum of operator norms; each value is an exact norm of a maximizing
    residual, pruned by the certified bounds of _stack_max."""
    worst = [0.0] * len(sizes)
    with np.errstate(over="ignore", invalid="ignore"):   # an overflowed residual is a NaN norm
        for S in _stacks(residuals):
            worst = [_stack_max(S[:, :k, :k], w) for k, w in zip(sizes, worst)]
    return worst


def _op_norms(residuals) -> np.ndarray:
    """||R_i||_2 for every residual, in order and unpruned: _exact_norms of
    each _STACK_BYTES stack, so each value is op_norm(R_i) bit for bit when
    its stack is finite."""
    with np.errstate(over="ignore", invalid="ignore"):   # as in _max_op_norms
        norms = [_exact_norms(S) for S in _stacks(residuals)]
    return np.concatenate(norms) if norms else np.zeros(0)


def _hermitian_part(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.conj().T)


def _eigen_factor(A: np.ndarray, cutoff: float):
    """(w, s, V): the eigenvalues w of the Hermitian part of A, ascending and
    unclipped, from which the callers read their preconditions; its
    eigenvectors V; and s = sqrt(w) with every w at or below cutoff (in
    particular every negative one) set to 0, so that the columns with s > 0
    span the kept range.  This is the one place that clips eigenvalues."""
    w, V = np.linalg.eigh(_hermitian_part(A))
    return w, np.sqrt(np.where(w > cutoff, w, 0.0)), V


def _sqrt_from(factor) -> np.ndarray:
    """The Hermitian square root (V * s) V* of an _eigen_factor result."""
    _, s, V = factor
    return _hermitian_part((V * s) @ V.conj().T)


def _psd_factor(A: np.ndarray, tol: Tolerance, cutoff: float):
    """_eigen_factor(A, cutoff) if A is Hermitian within tol.eps with no
    eigenvalue below -tol.eig_clip, else None: the one positivity test."""
    if not _norm_within(A - A.conj().T, tol.eps):
        return None
    factor = _eigen_factor(A, cutoff)
    return factor if factor[0].min(initial=0.0) >= -tol.eig_clip else None


def is_psd(M, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Hermitian within tol.eps and minimal eigenvalue >= -tol.eig_clip."""
    A = as_cmatrix(M)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"is_psd needs a square matrix, got {A.shape}")
    return _psd_factor(A, tol, 0.0) is not None


def psd_sqrt(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root via spectral decomposition.

    Eigenvalues in [-eig_clip, 0) are clipped to 0; anything more negative is
    rejected by the is_psd test, read from the same factor.
    """
    A = as_cmatrix(M)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"psd_sqrt needs a square matrix, got {A.shape}")
    factor = _psd_factor(A, tol, 0.0)
    if factor is None:
        raise PositivityError("matrix is not positive semidefinite within tolerance")
    return _sqrt_from(factor)


def defect_sqrt(T, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """(I - T*T)^{1/2} for a contraction T (I matches T's column count).

    The precondition ||T|| <= 1 + eps admits eigenvalues of I - T*T down to
    about -2*eps, below the -eig_clip line is_psd would draw; once the norm
    precondition holds every negative eigenvalue is a rounding artifact, so
    all of them are clamped to 0.
    """
    A = as_cmatrix(T)
    if not _norm_within(A, 1.0 + tol.eps):
        raise ContractivityError("matrix is not a contraction within tolerance")
    return _sqrt_from(_eigen_factor(np.eye(A.shape[1], dtype=complex) - A.conj().T @ A, 0.0))


def _append_orthonormal(B: np.ndarray, W: np.ndarray, eig_clip: float):
    """Orthogonalize the columns of W against B and among themselves,
    appending the directions that survive the rank cutoff.

    Gram-Schmidt passes are applied twice (re-orthogonalization) before the
    rank-revealing SVD, then twice more on the surviving directions: the SVD
    rescales residuals by up to 1/eig_clip, which can re-introduce overlap
    with B that a final cleaning pass removes.
    """
    if W.size == 0:
        return B, 0
    scale = float(np.max(np.linalg.norm(W, axis=0), initial=0.0))
    if scale <= eig_clip:
        return B, 0
    for _ in range(2):
        if B.shape[1]:
            W = W - B @ (B.conj().T @ W)
    U, s, _ = np.linalg.svd(W, full_matrices=False)
    k = int(np.sum(s > eig_clip * max(1.0, scale)))
    if k == 0:
        return B, 0
    N = U[:, :k]
    for _ in range(2):
        if B.shape[1]:
            N = N - B @ (B.conj().T @ N)
    Q, R = np.linalg.qr(N)
    keep = np.abs(np.diag(R)) > 0.5
    Q = Q[:, keep]
    if Q.shape[1] == 0:
        return B, 0
    return np.column_stack([B, Q]), Q.shape[1]


def orthonormal_closure(ambient_dim: int, seeds, generators, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Smallest subspace containing the seeds and invariant under every
    generator, computed by repeated application and re-orthogonalized
    Gram-Schmidt with rank cutoff tol.eig_clip."""
    gens = [as_cmatrix(G, rows=ambient_dim, cols=ambient_dim) for G in generators]
    seed_list = [np.asarray(v, dtype=complex).reshape(-1) for v in seeds]
    for v in seed_list:
        if v.shape[0] != ambient_dim:
            raise DimensionError("seed vector does not match the ambient dimension")
    B = np.zeros((ambient_dim, 0), dtype=complex)
    B, added = _append_orthonormal(B, np.column_stack(seed_list) if seed_list else B, tol.eig_clip)
    fresh = B[:, B.shape[1] - added:]
    # Fixpoint: only new directions need another generator pass, none once B spans.
    while fresh.shape[1] and gens and B.shape[1] < ambient_dim:
        candidates = np.column_stack([G @ fresh for G in gens])
        B, added = _append_orthonormal(B, candidates, tol.eig_clip)
        fresh = B[:, B.shape[1] - added:]
    return Subspace(ambient_dim, B)
