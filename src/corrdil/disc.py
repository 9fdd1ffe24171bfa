"""The disc-algebra cover C(T) + M_2 and its non-admissibility gap.

The cover embeds a polynomial p as its boundary function together with the
2x2 lower-triangular matrix p(0) I + p'(0) N, N = [[0,0],[1,0]] (functional
calculus of a nilpotent of order two).  Composing with the Mobius map
phi(z) = (z - 1/2)/(1 - z/2) shrinks the relation defect
iota(p) - iota(p)^2 iota(p)* from norm 1 down to 3*sqrt(10)/16 < 1, so no
*-automorphism of the cover can implement the composition: the dynamics do
not extend to this cover.

The circle C(T) is modeled on a uniform grid; the decisive inequality lives
entirely in the exact 2x2 matrix parts, the grid only certifies that the
function parts of both defects vanish.  For a degree-D polynomial part and an
M-point grid with M > D the samples determine the polynomial exactly, so no
interpolation error enters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_cmatrix, op_norm

__all__ = [
    "CoverElement",
    "mobius_coeffs",
    "embed_poly",
    "relation_defect",
    "admissibility_gap",
]

DEFAULT_GRID = 4096
DEFAULT_TRUNC = 64
MAX_DEGREE = 1024


@dataclass(frozen=True)
class CoverElement:
    """A function-part sample vector on the circle grid plus a 2x2 matrix."""

    func_part: np.ndarray
    mat_part: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "func_part", np.asarray(self.func_part, dtype=complex))
        object.__setattr__(self, "mat_part", as_cmatrix(self.mat_part, rows=2, cols=2))

    def __mul__(self, other: "CoverElement") -> "CoverElement":
        return CoverElement(self.func_part * other.func_part,
                            self.mat_part @ other.mat_part)

    def __sub__(self, other: "CoverElement") -> "CoverElement":
        return CoverElement(self.func_part - other.func_part,
                            self.mat_part - other.mat_part)

    def adjoint(self) -> "CoverElement":
        return CoverElement(self.func_part.conj(), self.mat_part.conj().T)


def mobius_coeffs(n: int) -> list:
    """First n+1 Taylor coefficients of (z - 1/2)/(1 - z/2):
    a_0 = -1/2 and a_k = 3/2^{k+1} for k >= 1."""
    if n < 1:
        raise ValueError("need at least the linear coefficient (n >= 1)")
    return [complex(-0.5)] + [complex(3.0 / 2 ** (k + 1)) for k in range(1, n + 1)]


def _grid(points: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(points) / points)


def embed_poly(coeffs, grid: int = DEFAULT_GRID) -> CoverElement:
    """Embed a polynomial (coefficient list, ascending degree) in the cover:
    boundary samples plus the matrix p(0) I + p'(0) N."""
    c = [complex(x) for x in coeffs]
    degree = len(c) - 1
    if degree > MAX_DEGREE or degree >= grid:
        raise ValueError(f"degree overflow: degree {degree} with grid {grid}")
    z = _grid(grid)
    func = np.polyval(c[::-1], z)
    a0 = c[0] if c else 0j
    a1 = c[1] if len(c) > 1 else 0j
    mat = np.array([[a0, 0.0], [a1, a0]], dtype=complex)
    return CoverElement(func, mat)


def relation_defect(coeffs, grid: int = DEFAULT_GRID) -> CoverElement:
    """iota(p) - iota(p)^2 iota(p)* inside the cover.

    For an inner function p this vanishes on the circle (|p| = 1 there), so
    the function part measures only truncation error, while the matrix part
    is exact nilpotent functional calculus.
    """
    x = embed_poly(coeffs, grid)
    return x - (x * x) * x.adjoint()


def admissibility_gap(trunc_degree: int = DEFAULT_TRUNC, grid: int = DEFAULT_GRID) -> tuple:
    """(norm of the Mobius relation-defect matrix, norm of the coordinate one).

    Returns (3*sqrt(10)/16, 1.0) up to rounding; the strict inequality
    first < second is what rules out any *-automorphism carrying one defect
    to the other.
    """
    if trunc_degree < 2:
        raise ValueError("trunc_degree must be at least 2")
    if grid < 64:
        raise ValueError("grid must have at least 64 points")
    d1 = relation_defect(mobius_coeffs(trunc_degree), grid)
    d0 = relation_defect([0.0, 1.0], grid)
    return (op_norm(d1.mat_part), op_norm(d0.mat_part))
