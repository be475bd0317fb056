"""Independent eigenvalue oracle for -psi'' + W(s) psi = eps psi on [0, L].

Symmetric three-point discretization with Dirichlet ends plus a
Sturm-sequence bisection eigensolver.  Deliberately self-contained (no
linear-algebra library) so it can cross-validate the analytic Bessel
spectrum without sharing any machinery with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "TridiagonalOperator",
    "discretize",
    "sturm_count",
    "eigenvalues_lowest",
    "richardson_refine",
]

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix acting on interior grid values."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    grid_step: float
    length: float

    def __post_init__(self) -> None:
        d = np.asarray(self.diagonal, dtype=float)
        e = np.asarray(self.off_diagonal, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or e.size != d.size - 1:
            raise ValueError("off-diagonal must be one entry shorter than the diagonal")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "off_diagonal", e)

    @property
    def size(self) -> int:
        return self.diagonal.size

    def gershgorin_bounds(self) -> tuple[float, float]:
        d = self.diagonal
        e = np.abs(self.off_diagonal)
        radius = np.zeros_like(d)
        radius[:-1] += e
        radius[1:] += e
        return float(np.min(d - radius)), float(np.max(d + radius))


def discretize(W: Callable[[float], float], L: float, n_interior: int) -> TridiagonalOperator:
    """Three-point operator for -psi'' + W psi with psi(0) = psi(L) = 0.

    Interior nodes sit at s_i = i h, h = L / (n_interior + 1), so potentials
    singular at the origin (the 1/s^2 family) are never evaluated at s = 0.
    """
    if L <= 0.0:
        raise ValueError("domain length must be positive")
    if n_interior < 1:
        raise ValueError("need at least one interior node")
    h = L / (n_interior + 1)
    h2 = h * h
    if not 0.0 < h2 < math.inf:
        raise ValueError(f"the grid step {h!r} squared leaves the floating-point range")
    inv_h2 = 1.0 / h2
    diag = np.empty(n_interior)
    for i in range(1, n_interior + 1):
        w = W(i * h)
        if not math.isfinite(w):
            raise ValueError(f"potential is not finite at node s = {i * h!r}")
        diag[i - 1] = 2.0 * inv_h2 + w
    off = np.full(n_interior - 1, -inv_h2)
    return TridiagonalOperator(diagonal=diag, off_diagonal=off, grid_step=h, length=L)


def _pivmin(off_sq: Sequence[float]) -> float:
    return 1e-290 * max(1.0, max(off_sq, default=1.0))


def _sturm_count(diag: Sequence[float], off_sq: Sequence[float], lam: float, pivmin: float) -> int:
    # number of sign-negative pivots in the LDL^T factorization of (T - lam I),
    # which equals the number of eigenvalues below lam; vanishing pivots are
    # clamped to -pivmin so an exact hit on a principal-minor eigenvalue
    # counts as crossed rather than being skipped
    d = diag[0] - lam
    if -pivmin < d < pivmin:
        d = -pivmin
    count = 1 if d < 0.0 else 0
    for i in range(1, len(diag)):
        d = diag[i] - lam - off_sq[i - 1] / d
        if -pivmin < d < pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
    return count


def sturm_count(op: TridiagonalOperator, lam: float) -> int:
    """Number of eigenvalues of the operator below `lam`."""
    off_sq = (op.off_diagonal**2).tolist()
    return _sturm_count(op.diagonal.tolist(), off_sq, lam, _pivmin(off_sq))


def eigenvalues_lowest(op: TridiagonalOperator, count: int) -> np.ndarray:
    """The `count` smallest eigenvalues by Sturm bisection, ascending.

    Each bisection runs to machine precision relative to the Gershgorin
    scale of the matrix, so the results are deterministic and tight enough
    for Richardson extrapolation on top.
    """
    if not 1 <= count <= op.size:
        raise ValueError(f"count must lie in 1..{op.size}, got {count!r}")
    diag = op.diagonal.tolist()
    off_sq = (op.off_diagonal**2).tolist()
    pivmin = _pivmin(off_sq)
    lo0, hi0 = op.gershgorin_bounds()
    out = np.empty(count)
    lo_floor = lo0
    for k in range(1, count + 1):
        lo, hi = lo_floor, hi0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if _sturm_count(diag, off_sq, mid, pivmin) >= k:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 4.0 * _EPS * max(abs(lo), abs(hi)):
                break
        out[k - 1] = 0.5 * (lo + hi)
        lo_floor = lo  # eigenvalues are ordered; never search below the last one
    return out


def richardson_refine(
    W: Callable[[float], float], L: float, count: int, n_coarse: int
) -> np.ndarray:
    """Eigenvalues extrapolated from grids n_coarse and 2 n_coarse.

    Cancels the leading O(h^2) discretization error using the exact grid
    steps (they differ by slightly less than a factor two), leaving O(h^4).
    """
    coarse = eigenvalues_lowest(discretize(W, L, n_coarse), count)
    fine = eigenvalues_lowest(discretize(W, L, 2 * n_coarse), count)
    h_c = L / (n_coarse + 1)
    h_f = L / (2 * n_coarse + 1)
    c2, f2 = h_c * h_c, h_f * h_f
    return (c2 * fine - f2 * coarse) / (c2 - f2)
