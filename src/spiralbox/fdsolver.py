"""Independent eigenvalue oracle for -psi'' + W(s) psi = eps psi on [0, L].

Symmetric three-point discretization with Dirichlet ends plus an
eigensolver that takes Laguerre steps on the LDL^T sweep from the lower
Gershgorin bound, or Newton steps on a pass that carries only the Sturm count
and G from a start (an earlier grid's eigenvalue), each kept inside a bracket
proved by Sturm counts.  Every level is closed by counts on its own operator,
to max(2e-10 relative, 2 eps ||T||), the rounding floor of the pivots, and
never below pivmin, the pivots' clamp away from zero: 1e-290 max(1, max off^2),
or with no coupled row the smallest normal float, 2.2e-308.  A start changes
the cost of a solve and never what certifies it.  Richardson refinement solves
a grid and its double, starting the grid from a pilot 1/16 as fine and the
double from the grid; the pilot must hold a node a level.
Deliberately self-contained (no linear-algebra library) so it can
cross-validate the analytic Bessel spectrum without sharing any machinery
with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
_TINY = 2.2250738585072014e-308  # the smallest normal float
# a Laguerre correction this small, relative to the shift, ends the iteration
_STEP_RTOL = 1e-10
# a Laguerre correction below this, relative to the shift, lands within
# _STEP_RTOL by cubic convergence: two counts then certify the step
_CERT_RTOL = 1e-4
# a Newton correction delta below this, relative to the shift, leaves an error
# of about delta^2 sum_{j != k} 1/|lam_j - lam_k|: from the fine grid's 1e-6
# start about 1e-11 of lam_k, at or below the pivots' rounding floor
# 2 eps ||T||, so two counts then certify the step
_NEWTON_RTOL = 1e-5
# Richardson's pilot grid is this many times coarser than its coarse grid,
# and still holds a node for every level
PILOT_RATIO = 16


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix acting on interior grid values."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    grid_step: float

    def __post_init__(self) -> None:
        # private read-only copies, so that the rows cached below cannot go stale
        d = np.array(self.diagonal, dtype=float)
        e = np.array(self.off_diagonal, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or e.size != d.size - 1:
            raise ValueError("off-diagonal must be one entry shorter than the diagonal")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("operator entries must be finite")
        # every sweep works with the squared off-diagonal, -1/h^2 from discretize: a
        # square that overflows, or underflows below the normal floats, counts another matrix
        coupled = np.abs(e[e != 0.0])
        for entry in (float(coupled.max()), float(coupled.min())) if coupled.size else ():
            if not _TINY <= entry * entry < math.inf:
                raise ValueError(
                    f"the grid step {self.grid_step!r} gives an off-diagonal entry {entry!r}"
                    " whose square leaves the floating-point range"
                )
        d.flags.writeable = e.flags.writeable = False
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

    @cached_property
    def _rows(self) -> tuple[list[float], list[float], float]:
        # (diag, above_sq, pivmin) as Python floats, read by every pass over the
        # operator: built on first use and shared by all its counts and solves
        off_sq = (self.off_diagonal**2).tolist()
        return self.diagonal.tolist(), [0.0, *off_sq], _pivmin(off_sq)


def discretize(
    W: Callable[[np.ndarray], np.ndarray | float], L: float, n_interior: int
) -> TridiagonalOperator:
    """Three-point operator for -psi'' + W psi with psi(0) = psi(L) = 0.

    Interior nodes sit at s_i = i h, h = L / (n_interior + 1), so potentials
    singular at the origin (the 1/s^2 family) are never evaluated at s = 0.
    `W` is called once, on the array of interior nodes, and returns the
    potential there elementwise; a scalar return is a constant potential.
    A non-finite value is refused, naming the first node where it occurs,
    and so is a grid step for which h^2 or 1/h^4 (the squared off-diagonal)
    leaves the floating-point range.
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
    s = np.arange(1, n_interior + 1) * h
    with np.errstate(all="ignore"):  # a non-finite value is refused below
        w = np.broadcast_to(np.asarray(W(s), dtype=float), s.shape)
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise ValueError(f"potential is not finite at node s = {s[bad[0]].item()!r}")
    off = np.full(n_interior - 1, -inv_h2)
    return TridiagonalOperator(diagonal=2.0 * inv_h2 + w, off_diagonal=off, grid_step=h)


def _pivmin(off_sq: Sequence[float]) -> float:
    # with no coupled row no square sets a scale: pivots resolve to the normal floats
    largest = max(off_sq, default=0.0)
    return 1e-290 * max(1.0, largest) if largest else _TINY


def _count(diag: Sequence[float], above_sq: Sequence[float], x: float, pivmin: float) -> int:
    # number of negative pivots in the LDL^T factorization of (T - x I), which
    # equals the number of eigenvalues below x (above_sq[i] = off[i - 1]^2,
    # and 0 for the first row); a pivot in (-pivmin, pivmin) is clamped to
    # -pivmin, so an exact hit on an eigenvalue of a leading block counts as
    # crossed rather than poisoning the next pivot
    count = 0
    d = 1.0
    for a, b in zip(diag, above_sq):
        d = a - x - b / d
        if d < pivmin:  # one comparison on the common path
            if d > -pivmin:
                d = -pivmin
            count += 1
    return count


def sturm_count(op: TridiagonalOperator, lam: float) -> int:
    """Number of eigenvalues of the operator below `lam`."""
    diag, above_sq, pivmin = op._rows
    return _count(diag, above_sq, lam, pivmin)


def _sweep(
    diag: Sequence[float], above_sq: Sequence[float], x: float, pivmin: float
) -> tuple[int, float, float]:
    # the LDL^T pass of _count (with q = b * (1/d) in place of b / d) carrying,
    # beside the count, the logarithmic derivatives of p(x) = det(T - x I) = prod d_i:
    #   G = (log|p|)' = sum d_i'/d_i,   H = -(log|p|)'' = sum (d_i'/d_i)^2 - d_i''/d_i,
    # from d_i' = -1 + b d_{i-1}'/d_{i-1}^2 and its derivative (b = off^2).
    # With q = b/d_{i-1}, r = d'/d and s = d''/d the recurrences read
    #   r_i = (q r_{i-1} - 1)/d_i,   s_i = q (s_{i-1} - 2 r_{i-1}^2)/d_i,
    # so no product of pivots is formed.  A pivot clamped to -pivmin (x on an
    # eigenvalue of a leading block) sends G or H to inf or nan, never raises.
    count = 0
    inv = r = rr = s = g = h = 0.0
    for a, b in zip(diag, above_sq):
        q = b * inv
        d = a - x - q
        if d < pivmin:
            if d > -pivmin:
                d = -pivmin
            count += 1
        inv = 1.0 / d
        s = q * (s - 2.0 * rr) * inv
        r = (q * r - 1.0) * inv
        rr = r * r
        g += r
        h += rr - s
    return count, g, h


def _count_g(
    diag: Sequence[float], above_sq: Sequence[float], x: float, pivmin: float
) -> tuple[int, float]:
    # _sweep without the s, rr and h recurrences: its count and G, bit for bit
    count = 0
    inv = r = g = 0.0
    for a, b in zip(diag, above_sq):
        q = b * inv
        d = a - x - q
        if d < pivmin:
            if d > -pivmin:
                d = -pivmin
            count += 1
        inv = 1.0 / d
        r = (q * r - 1.0) * inv
        g += r
    return count, g


def eigenvalues_lowest(
    op: TridiagonalOperator, count: int, *, start: Sequence[float] | None = None
) -> np.ndarray:
    """The `count` smallest eigenvalues by count-safeguarded Laguerre or Newton steps, ascending.

    One LDL^T sweep at a shift x gives the number of eigenvalues below x and
    G = sum 1/(x - lam_j), H = sum 1/(x - lam_j)^2 (Li & Zeng, SIAM J. Sci.
    Comput. 15, 1994).  For eigenvalue k the k - 1 already found are divided
    out of G and H, which leaves a polynomial of degree m = n - k + 1 whose
    roots all lie at or above lam_k.  Laguerre's step
    x - m / (G -+ sqrt((m - 1)(m H - G^2))) converges cubically near lam_k
    and never passes a root: it goes right while fewer than k eigenvalues lie
    below x, and left only when exactly k do.  With more than k below, or
    when a step would leave the bracket that the counts have proved for
    lam_k, the bracket is bisected instead; but where H < G^2/m, which only
    rounding can cause (a pivot nearly vanishing at x), the first such step
    of a level or after a bisection goes 1/|G| toward lam_k, which from
    below is Newton's step and cannot pass lam_k.  Far below lam_k the
    steps shrink only linearly, and the iteration jumps to the limit of
    their geometric series.  Without `start`, every level starts from the sweep at the lower
    Gershgorin bound, which is made once.

    `start`, one approximate value per level, is only a hint: level k then
    begins at start[k - 1], clamped into the bracket the counts have proved
    for it.  From there it takes Newton's steps, 1/|G| toward lam_k with G
    deflated as above, each on a pass that carries only the count and G.
    From below lam_k Newton's step cannot pass it and converges
    quadratically.  Laguerre's loop above goes on from the current point
    when more than k eigenvalues lie below it, when G is 0 or not finite,
    when the step would leave the bracket or a correction does not halve,
    when a certificate fails, and after one step from above lam_k, where
    Newton's own step passes it.  Once a level has gone on to Laguerre, the
    levels above it, which start further off, take Laguerre's loop from
    their starts.  A start moves the passes and nothing else, so the result
    is certified by counts all the same.

    A level is done when its count bracket is 2e-10 relative wide, or
    2 eps * ||T||: the rounding floor of the pivots, below which counts and
    corrections are noise alike; call that tol.  Counts that only close a
    bracket come from a count-only pass, which skips G and H.  Once a
    correction falls below tol, one count just beyond the corrected point
    closes the bracket.  Once a Laguerre correction falls below 1e-4 of the
    shift, or a Newton correction below 1e-5, the step lies within about
    tol of lam_k, and two counts at the step -+ tol certify it in place of
    a pass there; if they do not bracket lam_k, the brackets they proved
    stay and Laguerre's iteration goes on.  The step is the result, and
    every result is certified by counts.
    """
    if not 1 <= count <= op.size:
        raise ValueError(f"count must lie in 1..{op.size}, got {count!r}")
    if start is not None:
        start = [float(v) for v in start]
        if len(start) != count or not all(map(math.isfinite, start)):
            raise ValueError(f"start must give {count} finite values, got {start!r}")
    diag, above_sq, pivmin = op._rows
    bottom, top = op.gershgorin_bounds()
    # positive even for the zero matrix, so that every bracket can close
    floor = max(_EPS * max(abs(bottom), abs(top)), pivmin)

    def tol(v: float) -> float:
        return max(_STEP_RTOL * abs(v), floor)

    # padded so that no eigenvalue lies below `bottom` and all lie below `top`
    bottom -= 4.0 * floor + pivmin
    top += 4.0 * floor + pivmin
    # lo[k] <= lam_k < hi[k], from counts: count(lo[k]) < k <= count(hi[k])
    lo = [bottom] * (count + 1)
    hi = [top] * (count + 1)

    def bound(x: float, below: int) -> None:
        for j in range(1, count + 1):
            if below >= j:
                hi[j] = min(hi[j], x)
            else:
                lo[j] = max(lo[j], x)

    def sweep(x: float) -> tuple[int, float, float]:
        below, g, h = _sweep(diag, above_sq, x, pivmin)
        bound(x, below)
        return below, g, h

    def count_at(x: float) -> int:
        below = _count(diag, above_sq, x, pivmin)
        bound(x, below)
        return below

    found: list[float] = []

    def deflated(x: float, g: float, h: float) -> tuple[float, float]:
        # G and H with the levels already found divided out
        for lam in found:
            if x == lam:  # G and H have a pole here
                return math.nan, h
            pole = 1.0 / (x - lam)
            g -= pole
            h -= pole * pole
        return g, h

    def newton(k: int, x: float) -> tuple[float, bool]:
        # Newton's length 1/|G| toward lam_k on count-and-G passes: (the step,
        # True) once counts close level k, else (where Laguerre goes on, False)
        last = math.inf
        while True:
            below, g = _count_g(diag, above_sq, x, pivmin)
            bound(x, below)
            g = abs(deflated(x, g, 0.0)[0]) if below <= k else math.nan
            step = math.nan
            if 0.0 < g < math.inf:
                step = x + 1.0 / g if below < k else x - 1.0 / g
            t = tol(x)
            # rounding may carry a converged step just past the bracket
            if not lo[k] - t <= step <= hi[k] + t:
                return x, False
            step = min(max(step, lo[k]), hi[k])
            move = step - x
            if abs(move) > 0.5 * abs(last):
                return step, False
            if abs(move) <= t:
                return step, count_at(step + t) >= k if below < k else count_at(step - t) < k
            if abs(move) <= _NEWTON_RTOL * abs(x):
                return step, count_at(step - tol(step)) < k <= count_at(step + tol(step))
            if below == k:
                # above lam_k Newton's own step passes lam_k (the other levels'
                # terms of G are all negative, so 1/G > x - lam_k), or heads for
                # lam_k+1 where G < 0: Laguerre goes on from this one
                return step, False
            last = move
            x = step

    seed = _sweep(diag, above_sq, bottom, pivmin) if start is None else None
    # higher levels start further off: once a level has gone on to Laguerre,
    # the levels above it start there
    warm = start is not None
    for k in range(1, count + 1):
        m = op.size - k + 1
        if start is None:
            x, (below, g, h) = bottom, seed
        else:
            x = min(max(start[k - 1], lo[k]), hi[k])
            if warm:
                x, warm = newton(k, x)
                if warm:
                    found.append(x)
                    continue
                x = min(max(x, lo[k]), hi[k])
            below, g, h = sweep(x)
        last = 0.0  # the previous Laguerre correction, signed
        while True:
            t = tol(x)
            step = math.nan
            if below <= k:
                g, h = deflated(x, g, h)
                root = math.sqrt(max(0.0, (m - 1) * (m * h - g * g)))
                if below < k:
                    a, b, den = x, hi[k], g - root
                else:
                    a, b, den = lo[k], x, g + root
                if den != 0.0:
                    step = x - m / den
                # rounding may carry a converged step just past the bracket
                step = min(max(step, a), b) if a - t <= step <= b + t else math.nan
                if math.isnan(step) and not last and g != 0.0 and m * h < g * g:
                    # H < G^2/m never holds for real roots (Cauchy-Schwarz): a
                    # pivot nearly vanished at x, on an eigenvalue of a leading
                    # block, and rounding swamped H.  Step toward lam_k by Newton's
                    # length 1/|G|, which from below is Newton's step and cannot
                    # pass lam_k, instead of bisecting a Gershgorin-wide bracket
                    step = x + 1.0 / abs(g) if below < k else x - 1.0 / abs(g)
                    if not a < step < b:
                        step = math.nan
            if hi[k] - lo[k] <= 2.0 * tol(max(abs(lo[k]), abs(hi[k]))):
                break
            move = step - x
            # a correction against the last one has crossed lam_k by rounding:
            # it is trusted only while the corrections halve (signs compared, not
            # multiplied: the product of two tiny corrections underflows to 0)
            turned = (move < 0.0 < last or last < 0.0 < move) and abs(move) > 0.5 * abs(last)
            if turned or math.isnan(step):
                x = 0.5 * lo[k] + 0.5 * hi[k]
                last = 0.0
            elif abs(move) <= t:
                # converged: x bounds lam_k on one side, and a count just
                # beyond the step on the other closes the bracket
                if count_at(step + t) >= k if below < k else count_at(step - t) < k:
                    break
                x = 0.5 * lo[k] + 0.5 * hi[k]
                last = 0.0
            elif abs(move) <= _CERT_RTOL * abs(x) and (
                count_at(step - tol(step)) < k <= count_at(step + tol(step))
            ):
                # cubic convergence has put lam_k within tol of the step, and
                # two counts prove it in place of a sweep there (the second is
                # skipped when the first fails); if they do not, the brackets
                # they proved stay and the step goes on below
                break
            else:
                ratio = move / last if last else 0.0
                if below < k and 0.8 < ratio < 1.0:
                    # corrections that barely shrink: far below lam_k, where the
                    # spread of the other roots makes Laguerre crawl; jump to the
                    # limit of their geometric series, or to the middle of the
                    # bracket if that lies outside it (counts catch an overshoot)
                    step = x + move / (1.0 - ratio)
                    if not lo[k] < step < hi[k]:
                        step = 0.5 * lo[k] + 0.5 * hi[k]
                last = step - x
                x = step
            below, g, h = sweep(x)
        # the last step, closed by counts but not swept, is the best point in the bracket
        found.append(step if lo[k] <= step <= hi[k] else 0.5 * lo[k] + 0.5 * hi[k])
    return np.array(found)


def richardson_refine(
    W: Callable[[np.ndarray], np.ndarray | float], L: float, count: int, n_coarse: int
) -> np.ndarray:
    """Eigenvalues extrapolated from grids n_coarse and 2 n_coarse.

    Cancels the leading O(h^2) discretization error using the exact grid
    steps (they differ by slightly less than a factor two), leaving O(h^4).
    A pilot grid of n_coarse // 16 nodes gives the coarse solve its `start`,
    and the coarse eigenvalues give the fine solve its own.  Each grid's
    levels are certified by counts on that grid, whatever its start.  A
    coarse grid of fewer than 16 nodes a level, whose upper levels the
    extrapolation would make up out of order, is refused with ValueError, and
    so are extrapolated levels that leave the floating-point range.
    """
    if n_coarse < PILOT_RATIO * count:
        raise ValueError(
            f"{count} levels need at least {PILOT_RATIO * count} coarse nodes"
            f" ({PILOT_RATIO} a level), got {n_coarse}"
        )
    pilot = eigenvalues_lowest(discretize(W, L, n_coarse // PILOT_RATIO), count)
    coarse = eigenvalues_lowest(discretize(W, L, n_coarse), count, start=pilot)
    fine = eigenvalues_lowest(discretize(W, L, 2 * n_coarse), count, start=coarse)
    h_c = L / (n_coarse + 1)
    h_f = L / (2 * n_coarse + 1)
    # both steps scaled by one power of two, exactly, so that c2 * fine stays a float
    scale = -math.frexp(h_c)[1]
    c2, f2 = math.ldexp(h_c, scale) ** 2, math.ldexp(h_f, scale) ** 2
    with np.errstate(over="ignore"):  # refused below
        refined = (c2 * fine - f2 * coarse) / (c2 - f2)
    if not np.all(np.isfinite(refined)):
        raise ValueError("the extrapolated levels leave the floating-point range")
    return refined
