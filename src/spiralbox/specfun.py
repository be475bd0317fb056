"""Special functions built from scratch: Bessel J of real order 0 <= nu <= 1e4,
its zeros and generalized Laguerre polynomials.

Everything here is plain double-precision arithmetic, so that these routines
can serve as one independent leg of the analytic-vs-finite-difference cross
checks elsewhere in the package.  `bessel_j` and `laguerre` run over a whole
grid of x at once, a single x being a one-point grid: numpy does only the
elementwise IEEE arithmetic, and `math` the logs, exponentials and powers
point by point.  The zeros stay plain Python: they evaluate J at one point
at a time through the scalar recurrence.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable

import numpy as np

__all__ = [
    "MAX_ORDER",
    "MAX_ZEROS",
    "bessel_j",
    "bessel_j_zeros",
    "find_root",
    "laguerre",
]

# The backward recurrence runs over about max(nu, x) terms a call, so larger
# orders or arguments would take seconds to minutes; the sigma fit stays below
# omega ~ 5000, and the CLI's largest argument is about 11 410 (j_{1e4,150}).
MAX_ORDER = 1e4
_MAX_ARGUMENT = 2.0 * MAX_ORDER

# At and below this x, J_nu is its leading term to double precision; above
# it, the backward recurrence.  Each recurrence step multiplies by about
# 2j/x, and below x ~ 1e-50 one step could pass the 1e250 rescale headroom.
_LEADING_TERM_MAX = 1e-8


def _check_order(nu: float) -> float:
    if not 0.0 <= nu <= MAX_ORDER:
        raise ValueError(f"Bessel order must be in [0, {MAX_ORDER:g}], got {nu!r}")
    return float(nu)


def pointwise(fn: Callable[..., float], values: np.ndarray, *args: float) -> np.ndarray:
    """fn(value, *args) at every value, with Python floats, in the shape of `values`.

    For `math` functions and powers, whose numpy vector versions may differ in
    the last bit.
    """
    each = map(fn, values.ravel().tolist(), *(repeat(a) for a in args))
    return np.fromiter(each, float, values.size).reshape(values.shape)


def shaped_like(values: np.ndarray, points) -> float | np.ndarray:
    """The one rule for pointwise functions: `values`, one per point, as a float
    for a scalar `points`, and as an array of their shape for a list, tuple or
    array of points."""
    return values.item() if np.ndim(points) == 0 else values.reshape(np.shape(points))


def _bessel_leading_term(nu: float, x: np.ndarray) -> np.ndarray:
    # (x/2)^nu / Gamma(nu+1), in logs; the ascending series' next term is
    # -(x/2)^2/(nu+1) of it, below 2.5e-17 at x <= _LEADING_TERM_MAX
    half = 0.5 * x
    # x = 5e-324 is the one x > 0 whose half underflows: log x - log 2 stands in
    tiny = half == 0.0
    ln_half = pointwise(math.log, np.where(tiny, x, half)) - np.where(tiny, math.log(2.0), 0.0)
    return pointwise(math.exp, nu * ln_half - math.lgamma(nu + 1.0))


def _order_parts(nu: float) -> tuple[int, float]:
    # integer part and fraction f of nu; below double resolution of 1, f + k - 1
    # would vanish at k = 1, and J_f and J_0 agree to double precision
    n = math.floor(nu)
    f = nu - n
    return n, (0.0 if f + 1.0 == 1.0 else f)


def _miller_start(x: float, nu: float) -> int:
    # Down-recurrence must begin far enough above both the order and the
    # turning point that the dominant-solution contamination decays below
    # double precision by the time the target order is reached, and at least
    # 10 above the target order.  Conditionals, not max(): the grid calls
    # this once a point.
    margin = 9.0 * (x if x > 1.0 else 1.0) ** (1.0 / 3.0) + 30.0
    start, least = math.ceil((x if x > nu else nu) + margin), math.floor(nu) + 10
    return start if start > least else least


def _bessel_miller(nu: float, x: float) -> float:
    # Backward recurrence with the Neumann-series normalization
    #   (x/2)^f = sum_k C_k J_{f+2k}(x),   C_k = (f+2k) Gamma(f+k)/k!,   f = frac(nu),
    # which degenerates to 1 = J_0 + 2 J_2 + 2 J_4 + ... for integer order.
    # The weights run down from 1 at the top by the ratios C_{k-1}/C_k, so
    # they end at C_0/C_top, and C_0 = Gamma(f+1) is known exactly.
    # Each normalization has its own loop, and each loop takes the steps in
    # pairs, from an even j = 2k >= 2 to j - 1 and j - 2, so that a step does
    # only its arithmetic; an odd start takes one step first, and j = 0 closes.
    # The grid sweep below does the same arithmetic in the same order.
    n_tgt, f = _order_parts(nu)
    fjp1, fj, norm, tgt, coeff = 0.0, 1e-30, 0.0, 0.0, 1.0
    inv_x = 1.0 / x
    top = _miller_start(x, nu)
    if top & 1:  # top > n_tgt, and one step from 1e-30 at x > 1e-8 stays far below 1e250
        fj, fjp1 = (2.0 * (f + top) * inv_x) * fj - fjp1, fj
        top -= 1
    if f > 0.0:
        for j in range(top, 0, -2):
            k = j >> 1
            norm += coeff * fj
            coeff *= ((f + 2.0 * k - 2.0) * k) / ((f + 2.0 * k) * (f + k - 1.0))
            if j == n_tgt:
                tgt = fj
            fj, fjp1 = (2.0 * (f + j) * inv_x) * fj - fjp1, fj
            if fj > 1e250 or fj < -1e250:
                fj, fjp1, norm, tgt = fj * 1e-250, fjp1 * 1e-250, norm * 1e-250, tgt * 1e-250
            if j - 1 == n_tgt:
                tgt = fj
            fj, fjp1 = (2.0 * (f + (j - 1)) * inv_x) * fj - fjp1, fj
            if fj > 1e250 or fj < -1e250:
                fj, fjp1, norm, tgt = fj * 1e-250, fjp1 * 1e-250, norm * 1e-250, tgt * 1e-250
        norm += coeff * fj
    else:
        for j in range(top, 0, -2):
            norm += 2.0 * fj
            if j == n_tgt:
                tgt = fj
            fj, fjp1 = (2.0 * (f + j) * inv_x) * fj - fjp1, fj
            if fj > 1e250 or fj < -1e250:
                fj, fjp1, norm, tgt = fj * 1e-250, fjp1 * 1e-250, norm * 1e-250, tgt * 1e-250
            if j - 1 == n_tgt:
                tgt = fj
            fj, fjp1 = (2.0 * (f + (j - 1)) * inv_x) * fj - fjp1, fj
            if fj > 1e250 or fj < -1e250:
                fj, fjp1, norm, tgt = fj * 1e-250, fjp1 * 1e-250, norm * 1e-250, tgt * 1e-250
        norm += fj
    if n_tgt == 0:
        tgt = fj
    if f > 0.0:
        return tgt * (0.5 * x) ** f * coeff / (math.gamma(f + 1.0) * norm)
    return tgt / norm


def _bessel_miller_grid(nu: float, x: np.ndarray) -> np.ndarray:
    # _bessel_miller at every x: one downward sweep over j, which each point
    # joins at its own start index with weight 1, and in which
    # each point rescales on its own.  Sorted by falling start, the points
    # joined so far are a prefix of the arrays.
    n_tgt, f = _order_parts(nu)
    starts = pointwise(_miller_start, x, nu).astype(np.int64)
    order = np.argsort(-starts, kind="stable")
    starts = starts[order]
    inv_x = 1.0 / x[order]
    # start index -> number of points joined once the sweep reaches it
    joins = {s: i + 1 for i, s in enumerate(starts.tolist())}
    fj, fjp1, spare, norm, tgt, coeff = (np.zeros(x.size) for _ in range(6))
    m = 0
    for j in range(int(starts[0]), -1, -1):
        if j in joins:
            fj[m : joins[j]] = 1e-30
            coeff[m : joins[j]] = 1.0
            m = joins[j]
        fj_a = fj[:m]
        if (j & 1) == 0:
            k = j >> 1
            if f > 0.0:
                norm[:m] += coeff[:m] * fj_a
                if k >= 1:
                    coeff[:m] *= ((f + 2.0 * k - 2.0) * k) / ((f + 2.0 * k) * (f + k - 1.0))
            else:
                norm[:m] += (2.0 if k >= 1 else 1.0) * fj_a
        if j == n_tgt:
            tgt[:m] = fj_a
        if j > 0:
            fjm1 = np.multiply(2.0 * (f + j), inv_x[:m], out=spare[:m])
            fjm1 *= fj_a
            fjm1 -= fjp1[:m]
            fj, fjp1, spare = spare, fj, fjp1
            if np.abs(fjm1).max() > 1e250:
                big = np.abs(fjm1) > 1e250
                for v in (fj, fjp1, norm, tgt):
                    v[:m][big] *= 1e-250
    out = np.empty(x.size)
    if f > 0.0:
        out[order] = tgt * pointwise(pow, 0.5 * x[order], f) * coeff / (math.gamma(f + 1.0) * norm)
    else:
        out[order] = tgt / norm
    return out


def bessel_j(nu: float, x: float | np.ndarray) -> float | np.ndarray:
    """Bessel function of the first kind J_nu(x) for real order 0 <= nu <= 1e4
    and 0 <= x <= 2e4, from the normalized backward recurrence; at x <= 1e-8,
    from its leading term (x/2)^nu / Gamma(nu+1).

    A list, tuple or array of x gives the array of J_nu at every point, in
    one pass over the grid; a single x is a one-point array.  One point past
    1e-8 takes the scalar sweep, which the zero finder also calls directly: a
    one-point grid pass costs 29-52 times as much.
    """
    nu = _check_order(nu)
    flat = np.asarray(x, dtype=float).reshape(-1)
    bad = flat[~((flat >= 0.0) & (flat <= _MAX_ARGUMENT))]
    if bad.size:
        raise ValueError(f"bessel_j requires 0 <= x <= {_MAX_ARGUMENT:g}, got {bad[0].item()!r}")
    out = np.where(flat == 0.0, 1.0 if nu == 0.0 else 0.0, 0.0)
    leading = (flat > 0.0) & (flat <= _LEADING_TERM_MAX)
    out[leading] = _bessel_leading_term(nu, flat[leading])
    miller = np.flatnonzero(flat > _LEADING_TERM_MAX)
    if miller.size == 1:
        out[miller] = _bessel_miller(nu, flat[miller].item())
    elif miller.size:
        out[miller] = _bessel_miller_grid(nu, flat[miller])
    return shaped_like(out, x)


def find_root(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float, ftol: float = 0.0
) -> tuple[float, float, int]:
    """Root of f in the bracket a < b by Illinois false position, no derivative.

    `fa` and `fb` are f(a) and f(b) and must not share a sign.  Stops when
    the better end point has |f| <= ftol or the bracket has shrunk to a few
    ulps.  Returns that point, f there, and the number of f evaluations.
    """
    if (fa < 0.0) == (fb < 0.0) and fa != 0.0 and fb != 0.0:
        raise ValueError(f"no sign change on [{a!r}, {b!r}]")
    evaluations = 0
    kept = 0  # +1 / -1 when the last step kept a / b
    while True:
        x, fx = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
        if abs(fx) <= ftol or b - a <= 2.0 * math.ulp(x):
            return x, fx, evaluations
        c = b - fb * (b - a) / (fb - fa)
        if not a < c < b:
            c = 0.5 * (a + b)
        fc = f(c)
        evaluations += 1
        if (fc < 0.0) == (fa < 0.0):
            a, fa = c, fc
            if kept == -1:
                fb *= 0.5  # b kept twice running: halve its weight
            kept = -1
        else:
            b, fb = c, fc
            if kept == 1:
                fa *= 0.5
            kept = 1


# u = sqrt(x) J_nu solves u'' + (1 - (nu^2 - 1/4)/x^2) u = 0.  By Sturm
# comparison with sin x its zeros, those of J_nu, lie more than pi apart for
# nu >= 1/2; for nu < 1/2 they lie past j_{0,1}, where the coefficient is at
# most 1 + 1/(4 j_{0,1}^2), so at least pi / sqrt(1 + 1/(4 j_{0,1}^2)) ~ 3.08
# apart.  So no zero lies within _ZERO_GAP past another, and a quarter-period
# step never steps over two zeros.
_ZERO_GAP = 3.0
_SCAN_STEP = math.pi / 4.0

# The zero scan costs about count^2: 150 zeros take 3771 recurrence sweeps,
# 9.7 s on a 2-vCPU host, at the largest order, nu ~ 1e4 (sigma = 5e-5),
# and 2141 sweeps, 0.2 s, at nu ~ 17 (sigma = 0.03).
MAX_ZEROS = 150


def _skip_steps(x: float, limit: float) -> float:
    """The last point of the scan's grid x, x + step, ... at or below `limit`."""
    while x + _SCAN_STEP <= limit:
        x += _SCAN_STEP
    return x


def bessel_j_zeros(nu: float, count: int) -> tuple[float, ...]:
    """The first `count` positive zeros j_{nu,1} < ... < j_{nu,count} of J_nu.

    A sign-change scan upward from nu + 0.5 in quarter-period steps, each
    bracket refined by :func:`find_root`.  The scan does not evaluate the
    steps that provably hold no zero: those below nu + 1.855 nu^(1/3), under
    Qu and Wong's bound j_{nu,1} > nu + 1.8557 nu^(1/3) (Trans. AMS 351,
    1999), and those within 3 past a zero.  Its brackets, and so its zeros,
    are those of the scan that evaluates every step.  At most
    MAX_ZEROS zeros are computed; a larger count is refused with ValueError.
    """
    nu = _check_order(nu)
    if not 1 <= count <= MAX_ZEROS:
        raise ValueError(f"zero count must lie in 1..{MAX_ZEROS}, got {count!r}")
    zeros: list[float] = []
    x = _skip_steps(nu + 0.5, nu + 1.855 * nu ** (1.0 / 3.0))
    fx = _bessel_miller(nu, x)
    while True:
        x_next = x + _SCAN_STEP
        f_next = _bessel_miller(nu, x_next)
        if f_next != 0.0 and (fx < 0.0) == (f_next < 0.0):
            x, fx = x_next, f_next
            continue
        zeros.append(x_next if f_next == 0.0 else
                     find_root(lambda t: _bessel_miller(nu, t), x, x_next, fx, f_next)[0])
        if len(zeros) == count:
            return tuple(zeros)
        x = _skip_steps(x_next, zeros[-1] + _ZERO_GAP)
        fx = _bessel_miller(nu, x)


def laguerre(degree: int, alpha: float, x: float | np.ndarray) -> tuple:
    """Generalized Laguerre polynomial L_degree^(alpha)(x), degree >= 0, at one x
    or, in one pass of the three-term recurrence, at an array of x.

    Returns (m, e) with L = m 2^e, e an integer array in the shape of x (an
    int for a single x): a value past 2^500 is scaled by 2^-500 as the
    recurrence runs, degree 1 included, so m stays finite, also where L
    overflows.  |x| or |alpha| past 2^500 is refused with ValueError.
    """
    if degree < 0 or not abs(alpha) <= 2.0**500:
        raise ValueError(f"Laguerre needs degree >= 0, |alpha| <= 2^500; got {degree!r}, {alpha!r}")
    flat = np.asarray(x, dtype=float).reshape(-1)
    bad = flat[~(np.abs(flat) <= 2.0**500)]
    if bad.size:
        raise ValueError(f"Laguerre needs |x| <= 2^500, got {bad[0].item()!r}")
    exponent = np.zeros(flat.size, dtype=np.int64)
    prev, cur = np.zeros(flat.size), np.ones(flat.size)  # L_{-1} = 0 and L_0
    for k in range(degree):
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - flat) * cur - (k + alpha) * prev) / (k + 1.0)
        big = np.abs(cur) > 2.0**500
        if big.any():
            cur[big] *= 2.0**-500
            prev[big] *= 2.0**-500
            exponent[big] += 500
    return shaped_like(cur, x), shaped_like(exponent, x)
