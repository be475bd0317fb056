"""Special functions built from scratch: Bessel J of real order 0 <= nu <= 1e4,
its zeros, generalized Laguerre polynomials and log-gamma.

Everything here is plain double-precision arithmetic, so that these routines
can serve as one independent leg of the analytic-vs-finite-difference cross
checks elsewhere in the package.  `bessel_j` of a numpy array of x runs the
same series and recurrence over the whole grid at once: numpy does only the
elementwise IEEE arithmetic, and `math` the logs, exponentials and powers
point by point, so each value equals the scalar one bit for bit.  The zeros
stay plain Python: they evaluate J at one point at a time.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable

import numpy as np

__all__ = [
    "log_gamma",
    "bessel_j",
    "bessel_j_zero",
    "bessel_j_zeros",
    "find_root",
    "laguerre",
]

_EPS = 2.220446049250313e-16

# Lanczos approximation, g = 7, 9 terms (Godfrey's coefficients).  Relative
# error below 1e-13 for positive real arguments, comfortably inside the
# 1e-12 target on [0.5, 100].
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_TWO_PI = 0.9189385332046727  # ln sqrt(2*pi)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (x > 0.0) or math.isinf(x):
        raise ValueError(f"log_gamma requires finite x > 0, got {x!r}")
    if x < 0.5:
        # reflection keeps the Lanczos sum in its accurate half-plane
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    xm1 = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (xm1 + i)
    t = xm1 + _LANCZOS_G + 0.5
    return _LN_SQRT_TWO_PI + (xm1 + 0.5) * math.log(t) - t + math.log(acc)


# The backward recurrence runs over about nu terms a call, so larger orders
# would take seconds to minutes; the sigma fit stays below omega ~ 5000.
_MAX_ORDER = 1e4


def _check_order(nu: float) -> float:
    if not 0.0 <= nu <= _MAX_ORDER:
        raise ValueError(f"Bessel order must be in [0, {_MAX_ORDER:g}], got {nu!r}")
    return float(nu)


def _bessel_series(nu: float, x: float) -> float:
    # J_nu(x) = (x/2)^nu / Gamma(nu+1) * sum_k c_k,
    # c_0 = 1, c_{k+1} = -c_k (x/2)^2 / ((k+1)(nu+k+1)).
    half = 0.5 * x
    q = half * half
    ln_t0 = nu * math.log(half) - log_gamma(nu + 1.0) if x > 0.0 else 0.0
    total = 1.0
    c = 1.0
    for k in range(500):
        c *= -q / ((k + 1.0) * (nu + k + 1.0))
        total += c
        if abs(c) <= 0.25 * _EPS * abs(total) and k >= 3:
            break
    if ln_t0 < -745.0:
        return 0.0
    return math.exp(ln_t0) * total


def pointwise(fn: Callable[..., float], values: np.ndarray, *args: float) -> np.ndarray:
    """fn(value, *args) at every value, with Python floats, in the shape of `values`.

    For `math` functions and powers, whose numpy vector versions may differ in
    the last bit.
    """
    each = map(fn, values.ravel().tolist(), *(repeat(a) for a in args))
    return np.fromiter(each, float, values.size).reshape(values.shape)


def _bessel_series_grid(nu: float, x: np.ndarray) -> np.ndarray:
    # _bessel_series at every x > 0, each point ending its own sum
    half = 0.5 * x
    q = half * half
    ln_t0 = nu * pointwise(math.log, half) - log_gamma(nu + 1.0)
    total = np.ones(x.size)
    c = np.ones(x.size)
    live = np.arange(x.size)  # points still summing
    for k in range(500):
        c *= -q / ((k + 1.0) * (nu + k + 1.0))
        total[live] += c
        if k >= 3:
            done = np.abs(c) <= 0.25 * _EPS * np.abs(total[live])
            if done.any():
                live, q, c = live[~done], q[~done], c[~done]
                if live.size == 0:
                    break
    return np.where(ln_t0 < -745.0, 0.0, pointwise(math.exp, ln_t0) * total)


def _miller_start(nu: float, x: float) -> int:
    # Down-recurrence must begin far enough above both the order and the
    # turning point that the dominant-solution contamination decays below
    # double precision by the time the target order is reached.
    margin = 9.0 * max(x, 1.0) ** (1.0 / 3.0) + 30.0
    return int(math.ceil(max(nu, x) + margin))


def _miller_top_coeff(f: float, start: int) -> float:
    # Neumann-series weight of the highest even order at or below `start`
    k_top = start // 2
    if f > 0.0:
        return (f + 2.0 * k_top) * math.exp(log_gamma(f + k_top) - log_gamma(k_top + 1.0))
    return 2.0 if k_top >= 1 else 1.0


def _bessel_miller(nu: float, x: float) -> float:
    # Backward recurrence with the Neumann-series normalization
    #   (x/2)^f = sum_k (f+2k) Gamma(f+k)/k! * J_{f+2k}(x),   f = frac(nu),
    # which degenerates to 1 = J_0 + 2 J_2 + 2 J_4 + ... for integer order.
    n_tgt = int(math.floor(nu))
    f = nu - n_tgt
    if f + 1.0 == 1.0:
        # f + k - 1 would vanish at k = 1; J_f and J_0 agree to double precision
        f = 0.0
    start = _miller_start(nu, x)
    if start <= n_tgt + 10:
        start = n_tgt + 10
    coeff = _miller_top_coeff(f, start)

    fjp1 = 0.0
    fj = 1e-30
    norm = 0.0
    tgt = 0.0
    inv_x = 1.0 / x
    j = start
    while j >= 0:
        if (j & 1) == 0:
            norm += coeff * fj
            k = j >> 1
            if k >= 1:
                if f > 0.0:
                    coeff *= ((f + 2.0 * k - 2.0) * k) / ((f + 2.0 * k) * (f + k - 1.0))
                else:
                    coeff = 2.0 if k - 1 >= 1 else 1.0
        if j == n_tgt:
            tgt = fj
        if j > 0:
            fjm1 = (2.0 * (f + j) * inv_x) * fj - fjp1
            fjp1 = fj
            fj = fjm1
            if abs(fj) > 1e250:
                fj *= 1e-250
                fjp1 *= 1e-250
                norm *= 1e-250
                tgt *= 1e-250
        j -= 1
    scale = (0.5 * x) ** f if f > 0.0 else 1.0
    return tgt * scale / norm


def _bessel_miller_grid(nu: float, x: np.ndarray) -> np.ndarray:
    # _bessel_miller at every x: one downward sweep over j, which each point
    # joins at its own start index with its own top coefficient, and in which
    # each point rescales on its own.  Sorted by falling start, the points
    # joined so far are a prefix of the arrays.
    n_tgt = int(math.floor(nu))
    f = nu - n_tgt
    if f + 1.0 == 1.0:
        f = 0.0
    # _miller_start at every point
    margin = 9.0 * pointwise(pow, np.maximum(x, 1.0), 1.0 / 3.0) + 30.0
    starts = np.ceil(np.maximum(nu, x) + margin).astype(np.int64)
    starts = np.maximum(starts, n_tgt + 10)
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
            coeff[m : joins[j]] = _miller_top_coeff(f, j)
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
    scale = pointwise(pow, 0.5 * x[order], f) if f > 0.0 else 1.0
    out = np.empty(x.size)
    out[order] = tgt * scale / norm
    return out


def _bessel_j_grid(nu: float, x: np.ndarray) -> np.ndarray:
    flat = np.asarray(x, dtype=float).reshape(-1)
    bad = flat[~(np.isfinite(flat) & (flat >= 0.0))]
    if bad.size:
        raise ValueError(f"bessel_j requires finite x >= 0, got {bad[0].item()!r}")
    out = np.where(flat == 0.0, 1.0 if nu == 0.0 else 0.0, 0.0)
    with np.errstate(over="ignore"):  # x * x = inf is simply not <= 2 (nu + 1)
        series = (flat > 0.0) & ((flat <= 6.0) | (flat * flat <= 2.0 * (nu + 1.0)))
    miller = (flat > 0.0) & ~series
    if series.any():
        out[series] = _bessel_series_grid(nu, flat[series])
    if miller.any():
        out[miller] = _bessel_miller_grid(nu, flat[miller])
    return out.reshape(np.shape(x))


def bessel_j(nu: float, x: float | np.ndarray) -> float | np.ndarray:
    """Bessel function of the first kind J_nu(x) for real order nu >= 0, x >= 0.

    A numpy array of x gives the array of J_nu at every point, equal bit for
    bit to the values of single points.  A single point takes the scalar
    path, which costs about 1/30 of a 1-element array pass; the zero finder
    evaluates J that way thousands of times a fit.
    """
    nu = _check_order(nu)
    if isinstance(x, np.ndarray):
        return _bessel_j_grid(nu, x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"bessel_j requires finite x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    # The ascending series is kept where its alternating terms stay small
    # enough not to cancel (about 5e-15 absolute at x = 6); beyond that the
    # normalized backward recurrence takes over.
    if x <= 6.0 or x * x <= 2.0 * (nu + 1.0):
        return _bessel_series(nu, x)
    return _bessel_miller(nu, x)


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


# Zero spacing exceeds 3 for every order >= 0, so a quarter-period step
# never steps over two zeros.
_SCAN_STEP = math.pi / 4.0


def bessel_j_zeros(nu: float, count: int) -> tuple[float, ...]:
    """The first `count` positive zeros j_{nu,1} < ... < j_{nu,count} of J_nu.

    One sign-change scan upward from nu + 0.5 (J_nu > 0 up to its first zero,
    beyond nu + 2), each bracket refined by :func:`find_root`.  J_nu comes
    from the backward recurrence at every x, also below x = 6 where
    :func:`bessel_j` sums the series, so one branch serves every zero.
    """
    nu = _check_order(nu)
    if count < 1:
        raise ValueError(f"zero count must be >= 1, got {count!r}")
    zeros: list[float] = []
    x, fx = nu + 0.5, _bessel_miller(nu, nu + 0.5)
    while len(zeros) < count:
        x_next = x + _SCAN_STEP
        f_next = _bessel_miller(nu, x_next)
        if f_next == 0.0:
            zeros.append(x_next)
            f_next = -fx  # the sign J_nu takes just past the zero
        elif (fx < 0.0) != (f_next < 0.0):
            zeros.append(find_root(lambda t: _bessel_miller(nu, t), x, x_next, fx, f_next)[0])
        x, fx = x_next, f_next
    return tuple(zeros)


def bessel_j_zero(nu: float, n: int) -> float:
    """n-th positive zero j_{nu,n} of J_nu, n >= 1."""
    return bessel_j_zeros(nu, n)[n - 1]


def laguerre(degree: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial L_degree^(alpha)(x), degree >= 0."""
    if degree < 0:
        raise ValueError(f"Laguerre degree must be >= 0, got {degree!r}")
    if degree == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + alpha - x
    for k in range(1, degree):
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - x) * cur - (k + alpha) * prev) / (k + 1.0)
    return cur
