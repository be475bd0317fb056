"""Independent oracles used to freeze expected test values.

The Bessel oracle is a direct power-series summation in mpmath arbitrary
precision (never mpmath's own besselj), so it shares no code path with the
double-precision implementation under test.  The Bessel zero counter takes
the eigenvalues of a tridiagonal matrix by Sturm counts, which share no code
with the zero scan either.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from spiralbox import fdsolver, specfun


def mp_bessel_j(nu, x, extra_dps: int = 30):
    """J_nu(x) by brute-force series summation at >= 50 terms, high precision.

    Working precision grows with x so that the alternating-series
    cancellation (roughly 0.43 * x digits) never touches the result.
    """
    with mp.workdps(50 + extra_dps + int(0.6 * float(x))):
        nu = mp.mpf(nu)
        x = mp.mpf(x)
        if x == 0:
            return mp.mpf(1 if nu == 0 else 0)
        half = x / 2
        q = half * half
        term = mp.mpf(1)
        total = mp.mpf(1)
        k = 0
        while True:
            k += 1
            term *= -q / (k * (nu + k))
            total += term
            if k >= 50 and abs(term) < mp.mpf(10) ** (-(mp.mp.dps + 5)) * abs(total):
                break
        value = mp.exp(nu * mp.log(half) - mp.loggamma(nu + 1)) * total
    return value


def mp_bessel_zero(nu, n, digits: int = 30):
    """n-th positive zero of J_nu by scan plus bisection on the series oracle."""
    nu_f = float(nu)
    step = 0.5
    x = nu_f + 0.5
    f_prev = mp_bessel_j(nu, x)
    found = 0
    while True:
        x_next = x + step
        f_next = mp_bessel_j(nu, x_next)
        if mp.sign(f_prev) != mp.sign(f_next):
            found += 1
            if found == n:
                lo, hi = mp.mpf(x), mp.mpf(x_next)
                f_lo = f_prev
                for _ in range(int(digits * 3.5) + 10):
                    mid = (lo + hi) / 2
                    f_mid = mp_bessel_j(nu, mid)
                    if mp.sign(f_mid) == mp.sign(f_lo):
                        lo, f_lo = mid, f_mid
                    else:
                        hi = mid
                return (lo + hi) / 2
        x, f_prev = x_next, f_next


def bessel_zero_count(nu: float, x: float) -> int:
    """Number of zeros of J_nu in (0, x), from the Bessel matrix.

    The symmetric tridiagonal matrix with zero diagonal and off-diagonal
    beta_m = 1 / (2 sqrt((nu+m)(nu+m+1))), m = 1, 2, ..., has the eigenvalues
    +-1/j_{nu,k} (Ikebe, Math. Comp. 29, 1975), and its spectrum is symmetric
    about 0: the zeros below x are its eigenvalues below -1/x, counted by
    LDL^T pivots on the leading N = ceil(max(x - nu, 0) + 9 max(x, 1)^(1/3) + 30)
    rows.
    """
    rows = math.ceil(max(x - nu, 0.0) + 9.0 * max(x, 1.0) ** (1.0 / 3.0) + 30.0)
    m = np.arange(1, rows)
    beta = 0.5 / np.sqrt((nu + m) * (nu + m + 1.0))
    op = fdsolver.TridiagonalOperator(np.zeros(rows), beta, grid_step=1.0)
    return fdsolver.sturm_count(op, -1.0 / x)


def bessel_miller_loop(nu: float, x: float) -> float:
    """J_nu(x) by the scalar backward recurrence as one loop over every index.

    A frozen copy of `specfun._bessel_miller` before its loop was split by
    normalization and taken in pairs: each index tests its parity, its
    normalization, the target order and the last step, and the rescale calls
    `abs`.  It takes the order parts and the start index from `specfun`, so
    the two differ only in the loop, whose results must agree bit for bit.
    """
    n_tgt, f = specfun._order_parts(nu)
    fjp1 = 0.0
    fj = 1e-30
    norm = 0.0
    tgt = 0.0
    coeff = 1.0
    inv_x = 1.0 / x
    j = specfun._miller_start(x, nu)
    while j >= 0:
        if (j & 1) == 0:
            k = j >> 1
            if f > 0.0:
                norm += coeff * fj
                if k >= 1:
                    coeff *= ((f + 2.0 * k - 2.0) * k) / ((f + 2.0 * k) * (f + k - 1.0))
            else:
                norm += (2.0 if k >= 1 else 1.0) * fj
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
    if f > 0.0:
        return tgt * (0.5 * x) ** f * coeff / (math.gamma(f + 1.0) * norm)
    return tgt / norm


def frenet_loop(k, s0: float, s1: float, steps: int) -> np.ndarray:
    """Points of the Frenet RK4 run, one classical sub-step at a time in floats.

    The same scheme as `geometry.frenet_integrate`: |k| * ds <= 0.1 at both
    ends of each step, the tangent renormalized after every sub-step, one
    point per step.  Kept as the reference for the array form.
    """
    h = (s1 - s0) / steps
    px, py, tx, ty = 0.0, 0.0, 1.0, 0.0
    pts = [(px, py)]
    for i in range(steps):
        end = s1 if i == steps - 1 else s0 + (i + 1) * h
        n_sub = max(1, math.ceil(max(abs(k(s0 + i * h)), abs(k(end))) * h / 0.1))
        s_cur, ds = s0 + i * h, h / n_sub
        for _ in range(n_sub):
            k1, k2, k4 = k(s_cur), k(s_cur + 0.5 * ds), k(s_cur + ds)
            a_tx, a_ty = -k1 * ty, k1 * tx
            tx2, ty2 = tx + 0.5 * ds * a_tx, ty + 0.5 * ds * a_ty
            b_tx, b_ty = -k2 * ty2, k2 * tx2
            tx3, ty3 = tx + 0.5 * ds * b_tx, ty + 0.5 * ds * b_ty
            c_tx, c_ty = -k2 * ty3, k2 * tx3
            tx4, ty4 = tx + ds * c_tx, ty + ds * c_ty
            d_tx, d_ty = -k4 * ty4, k4 * tx4
            w = ds / 6.0
            px += w * (tx + 2.0 * (tx2 + tx3) + tx4)
            py += w * (ty + 2.0 * (ty2 + ty3) + ty4)
            tx += w * (a_tx + 2.0 * (b_tx + c_tx) + d_tx)
            ty += w * (a_ty + 2.0 * (b_ty + c_ty) + d_ty)
            inv = 1.0 / math.hypot(tx, ty)
            tx, ty = tx * inv, ty * inv
            s_cur += ds
        pts.append((px, py))
    return np.array(pts)


def curvature_of_samples(samples) -> np.ndarray:
    """Finite-difference curvature |a' x a''| / |a'|^3 at the interior nodes of
    `geometry.PlaneCurveSamples`: an independent check of a sampled curve.

    Requires at least three uniformly spaced samples.
    """
    s = samples.s_values
    pts = samples.points
    if s.size < 3:
        raise ValueError("curvature reconstruction needs at least 3 samples")
    steps = np.diff(s)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-8, atol=0.0):
        raise ValueError("curvature reconstruction needs uniform arc-length spacing")
    d1 = (pts[2:] - pts[:-2]) / (2.0 * h)
    d2 = (pts[2:] - 2.0 * pts[1:-1] + pts[:-2]) / (h * h)
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    speed = np.linalg.norm(d1, axis=1)
    return np.abs(cross) / speed**3
