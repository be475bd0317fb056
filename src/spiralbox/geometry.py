"""Plane curves with power-law curvature k(s) = 1/(sigma * s^p).

Closed forms exist for the two cases used by the physics layers (p = 1/2,
the "hydrogen" spiral, and p = 1, the "polyene" spiral); a generic
fixed-step Frenet integrator provides the independent reconstruction check
for both.  The turning angle and the closed forms take a float or an array
of s.  An array is evaluated in one pass that gives every point the value of
its single-point evaluation, bit for bit: `math` takes the logs, powers,
cosines and sines point by point, since numpy's vector versions may differ
in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .specfun import pointwise

__all__ = [
    "CurvatureLaw",
    "PlaneCurveSamples",
    "cs_functions",
    "hydrogen_curve",
    "polyene_curve",
    "frenet_integrate",
    "curvature_of_samples",
    "log_spaced",
    "sample_hydrogen_curve",
    "sample_polyene_curve",
]

# cap on the RK4 sub-steps of one frenet_integrate call
_MAX_SUBSTEPS = 1_000_000


@dataclass(frozen=True)
class CurvatureLaw:
    """Power-law curvature k(s) = 1/(sigma * s^p) on s > 0."""

    sigma: float
    p: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if not math.isfinite(self.p):
            raise ValueError(f"p must be finite, got {self.p!r}")

    def k(self, s: float) -> float:
        if s <= 0.0:
            raise ValueError(f"curvature law is defined for s > 0, got {s!r}")
        try:
            return 1.0 / (self.sigma * s**self.p)
        except (ZeroDivisionError, OverflowError):
            raise ValueError(f"sigma * s^p leaves the float range at s = {s!r}") from None

    def turning_angle(self, s: float | np.ndarray) -> float | np.ndarray:
        """Integral of k, i.e. the tangent angle swept from the reference point.

        An array of s gives the array of angles; an error names the first s
        that fails.
        """
        flat = np.asarray(s, dtype=float).reshape(-1)
        bad = flat[flat <= 0.0]
        if bad.size:
            raise ValueError(f"turning angle is defined for s > 0, got {bad[0].item()!r}")
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
            if self.p == 1.0:
                theta = pointwise(math.log, flat) / self.sigma
            else:
                theta = pointwise(_power, flat, 1.0 - self.p) / (self.sigma * (1.0 - self.p))
        bad = flat[~np.isfinite(theta)]
        if bad.size:
            raise ValueError(f"the turning angle overflows at s = {bad[0].item()!r}")
        return theta.reshape(np.shape(s)) if isinstance(s, np.ndarray) else theta.item()


def _power(base: float, exponent: float) -> float:
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def cs_functions(
    law: CurvatureLaw, s: float | np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """The (cos, sin) pair of the swept tangent angle for a power-law curve."""
    theta = law.turning_angle(s)
    if isinstance(theta, np.ndarray):
        return pointwise(math.cos, theta), pointwise(math.sin, theta)
    return math.cos(theta), math.sin(theta)


@dataclass(frozen=True, eq=False)
class PlaneCurveSamples:
    """Arc-length-indexed curve samples, immutable after construction."""

    s_values: np.ndarray
    points: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.s_values, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        if s.ndim != 1 or pts.shape != (s.size, 2):
            raise ValueError("need matching 1-d arc lengths and (n, 2) points")
        if s.size >= 2 and not np.all(np.diff(s) > 0.0):
            raise ValueError("arc lengths must be strictly increasing")
        object.__setattr__(self, "s_values", s)
        object.__setattr__(self, "points", pts)

    def chord_lengths(self) -> np.ndarray:
        return np.linalg.norm(np.diff(self.points, axis=0), axis=1)

    def polyline_length(self) -> float:
        return float(self.chord_lengths().sum())


def _rotation(c: float, s: float) -> np.ndarray:
    return np.array([[c, s], [-s, c]])


def hydrogen_curve(
    sigma: float,
    s: float | np.ndarray,
    s0: float = 1.0,
    center: Sequence[float] = (0.0, 0.0),
) -> np.ndarray:
    """Point on the p = 1/2 spiral that winds around `center`.

    The curve obeys ||point - center|| = sigma * sqrt(s + sigma^2/4) and is
    arc-length parametrized with tangent (1, 0) at s0.  An array of s gives
    the points in an array of shape s.shape + (2,).
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or s0 <= 0.0:
        raise ValueError("hydrogen curve is defined for s > 0 and s0 > 0")
    law = CurvatureLaw(sigma, 0.5)
    c0, s0_ = cs_functions(law, s0)
    c, sn = cs_functions(law, s)
    half_sig2 = 0.5 * sigma * sigma
    if math.isinf(half_sig2):
        raise ValueError(f"sigma = {sigma!r} is too large: sigma^2 overflows")
    with np.errstate(over="ignore", invalid="ignore"):  # callers check the points
        root = sigma * np.sqrt(s)
        inner = np.stack([half_sig2 * c + root * sn, -root * c + half_sig2 * sn], axis=-1)
        # one matrix-vector product per point: BLAS fuses its multiply-adds
        rotated = (_rotation(c0, s0_) @ inner[..., None])[..., 0]
        return rotated + np.asarray(center, dtype=float)


def polyene_curve(sigma: float, s: float | np.ndarray) -> np.ndarray:
    """Point on the p = 1 spiral with reference point s0 = 1 and center (0, 0).

    Obeys the radius law ||point|| = sigma * s / sqrt(1 + sigma^2).  An array
    of s gives the points in an array of shape s.shape + (2,).
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("polyene curve is defined for s > 0")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    c, sn = cs_functions(CurvatureLaw(sigma, 1.0), s)
    with np.errstate(over="ignore", invalid="ignore"):  # callers check the points
        amp = sigma * s / (1.0 + sigma * sigma)
        return np.stack([amp * (c + sigma * sn), amp * (sn - sigma * c)], axis=-1)


def frenet_integrate(
    k: Callable[[float], float],
    s0: float,
    s1: float,
    steps: int,
) -> PlaneCurveSamples:
    """Integrate alpha' = t, t' = k J t with classical RK4, J t = (-t_y, t_x).

    In the plane the normal is the tangent turned by a right angle, so the
    position and the unit tangent are the whole state.  The curve starts at
    the origin heading along +x.  Samples are recorded at `steps + 1` uniform
    arc lengths.  Within each step the integrator sub-steps so that
    k * ds <= 0.1, which keeps the scheme in its asymptotic regime on tightly
    wound spiral segments; the tangent is renormalized after every sub-step.
    A curve that needs more than a million sub-steps in all is refused with
    ValueError before any integration.
    """
    if not s0 < s1:
        raise ValueError(f"need s0 < s1, got [{s0!r}, {s1!r}]")
    if steps < 1:
        raise ValueError("steps must be a positive integer")

    h = (s1 - s0) / steps

    def _k(s: float) -> float:
        val = k(s)
        if not math.isfinite(val):
            raise ValueError(f"curvature is not finite at s = {s!r}")
        return val

    # every step takes at least one sub-step, so budget + 1 steps settle it
    sub_steps = [
        max(1, math.ceil(min(abs(_k(s0 + i * h)) * h / 0.1, _MAX_SUBSTEPS + 1)))
        for i in range(min(steps, _MAX_SUBSTEPS + 1))
    ]
    if sum(sub_steps) > _MAX_SUBSTEPS:
        raise ValueError(f"the curvature needs more than {_MAX_SUBSTEPS} RK4 sub-steps")

    px, py = 0.0, 0.0
    tx, ty = 1.0, 0.0

    s_out = np.empty(steps + 1)
    pts = np.empty((steps + 1, 2))
    s_out[0] = s0
    pts[0] = (px, py)

    for i, n_sub in enumerate(sub_steps):
        s_cur = s0 + i * h
        ds = h / n_sub
        for _ in range(n_sub):
            k1 = _k(s_cur)
            k2 = _k(s_cur + 0.5 * ds)
            k4 = _k(s_cur + ds)

            # each stage's position slope is that stage's tangent
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
            tx *= inv
            ty *= inv
            s_cur += ds

        s_out[i + 1] = s0 + (i + 1) * h
        pts[i + 1] = (px, py)

    return PlaneCurveSamples(s_values=s_out, points=pts)


def curvature_of_samples(samples: PlaneCurveSamples) -> np.ndarray:
    """Finite-difference curvature |a' x a''| / |a'|^3 at interior nodes.

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


def log_spaced(s_min: float, s_max: float, n: int) -> np.ndarray:
    """Logarithmically spaced arc lengths; resolves the spiral near its center."""
    if not (0.0 < s_min < s_max):
        raise ValueError("need 0 < s_min < s_max")
    return np.geomspace(s_min, s_max, n)


def sample_hydrogen_curve(
    sigma: float,
    s_values: np.ndarray,
    s0: float = 1.0,
    center: Sequence[float] = (0.0, 0.0),
) -> PlaneCurveSamples:
    s = np.asarray(s_values, dtype=float)
    return PlaneCurveSamples(s_values=s, points=hydrogen_curve(sigma, s, s0, center))


def sample_polyene_curve(sigma: float, s_values: np.ndarray) -> PlaneCurveSamples:
    s = np.asarray(s_values, dtype=float)
    return PlaneCurveSamples(s_values=s, points=polyene_curve(sigma, s))
