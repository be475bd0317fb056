"""Plane curves with power-law curvature k(s) = 1/(sigma * s^p).

Closed forms exist for the two cases used by the physics layers (p = 1/2,
the "hydrogen" spiral, and p = 1, the "polyene" spiral); a generic
fixed-step Frenet integrator provides the independent reconstruction check
for both.  The curvature, the turning angle and the closed forms take a
float or a list, tuple or array of s.  The curvature is numpy arithmetic.
The others give every point the value of its single-point evaluation, bit
for bit: `math` takes the logs, powers, cosines and sines point by point,
since numpy's vector versions may differ in the last bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import pointwise, shaped_like

__all__ = [
    "CurvatureLaw",
    "PlaneCurveSamples",
    "hydrogen_curve",
    "polyene_curve",
    "frenet_integrate",
]

# cap on the RK4 sub-steps of one frenet_integrate call
_MAX_SUBSTEPS = 1_000_000
# sub-steps integrated at a time, so memory stays O(steps + _CHUNK)
_CHUNK = 65_536


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

    def k(self, s: float | np.ndarray) -> float | np.ndarray:
        """1/(sigma * s^p) of one s or an array of s; an error names the first bad s."""
        flat = np.asarray(s, dtype=float).reshape(-1)
        ok = flat > 0.0
        if not ok.all():
            raise ValueError(f"curvature law is defined for s > 0, got {flat[~ok][0].item()!r}")
        with np.errstate(over="ignore", divide="ignore"):  # refused below
            power = flat**self.p
            curvature = 1.0 / (self.sigma * power)
        ok = np.isfinite(power) & np.isfinite(curvature)
        if not ok.all():
            bad = flat[~ok][0].item()
            raise ValueError(f"sigma * s^p leaves the float range at s = {bad!r}")
        return shaped_like(curvature, s)

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
        return shaped_like(theta, s)


def _power(base: float, exponent: float) -> float:
    try:
        return base**exponent
    except OverflowError:
        return math.inf


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


def hydrogen_curve(sigma: float, s: float | np.ndarray) -> np.ndarray:
    """Point on the p = 1/2 spiral with reference point s0 = 1 and center (0, 0).

    The curve obeys ||point|| = sigma * sqrt(s + sigma^2/4) and is
    arc-length parametrized with tangent (1, 0) at s0, from which the turning
    angle is measured.  An array of s gives the points in an array of shape s.shape + (2,).
    """
    law = CurvatureLaw(sigma, 0.5)
    phi = np.asarray(law.turning_angle(s) - law.turning_angle(1.0))
    c, sn = pointwise(math.cos, phi), pointwise(math.sin, phi)
    half_sig2 = 0.5 * sigma * sigma
    if math.isinf(half_sig2):
        raise ValueError(f"sigma = {sigma!r} is too large: sigma^2 overflows")
    with np.errstate(over="ignore", invalid="ignore"):  # callers check the points
        root = sigma * np.sqrt(s)
        return np.stack([half_sig2 * c + root * sn, -root * c + half_sig2 * sn], axis=-1)


def polyene_curve(sigma: float, s: float | np.ndarray) -> np.ndarray:
    """Point on the p = 1 spiral with reference point s0 = 1 and center (0, 0).

    Obeys the radius law ||point|| = sigma * s / sqrt(1 + sigma^2), which
    is s to double precision once sigma^2 overflows, and stays finite where
    sigma * s overflows.  An array of s gives the points in an array of
    shape s.shape + (2,).
    """
    s = np.asarray(s, dtype=float)
    theta = np.asarray(CurvatureLaw(sigma, 1.0).turning_angle(s))
    c, sn = pointwise(math.cos, theta), pointwise(math.sin, theta)
    sq = sigma * sigma
    with np.errstate(over="ignore", invalid="ignore"):  # callers check the points
        amp = sigma * s / (1.0 + sq)
        x, y = amp * (c + sigma * sn), amp * (sn - sigma * c)
        # with sigma > 1, amp is 0 or nan where sigma^2 overflows, inf or nan where
        # sigma s does, and may be subnormal, where the radius s / (1 + sigma^-2) is not
        if sigma > 1.0:
            r, lost = s / (1.0 + 1.0 / sq), ~((amp >= sys.float_info.min) & (amp < math.inf))
            x = np.where(lost, r * (c / sigma + sn), x)
            y = np.where(lost, r * (sn / sigma - c), y)
        return np.stack([x, y], axis=-1)


def frenet_integrate(k: Callable, s0: float, s1: float, steps: int) -> PlaneCurveSamples:
    """Integrate alpha' = t, t' = k J t with classical RK4, J t = (-t_y, t_x).

    In the plane the normal is the tangent turned by a right angle, so the
    position and the unit tangent are the whole state.  The curve starts at
    the origin heading along +x.  Samples are recorded at `steps + 1` uniform
    arc lengths.  Within each step the integrator sub-steps so that
    |k| * ds <= 0.1 at both of the step's ends, which keeps the scheme in its
    asymptotic regime on tightly wound spiral segments, also where |k| grows
    along the step (p < 0 in the curvature law); the tangent is
    renormalized after every sub-step.  A curve that needs more than a
    million sub-steps in all is refused with ValueError before any
    integration.  `k` is called on arrays of s, and a scalar return is broadcast.

    As a complex number the tangent obeys tau' = i k tau, so a sub-step
    multiplies tau by z(k1, k2, k4, ds) and moves the position by tau * c(...):
    a cumulative product and a cumulative sum, over chunks of sub-steps.
    """
    if not s0 < s1:
        raise ValueError(f"need s0 < s1, got [{s0!r}, {s1!r}]")
    if steps < 1:
        raise ValueError("steps must be a positive integer")

    h = (s1 - s0) / steps
    # every step takes at least one sub-step, so budget + 1 steps settle it
    sized = min(steps, _MAX_SUBSTEPS + 1)
    # the steps' starts, and the end of the last: s1 once every step is sized
    edges = s0 + np.arange(sized + 1) * h
    if sized == steps:
        edges[-1] = s1
    starts = edges[:-1]
    with np.errstate(over="ignore"):  # an overflow only means too many sub-steps
        k_edges = np.abs(_curvature(k, edges))
        # |k| may grow along a step (p < 0): size it by the larger end, in place
        wanted = np.maximum(k_edges[:-1], k_edges[1:], out=k_edges[:-1])
        wanted *= h
        wanted /= 0.1
    counts = np.maximum(1, np.ceil(np.minimum(wanted, _MAX_SUBSTEPS + 1))).astype(np.int64)
    ends = np.cumsum(counts)  # one past each step's last sub-step
    if ends[-1] > _MAX_SUBSTEPS:
        raise ValueError(f"the curvature needs more than {_MAX_SUBSTEPS} RK4 sub-steps")

    begins = ends - counts
    pts = np.zeros(steps + 1, dtype=complex)
    tau, pos = 1.0 + 0.0j, 0.0j
    for first in range(0, int(ends[-1]), _CHUNK):
        stop = min(first + _CHUNK, int(ends[-1]))
        # the steps that the chunk's sub-steps first..stop-1 belong to
        lo, hi = np.searchsorted(ends, [first, stop - 1], side="right") + [0, 1]
        taken = np.minimum(ends[lo:hi], stop) - np.maximum(begins[lo:hi], first)
        step = np.repeat(np.arange(lo, hi), taken)
        ds = h / counts[step]
        s = starts[step] + (np.arange(first, stop) - begins[step]) * ds
        k1, k2, k4 = (_curvature(k, s + f * ds) for f in (0.0, 0.5, 1.0))
        t2 = 1.0 + 0.5j * k1 * ds
        t3 = 1.0 + 0.5j * k2 * ds * t2
        t4 = 1.0 + 1j * k2 * ds * t3
        z = 1.0 + (1j * ds / 6.0) * (k1 + 2.0 * k2 * (t2 + t3) + k4 * t4)
        c = (ds / 6.0) * (1.0 + 2.0 * (t2 + t3) + t4)
        turns = np.cumprod(z / np.abs(z))
        turns /= np.abs(turns)
        tau_before = tau * np.concatenate(([1.0], turns[:-1]))
        path = pos + np.cumsum(tau_before * c)
        last = np.arange(first + 1, stop + 1) == ends[step]  # a step's last sub-step
        pts[step[last] + 1] = path[last]
        tau, pos = tau * turns[-1], path[-1]

    s_out = s0 + np.arange(steps + 1) * h
    return PlaneCurveSamples(s_values=s_out, points=np.stack([pts.real, pts.imag], axis=1))


def _curvature(k: Callable, s: np.ndarray) -> np.ndarray:
    """k on the array s, a scalar return broadcast; refuses a value that is not finite."""
    val = np.broadcast_to(np.asarray(k(s), dtype=float), s.shape)
    ok = np.isfinite(val)
    if not ok.all():
        raise ValueError(f"curvature is not finite at s = {s[~ok][0].item()!r}")
    return val

