"""Tests for the power-law curve family and the Frenet integrator."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from oracles import curvature_of_samples, frenet_loop
from spiralbox import geometry
from spiralbox.geometry import (
    CurvatureLaw,
    PlaneCurveSamples,
    frenet_integrate,
    hydrogen_curve,
    polyene_curve,
)


def hydrogen_radius(sigma: float, s: float) -> float:
    return sigma * math.sqrt(s + sigma * sigma / 4.0)


def polyene_radius(sigma: float, s: float) -> float:
    return sigma * s / math.sqrt(1.0 + sigma * sigma)


def align_to_closed_form(result, closed_form, s0):
    """Rigid motion taking an integrated curve onto a closed-form curve.

    Rotates so the tangents agree at s0 (closed-form tangent from a central
    difference), then translates to match the s0 points.
    """
    h = 1e-7
    d = (closed_form(s0 + h) - closed_form(s0 - h)) / (2.0 * h)
    d = d / np.linalg.norm(d)
    rot = np.array([[d[0], -d[1]], [d[1], d[0]]])
    pts = (rot @ result.points.T).T
    return pts + (closed_form(s0) - pts[0])


# --- curvature law and turning angle -----------------------------------------


def test_curvature_law_validation():
    with pytest.raises(ValueError):
        CurvatureLaw(0.0, 1.0)
    with pytest.raises(ValueError):
        CurvatureLaw(-1.0, 1.0)
    with pytest.raises(ValueError):
        CurvatureLaw(1.0, math.nan)
    with pytest.raises(ValueError):
        CurvatureLaw(1.0, 1.0).k(0.0)


@pytest.mark.parametrize(
    "sigma,p", [(0.03, 1.0), (1.0, 0.5), (0.5, 0.75), (2.0, -0.5), (1e-3, 2.0)]
)
def test_curvature_of_an_array_is_within_4_ulps_of_the_float_formula(sigma, p):
    law = CurvatureLaw(sigma, p)
    s = np.geomspace(1e-3, 1e3, 500)
    got = law.k(s)
    want = np.array([1.0 / (sigma * v**p) for v in s.tolist()])
    assert got.shape == s.shape
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
    assert isinstance(law.k(2.0), float)
    assert law.k(np.array([2.0])).tolist() == [law.k(2.0)]


def test_curvature_of_an_array_names_the_first_failing_s():
    with pytest.raises(ValueError, match=r"s > 0, got -2\.0$"):
        CurvatureLaw(1.0, 0.5).k(np.array([1.0, -2.0, 0.0]))
    with pytest.raises(ValueError, match=r"s > 0, got nan$"):
        CurvatureLaw(1.0, 0.5).k(math.nan)
    # s^p overflows, and sigma * s^p underflows to zero
    with pytest.raises(ValueError, match=r"float range at s = 1e\+200$"):
        CurvatureLaw(1.0, 2.0).k(np.array([1.0, 1e200, 1e300]))
    with pytest.raises(ValueError, match=r"float range at s = 1e-200$"):
        CurvatureLaw(1e-300, 0.5).k(np.array([1.0, 1e-200, 1e-300]))
    # sigma * s^p past the largest float is a curvature of zero, as for a float s
    assert CurvatureLaw(1e300, 1.0).k(np.array([1e10])).tolist() == [0.0]


def _cs(law, s):
    # the (cos, sin) pair of the turning angle, as the closed forms take it
    theta = law.turning_angle(s)
    return math.cos(theta), math.sin(theta)


def test_cs_functions_p_zero_is_plain_angle():
    law = CurvatureLaw(1.0, 0.0)
    for s in (0.3, 1.0, 2.5, 7.0):
        assert law.turning_angle(s) == pytest.approx(s, abs=1e-14)
        c, sn = _cs(law, s)
        assert c == pytest.approx(math.cos(s), abs=1e-14)
        assert sn == pytest.approx(math.sin(s), abs=1e-14)


def test_cs_functions_log_branch_at_unit_arc():
    for sigma in (0.2, 1.0, 3.0):
        assert CurvatureLaw(sigma, 1.0).turning_angle(1.0) == 0.0
        assert _cs(CurvatureLaw(sigma, 1.0), 1.0) == (1.0, 0.0)


def test_cs_functions_sqrt_branch():
    law = CurvatureLaw(2.0, 0.5)
    assert law.turning_angle(1.0) == pytest.approx(1.0, abs=1e-14)
    c, sn = _cs(law, 1.0)
    assert c == pytest.approx(math.cos(1.0), abs=1e-14)
    assert sn == pytest.approx(math.sin(1.0), abs=1e-14)


def test_cs_functions_domain():
    for s in (0.0, -1.0):
        with pytest.raises(ValueError):
            CurvatureLaw(1.0, 0.5).turning_angle(s)


# --- closed forms --------------------------------------------------------------


@pytest.mark.parametrize("sigma", [0.0632455532033676, 0.7, 1.0, 2.5])
def test_hydrogen_radius_identity(sigma):
    for s in np.geomspace(1e-4, 1e4, 100):
        r = np.linalg.norm(hydrogen_curve(sigma, float(s)))
        assert r == pytest.approx(hydrogen_radius(sigma, float(s)), rel=1e-12)


@pytest.mark.parametrize("sigma", [0.0632455532033676, 0.7, 1.0, 2.5])
def test_polyene_radius_identity(sigma):
    for s in np.geomspace(1e-4, 1e4, 100):
        r = np.linalg.norm(polyene_curve(sigma, float(s)))
        assert r == pytest.approx(polyene_radius(sigma, float(s)), rel=1e-12)


@pytest.mark.parametrize("sigma", [1.35e154, 1e160, 1e300])
def test_polyene_radius_identity_where_sigma_squared_overflows(sigma):
    # amp = sigma s / (1 + sigma^2) was 0 there, and every point (0, -0)
    s = np.geomspace(1e-4, 1e4, 100)
    r = np.linalg.norm(polyene_curve(sigma, s), axis=-1)
    assert np.all(np.abs(r / s - 1.0) <= 1e-15)


def test_polyene_radius_identity_where_sigma_s_overflows():
    # amp = sigma s / (1 + sigma^2) was inf there, though every point is finite
    s = np.array([1e10, 1e290, 1e295, 1e300])
    r = np.hypot(*polyene_curve(1e100, s).T)
    assert np.all(np.abs(r / s - 1.0) <= 1e-15)


def test_polyene_reference_point():
    for sigma in (0.1, 0.5, 2.0):
        expected = sigma / (1.0 + sigma * sigma) * np.array([1.0, -sigma])
        assert polyene_curve(sigma, 1.0) == pytest.approx(expected, abs=1e-15)


def test_hydrogen_curve_is_arc_length_parametrized():
    h = 1e-6
    for sigma in (0.5, 1.0, 2.0):
        for s in (0.5, 1.0, 3.0, 20.0):
            d = (hydrogen_curve(sigma, s + h) - hydrogen_curve(sigma, s - h)) / (2.0 * h)
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-8)


def test_curve_domain_errors():
    with pytest.raises(ValueError):
        hydrogen_curve(1.0, 0.0)
    with pytest.raises(ValueError):
        polyene_curve(1.0, -0.5)


def _polyene_point(sigma, s):
    theta = math.log(s) / sigma
    amp = sigma * s / (1.0 + sigma * sigma)
    return (amp * (math.cos(theta) + sigma * math.sin(theta)),
            amp * (math.sin(theta) - sigma * math.cos(theta)))


def _hydrogen_point(sigma, s):
    def angle(v):
        return math.sqrt(v) / (0.5 * sigma)

    x = 0.5 * sigma * sigma * math.cos(angle(s)) + sigma * math.sqrt(s) * math.sin(angle(s))
    y = -sigma * math.sqrt(s) * math.cos(angle(s)) + 0.5 * sigma * sigma * math.sin(angle(s))
    c0, s0_ = math.cos(angle(1.0)), math.sin(angle(1.0))  # tangent (1, 0) at s = 1
    return (c0 * x + s0_ * y, -s0_ * x + c0 * y)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_forms_of_an_array_match_a_pointwise_math_loop(seed):
    rng = np.random.default_rng(seed)
    sigma = float(rng.uniform(0.03, 2.0))
    s = np.sort(rng.uniform(1e-3, 10.0, 500))
    for got, want in (
        (polyene_curve(sigma, s), [_polyene_point(sigma, v) for v in s.tolist()]),
        (hydrogen_curve(sigma, s), [_hydrogen_point(sigma, v) for v in s.tolist()]),
    ):
        want = np.array(want)
        assert got.shape == (s.size, 2)
        extent = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-14 * extent


def test_closed_forms_of_an_array_equal_their_single_points():
    s = np.geomspace(1e-3, 20.0, 300)
    for sigma in (0.03, 0.7, 2.5):
        for curve in (
            lambda v: polyene_curve(sigma, v),
            lambda v: hydrogen_curve(sigma, v),
        ):
            points = curve(s)
            assert points.tolist() == [curve(float(v)).tolist() for v in s]


def test_turning_angle_of_an_array_names_the_first_failing_s():
    law = CurvatureLaw(1e-320, 1.0)
    assert law.turning_angle(np.array([1.0, 1.0])).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match=r"overflows at s = 0\.5$"):
        law.turning_angle(np.array([1.0, 0.5, 2.0]))
    with pytest.raises(ValueError, match=r"overflows at s = 0\.5$"):
        polyene_curve(1e-320, np.array([1.0, 0.5, 2.0]))
    with pytest.raises(ValueError, match=r"got -2\.0$"):
        CurvatureLaw(1.0, 0.5).turning_angle(np.array([1.0, -2.0, 0.0]))
    with pytest.raises(ValueError, match="defined for s > 0"):
        hydrogen_curve(1.0, np.array([1.0, 0.0]))


def test_closed_forms_leaving_the_float_range_give_non_finite_points_silently():
    # the caller checks the points; numpy must not warn on the way.  sigma sqrt(s)
    # overflows here, and so does the true radius sigma sqrt(s + sigma^2/4)
    points = hydrogen_curve(1.8e154, np.array([1.0, 1.7e308]))
    assert np.all(np.isfinite(points[0])) and not np.any(np.isfinite(points[1]))


def test_polyene_approaches_center_faster_than_hydrogen():
    sigma = 0.5
    ratios = []
    for s in (1e-2, 1e-4, 1e-6):
        ratios.append(polyene_radius(sigma, s) / hydrogen_radius(sigma, s))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 1e-5


# --- Frenet integrator ----------------------------------------------------------


def test_frenet_constant_curvature_closes_circle():
    res = frenet_integrate(lambda s: 1.0, 0.0, 2.0 * math.pi, 10_000)
    assert np.linalg.norm(res.points[-1] - res.points[0]) < 1e-6


def test_frenet_zero_curvature_is_straight_line():
    res = frenet_integrate(lambda s: 0.0, 0.0, 5.0, 100)
    assert res.points[-1] == pytest.approx([5.0, 0.0], abs=1e-12)
    assert np.allclose(res.points[:, 1], 0.0, atol=1e-12)


def test_frenet_matches_polyene_closed_form():
    sigma = math.sqrt(0.0009)
    law = CurvatureLaw(sigma, 1.0)
    res = frenet_integrate(law.k, 1.0, 3.0, 20_000)
    aligned = align_to_closed_form(res, lambda s: polyene_curve(sigma, s), 1.0)
    ref = np.array([polyene_curve(sigma, float(s)) for s in res.s_values])
    assert np.max(np.linalg.norm(aligned - ref, axis=1)) < 1e-8


def test_frenet_matches_hydrogen_closed_form():
    sigma = 1.0
    law = CurvatureLaw(sigma, 0.5)
    res = frenet_integrate(law.k, 1.0, 100.0, 40_000)
    # same initial frame convention, so a translation is enough
    offset = hydrogen_curve(sigma, 1.0) - res.points[0]
    idx = np.linspace(0, len(res.s_values) - 1, 60).astype(int)
    for i in idx:
        ref = hydrogen_curve(sigma, float(res.s_values[i]))
        assert np.linalg.norm(res.points[i] + offset - ref) < 1e-8


def test_frenet_polyline_length_converges_to_arc_length():
    res = frenet_integrate(lambda s: 1.0, 0.0, 2.0 * math.pi, 10_000)
    chords = np.linalg.norm(np.diff(res.points, axis=0), axis=1)
    assert chords.sum() == pytest.approx(2.0 * math.pi, abs=1e-6)
    assert np.all(chords <= np.diff(res.s_values) * (1.0 + 1e-9))


def test_frenet_fourth_order_convergence():
    sigma = 0.8
    law = CurvatureLaw(sigma, 1.0)
    ref = polyene_curve(sigma, 3.0)
    errors = []
    for steps in (50, 100, 200):
        res = frenet_integrate(law.k, 1.0, 3.0, steps)
        aligned = align_to_closed_form(res, lambda s: polyene_curve(sigma, s), 1.0)
        errors.append(np.linalg.norm(aligned[-1] - ref))
    slope = np.polyfit(np.log([50, 100, 200]), np.log(errors), 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.4)


def test_frenet_rejects_non_finite_curvature():
    with pytest.raises(ValueError):
        frenet_integrate(lambda s: math.inf, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        frenet_integrate(lambda s: 1.0, 2.0, 1.0, 10)


def test_frenet_refuses_zero_steps():
    for steps in (0, -1):
        with pytest.raises(ValueError, match="^steps must be a positive integer$"):
            frenet_integrate(lambda s: 1.0, 0.0, 1.0, steps)


def _sub_steps(law, s0, s1, steps):
    h = (s1 - s0) / steps
    k = np.abs(law.k(np.append(s0 + np.arange(steps) * h, s1)))
    return int(np.maximum(1, np.ceil(np.maximum(k[:-1], k[1:]) * h / 0.1)).sum())


def _float_law(sigma, p):
    # the curvature law in float arithmetic, for the per-sub-step loop
    return lambda s: 1.0 / (sigma * s**p)


@pytest.mark.parametrize(
    "law,s0,s1,steps",
    [
        ((lambda s: 1.0), 0.0, 2.0 * math.pi, 10_000),
        ((lambda s: 0.0), 0.0, 5.0, 100),
        ((math.sqrt(0.0009), 1.0), 1.0, 3.0, 20_000),
        ((1.0, 0.5), 1.0, 100.0, 40_000),
        ((0.8, 1.0), 1.0, 3.0, 50),
        ((0.6, 0.75), 0.7, 3.5, 2_000),  # as in the benchmark's Frenet curves
        ((1.0, 0.0), 1e-9, 2.0 * math.pi, 4_000),
    ],
    ids=["circle", "line", "polyene", "hydrogen", "coarse", "p0.75", "p0"],
)
def test_frenet_matches_the_per_sub_step_loop(law, s0, s1, steps):
    k, k_float = (law, law) if callable(law) else (CurvatureLaw(*law).k, _float_law(*law))
    res = frenet_integrate(k, s0, s1, steps)
    ref = frenet_loop(k_float, s0, s1, steps)
    assert res.s_values.tolist() == [s0 + i * ((s1 - s0) / steps) for i in range(steps + 1)]
    assert np.max(np.abs(res.points - ref)) <= 1e-12 * max(np.ptp(ref, axis=0))


def test_frenet_over_several_chunks_matches_the_per_sub_step_loop():
    law = CurvatureLaw(1e-4, 0.5)
    assert _sub_steps(law, 0.05, 4.0, 2_000) > 3 * geometry._CHUNK
    res = frenet_integrate(law.k, 0.05, 4.0, 2_000)
    ref = frenet_loop(_float_law(1e-4, 0.5), 0.05, 4.0, 2_000)
    assert np.max(np.abs(res.points - ref)) <= 1e-11 * max(np.ptp(ref, axis=0))


@pytest.mark.parametrize("steps", [1, 3])
def test_frenet_steps_longer_than_a_chunk_match_the_per_sub_step_loop(steps):
    # 150000 sub-steps of a circle of radius 1e-3: chunk ends fall inside steps
    res = frenet_integrate(lambda s: 1000.0, 0.0, 15.0, steps)
    ref = frenet_loop(lambda s: 1000.0, 0.0, 15.0, steps)
    assert np.max(np.abs(res.points - ref)) <= 1e-11 * 2e-3


def test_frenet_near_the_sub_step_budget_is_fast_and_small():
    law = CurvatureLaw(3.6e-5, 0.5)
    assert 900_000 < _sub_steps(law, 0.05, 4.0, 2_000) <= 1_000_000
    start = time.perf_counter()
    frenet_integrate(law.k, 0.05, 4.0, 2_000)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        res = frenet_integrate(law.k, 0.05, 4.0, 2_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(res.points))
    assert peak < 20e6


def test_frenet_broadcasts_a_scalar_curvature_and_names_the_first_bad_s():
    calls = []

    def k(s):
        calls.append(np.shape(s))
        return 1.0

    frenet_integrate(k, 0.0, 1.0, 10)
    assert calls and all(shape != () for shape in calls)
    with pytest.raises(ValueError, match=r"not finite at s = 0\.25$"):
        frenet_integrate(lambda s: np.where(s < 0.25, 1.0, math.nan), 0.0, 1.0, 8)
    # s^1000 overflows from s = 2.5 on, the last step's start
    with pytest.raises(ValueError, match=r"float range at s = 2\.5$"):
        frenet_integrate(CurvatureLaw(1e300, 1000.0).k, 0.5, 3.0, 5)


def test_frenet_refuses_past_the_budget_before_allocating():
    law = CurvatureLaw(3.5e-5, 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than 1000000 RK4 sub-steps"):
            frenet_integrate(law.k, 0.05, 4.0, 2_000)
        with pytest.raises(ValueError, match="more than 1000000 RK4 sub-steps"):
            frenet_integrate(lambda s: 0.0, 0.0, 1.0, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


# --- curvature reconstruction ----------------------------------------------------


def test_curvature_of_circle_samples():
    s = np.linspace(0.0, 2.0 * math.pi, 2_000)
    pts = np.column_stack([np.cos(s), np.sin(s)])
    samples = PlaneCurveSamples(s, pts)
    k = curvature_of_samples(samples)
    assert np.max(np.abs(k - 1.0)) < 1e-4


def test_curvature_of_straight_line():
    s = np.linspace(0.0, 1.0, 200)
    pts = np.column_stack([s, np.zeros_like(s)])
    k = curvature_of_samples(PlaneCurveSamples(s, pts))
    assert np.max(np.abs(k)) < 1e-6


def test_curvature_of_polyene_samples():
    sigma = math.sqrt(0.004)
    s = np.arange(1.0, 2.0, 1e-3)
    k = curvature_of_samples(PlaneCurveSamples(s, polyene_curve(sigma, s)))
    expected = 1.0 / (sigma * s[1:-1])
    assert np.max(np.abs(k / expected - 1.0)) < 1e-3


def test_curvature_of_hydrogen_samples():
    sigma = 1.0
    s = np.arange(1.0, 2.0, 1e-3)
    k = curvature_of_samples(PlaneCurveSamples(s, hydrogen_curve(sigma, s)))
    expected = 1.0 / (sigma * np.sqrt(s[1:-1]))
    assert np.max(np.abs(k / expected - 1.0)) < 1e-3


def test_curvature_needs_enough_uniform_samples():
    s = np.array([0.0, 1.0])
    pts = np.column_stack([s, np.zeros_like(s)])
    with pytest.raises(ValueError):
        curvature_of_samples(PlaneCurveSamples(s, pts))
    s = np.array([0.0, 1.0, 3.0])
    pts = np.column_stack([s, np.zeros_like(s)])
    with pytest.raises(ValueError):
        curvature_of_samples(PlaneCurveSamples(s, pts))


def test_samples_validation():
    with pytest.raises(ValueError):
        PlaneCurveSamples(np.array([1.0, 1.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PlaneCurveSamples(np.array([1.0, 2.0]), np.zeros((3, 2)))
