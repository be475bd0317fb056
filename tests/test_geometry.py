"""Tests for the power-law curve family and the Frenet integrator."""

import math

import numpy as np
import pytest

from spiralbox.geometry import (
    CurvatureLaw,
    PlaneCurveSamples,
    cs_functions,
    curvature_of_samples,
    frenet_integrate,
    hydrogen_curve,
    log_spaced,
    polyene_curve,
    sample_hydrogen_curve,
    sample_polyene_curve,
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


# --- curvature law and cs_functions ------------------------------------------


def test_curvature_law_validation():
    with pytest.raises(ValueError):
        CurvatureLaw(0.0, 1.0)
    with pytest.raises(ValueError):
        CurvatureLaw(-1.0, 1.0)
    with pytest.raises(ValueError):
        CurvatureLaw(1.0, math.nan)
    with pytest.raises(ValueError):
        CurvatureLaw(1.0, 1.0).k(0.0)


def test_cs_functions_p_zero_is_plain_angle():
    law = CurvatureLaw(1.0, 0.0)
    for s in (0.3, 1.0, 2.5, 7.0):
        c, sn = cs_functions(law, s)
        assert c == pytest.approx(math.cos(s), abs=1e-14)
        assert sn == pytest.approx(math.sin(s), abs=1e-14)


def test_cs_functions_log_branch_at_unit_arc():
    for sigma in (0.2, 1.0, 3.0):
        assert cs_functions(CurvatureLaw(sigma, 1.0), 1.0) == (1.0, 0.0)


def test_cs_functions_sqrt_branch():
    c, sn = cs_functions(CurvatureLaw(2.0, 0.5), 1.0)
    assert c == pytest.approx(math.cos(1.0), abs=1e-14)
    assert sn == pytest.approx(math.sin(1.0), abs=1e-14)


def test_cs_functions_domain():
    with pytest.raises(ValueError):
        cs_functions(CurvatureLaw(1.0, 0.5), 0.0)
    with pytest.raises(ValueError):
        cs_functions(CurvatureLaw(1.0, 0.5), -1.0)


# --- closed forms --------------------------------------------------------------


@pytest.mark.parametrize("sigma", [0.0632455532033676, 0.7, 1.0, 2.5])
def test_hydrogen_radius_identity(sigma):
    for s in log_spaced(1e-4, 1e4, 100):
        r = np.linalg.norm(hydrogen_curve(sigma, float(s)))
        assert r == pytest.approx(hydrogen_radius(sigma, float(s)), rel=1e-12)


@pytest.mark.parametrize("sigma", [0.0632455532033676, 0.7, 1.0, 2.5])
def test_polyene_radius_identity(sigma):
    for s in log_spaced(1e-4, 1e4, 100):
        r = np.linalg.norm(polyene_curve(sigma, float(s)))
        assert r == pytest.approx(polyene_radius(sigma, float(s)), rel=1e-12)


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
        hydrogen_curve(1.0, 1.0, s0=-1.0)
    with pytest.raises(ValueError):
        polyene_curve(1.0, -0.5)


def _polyene_point(sigma, s):
    theta = math.log(s) / sigma
    amp = sigma * s / (1.0 + sigma * sigma)
    return (amp * (math.cos(theta) + sigma * math.sin(theta)),
            amp * (math.sin(theta) - sigma * math.cos(theta)))


def _hydrogen_point(sigma, s, s0, center):
    def angle(v):
        return math.sqrt(v) / (0.5 * sigma)

    x = 0.5 * sigma * sigma * math.cos(angle(s)) + sigma * math.sqrt(s) * math.sin(angle(s))
    y = -sigma * math.sqrt(s) * math.cos(angle(s)) + 0.5 * sigma * sigma * math.sin(angle(s))
    c0, s0_ = math.cos(angle(s0)), math.sin(angle(s0))
    return (c0 * x + s0_ * y + center[0], -s0_ * x + c0 * y + center[1])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_forms_of_an_array_match_a_pointwise_math_loop(seed):
    rng = np.random.default_rng(seed)
    sigma = float(rng.uniform(0.03, 2.0))
    s = np.sort(rng.uniform(1e-3, 10.0, 500))
    s0, center = float(rng.uniform(0.2, 3.0)), tuple(rng.uniform(-2.0, 2.0, 2).tolist())
    for got, want in (
        (polyene_curve(sigma, s), [_polyene_point(sigma, v) for v in s.tolist()]),
        (hydrogen_curve(sigma, s, s0, center),
         [_hydrogen_point(sigma, v, s0, center) for v in s.tolist()]),
    ):
        want = np.array(want)
        assert got.shape == (s.size, 2)
        extent = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-14 * extent


def test_closed_forms_of_an_array_equal_their_single_points():
    s = log_spaced(1e-3, 20.0, 300)
    for sigma in (0.03, 0.7, 2.5):
        for curve in (
            lambda v: polyene_curve(sigma, v),
            lambda v: hydrogen_curve(sigma, v, 0.6, (0.5, -0.25)),
        ):
            points = curve(s)
            assert points.tolist() == [curve(float(v)).tolist() for v in s]
        samples = sample_hydrogen_curve(sigma, s)
        assert samples.points.tolist() == hydrogen_curve(sigma, s).tolist()
        assert sample_polyene_curve(sigma, s).points.tolist() == polyene_curve(sigma, s).tolist()


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
    # the caller checks the points; numpy must not warn on the way
    assert not np.all(np.isfinite(polyene_curve(1e300, np.array([1e10, 1e300]))))
    far = hydrogen_curve(1.3e154, np.array([1.0, 1.7e308]), center=(1.7e308, 1.7e308))
    assert not np.all(np.isfinite(far))


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
    assert res.polyline_length() == pytest.approx(2.0 * math.pi, abs=1e-6)
    assert np.all(res.chord_lengths() <= np.diff(res.s_values) * (1.0 + 1e-9))


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
    k = curvature_of_samples(sample_polyene_curve(sigma, s))
    expected = 1.0 / (sigma * s[1:-1])
    assert np.max(np.abs(k / expected - 1.0)) < 1e-3


def test_curvature_of_hydrogen_samples():
    sigma = 1.0
    s = np.arange(1.0, 2.0, 1e-3)
    k = curvature_of_samples(sample_hydrogen_curve(sigma, s))
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
