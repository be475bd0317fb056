"""Tests for the from-scratch special functions.

Frozen reference numbers come from the extended-precision series oracle in
tests/oracles.py (direct power-series summation in mpmath, independent of
the double-precision code paths under test).
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from oracles import bessel_miller_loop, bessel_zero_count, mp_bessel_j
from spiralbox import specfun
from spiralbox.specfun import (
    MAX_ZEROS,
    bessel_j,
    bessel_j_zeros,
    find_root,
    laguerre,
)

# (nu, x, J_nu(x)) from the 50+-digit series oracle
BESSEL_ORACLE = [
    (0.0, 0.5, 0.9384698072408129),
    (0.0, 2.0, 0.22389077914123567),
    (0.0, 5.0, -0.1775967713143383),
    (0.0, 11.5, -0.067653948111665228),
    (0.0, 14.0, 0.17107347611045866),
    (0.0, 27.0, 0.072741918005887088),
    (0.0, 60.0, -0.09147180408906187),
    (0.0, 130.0, -0.064225230691877707),
    (0.0, 200.0, -0.015437439930565092),
    (0.3, 0.5, 0.70026048850705467),
    (0.3, 2.0, 0.42569406198141372),
    (0.3, 5.0, -0.29682911012576076),
    (0.3, 11.5, -0.16189684107714954),
    (0.3, 14.0, 0.21008030617932352),
    (0.3, 27.0, 0.12605789561283722),
    (0.3, 60.0, -0.060064602231185257),
    (0.3, 130.0, -0.069842082521382614),
    (0.3, 200.0, -0.038381724751194095),
    (1.0, 0.5, 0.24226845767487389),
    (1.0, 2.0, 0.57672480775687339),
    (1.0, 5.0, -0.32757913759146522),
    (1.0, 11.5, -0.22837862066532347),
    (1.0, 14.0, 0.13337515469879325),
    (1.0, 27.0, 0.13658472451850767),
    (1.0, 60.0, 0.046598383758166318),
    (1.0, 130.0, -0.028034965628428195),
    (1.0, 200.0, -0.054304538182378223),
    (2.5, 0.5, 0.0092364078193797245),
    (2.5, 2.0, 0.22392453146891577),
    (2.5, 5.0, 0.24037720111131735),
    (2.5, 11.5, 0.17164239274269211),
    (2.5, 14.0, -0.21425563673110613),
    (2.5, 27.0, -0.14126570270926857),
    (2.5, 60.0, 0.036276530818286875),
    (2.5, 130.0, 0.065669567766875035),
    (2.5, 200.0, 0.048854529236358557),
    (7.88987, 0.5, 5.5376259906133763e-10),
    (7.88987, 2.0, 2.8016804916120869e-5),
    (7.88987, 5.0, 0.020845398986152283),
    (7.88987, 11.5, 0.11950754722641455),
    (7.88987, 14.0, -0.23383242742292597),
    (7.88987, 27.0, -0.11687041012951506),
    (7.88987, 60.0, -0.10107992769397751),
    (7.88987, 130.0, -0.047742976989419374),
    (7.88987, 200.0, 0.0029041978991860245),
    (13.3537, 0.5, 5.78457801856608e-19),
    (13.3537, 2.0, 5.9369834072178918e-11),
    (13.3537, 5.0, 8.4329131849991849e-6),
    (13.3537, 11.5, 0.071400927847984077),
    (13.3537, 14.0, 0.23139481701109136),
    (13.3537, 27.0, -0.11242562787342991),
    (13.3537, 60.0, -0.046188236450523902),
    (13.3537, 130.0, -0.036025096627960725),
    (13.3537, 200.0, -0.052309424971860167),
    (16.6592, 0.5, 6.9143878461644807e-25),
    (16.6592, 2.0, 7.0226042662871357e-15),
    (16.6592, 5.0, 2.2145738287212491e-8),
    (16.6592, 11.5, 0.0046386128097075155),
    (16.6592, 14.0, 0.042863304822343046),
    (16.6592, 27.0, 0.10429782899300841),
    (16.6592, 60.0, -0.072127160736056365),
    (16.6592, 130.0, -0.063524367771933752),
    (16.6592, 200.0, -0.032765308495299778),
    (23.5649, 0.5, 4.1827066650460193e-38),
    (23.5649, 2.0, 6.1994383050476336e-24),
    (23.5649, 5.0, 1.1923636662628886e-14),
    (23.5649, 11.5, 1.2896775976794696e-6),
    (23.5649, 14.0, 6.6171352233352243e-5),
    (23.5649, 27.0, 0.20481189175423739),
    (23.5649, 60.0, -0.019486303387893793),
    (23.5649, 130.0, 0.070268446660991991),
    (23.5649, 200.0, 0.055184828957413827),
    (30.0, 0.5, 3.2633568289139785e-51),
    (30.0, 2.0, 3.6502562664740971e-33),
    (30.0, 5.0, 2.6711772782507988e-21),
    (30.0, 11.5, 7.8544098598517593e-11),
    (30.0, 14.0, 1.6775399533577875e-8),
    (30.0, 27.0, 0.040959226624219219),
    (30.0, 60.0, 0.068198567826733513),
    (30.0, 130.0, -0.052207702660742286),
    (30.0, 200.0, -0.052122279029882832),
]

# (nu, n, j_{nu,n}) from scan + bisection on the series oracle
ZEROS_ORACLE = [
    (0.0, 1, 2.4048255576957729),
    (0.0, 2, 5.5200781102863115),
    (0.3, 1, 2.8540972243766847),
    (1.0, 1, 3.831705970207512),
    (2.5, 4, 15.514603010886749),
    (7.88987, 1, 12.100182475459484),
    (7.88987, 2, 15.904478615361423),
    (7.88987, 5, 26.120899530614665),
    (13.3537, 1, 18.190497851427011),
    (16.6592, 2, 26.170872209694238),
    (23.5649, 1, 29.24503836532454),
    (23.5649, 3, 38.114281453656531),
    (23.5649, 14, 76.558416925631775),
]


# --- bessel_j ---------------------------------------------------------------


def test_bessel_at_origin():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(0.5, 0.0) == 0.0
    assert bessel_j(7.88987, 0.0) == 0.0


def test_bessel_domain():
    with pytest.raises(ValueError):
        bessel_j(0.0, -1.0)
    with pytest.raises(ValueError):
        bessel_j(-0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(math.nan, 1.0)
    # the backward recurrence costs O(nu) a call: orders above 1e4 are refused
    assert math.isfinite(bessel_j(1e4, 1e4))
    with pytest.raises(ValueError):
        bessel_j(1.0001e4, 1.0)
    with pytest.raises(ValueError):
        bessel_j_zeros(1e9, 1)


def test_bessel_half_order_identity():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x
    for x in np.linspace(0.1, 50.0, 300):
        x = float(x)
        ref = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert bessel_j(0.5, x) == pytest.approx(ref, abs=1e-10 * max(1.0, abs(ref) * 1e4))


def test_bessel_half_order_spot():
    assert bessel_j(0.5, math.pi / 2.0) == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert abs(bessel_j(0.5, math.pi)) <= 1e-10


@pytest.mark.parametrize("nu,x,expected", BESSEL_ORACLE)
def test_bessel_oracle_table(nu, x, expected):
    assert bessel_j(nu, x) == pytest.approx(expected, rel=1e-10)


def test_bessel_small_argument_matches_oracle_to_1e_14():
    # the backward recurrence on both sides of x = 6, where an ascending
    # series would cancel (5e-13 absolute near x = 12)
    for nu in (0.0, 0.05, 0.1, 0.3, 0.5, 1.0, 1.7, 2.5, 5.0, 8.0):
        for x in np.linspace(0.25, 14.0, 56):
            x = float(x)
            assert abs(bessel_j(nu, x) - float(mp_bessel_j(nu, x))) <= 1e-14, (nu, x)


@pytest.mark.parametrize(
    "nu,x", [(1000.5, 1050.5), (2500.25, 2550.0), (5000.5, 5050.5), (9999.5, 10050.5)]
)
def test_bessel_at_large_order_matches_mpmath_to_1e_13(nu, x):
    # a Neumann weight taken from log-gammas near k ~ 5000 would cost their
    # ulps, a few 1e-12; mpmath's defaults do not converge at these orders
    with mp.workdps(30):
        ref = mp.besselj(nu, x, maxprec=60000)
        assert abs(mp.mpf(bessel_j(nu, x)) / ref - 1) <= 1e-13


def test_bessel_over_the_miller_range_matches_mpmath():
    # seeded (nu, x) over nu in [0, 1e4] and x > max(6, sqrt(2 (nu + 1))),
    # up to nu + 500, where the rounding grows with x.  Near a zero of J only
    # the absolute error stays small, so it is measured against
    # max(|J|, sqrt(2 / (pi x))), the envelope of J for x >> nu.  The bound
    # is the worst over 840 such points, 2.2e-13, rounded up
    rng = np.random.default_rng(20261019)
    for i in range(60):
        nu = float(rng.uniform(0.0, 1e4) if i % 2 else rng.uniform(0.0, 100.0))
        x = float(rng.uniform(max(6.0, math.sqrt(2.0 * (nu + 1.0))), nu + 500.0))
        with mp.workdps(30):
            ref = mp.besselj(nu, x, maxprec=60000)
            scale = max(abs(ref), mp.sqrt(2.0 / (mp.pi * x)))
            assert abs(mp.mpf(bessel_j(nu, x)) - ref) <= 2.5e-13 * scale, (nu, x)


def test_bessel_near_the_origin_matches_mpmath():
    # seeded (nu, x) over nu in [0, 1e4] and 0 < x <= max(6, sqrt(2 (nu + 1))),
    # where an ascending series cancels (1.0e-14 of the envelope at x = 6):
    # uniform, log-uniform down to 1e-8, around the leading-term cut at 1e-8,
    # and the region's edges.  Measured against the envelope as above; the
    # bound is the worst over 22 500 such points, 1.04e-15, rounded up
    rng = np.random.default_rng(20261021)
    cut = 1e-8
    for i in range(240):
        nu = float(rng.uniform(0.0, 1e4) if i % 2 else rng.uniform(0.0, 100.0))
        top = max(6.0, math.sqrt(2.0 * (nu + 1.0)))
        edges = (top, math.nextafter(top, 0.0), 6.0, cut, math.nextafter(cut, 1.0),
                 math.nextafter(cut, 0.0))
        x = (
            float(rng.uniform(0.0, top)),
            float(10.0 ** rng.uniform(-8.0, math.log10(top))),
            float(10.0 ** rng.uniform(-9.0, -7.0)),
            edges[i // 4 % len(edges)],
        )[i % 4]
        with mp.workdps(30):
            ref = mp.besselj(nu, x, maxprec=60000)
            scale = max(abs(ref), mp.sqrt(2.0 / (mp.pi * x)))
            assert abs(mp.mpf(bessel_j(nu, x)) - ref) <= 1.1e-15 * scale, (nu, x)


# (nu, x, J_nu(x)) on nu + 500 < x <= 2e4, from mp.besselj(..., maxprec=...)
# at 30 digits; seeded (numpy seed 20261020, nu alternately in [0, 100] and
# [0, 1e4]), then the far corners of the accepted range and the worst of 77
# such points
BESSEL_FAR_ORACLE = [
    (86.98769984421325, 3188.006754818027, -0.00402890212157347),
    (8604.304279333832, 13164.789992966671, 0.0077317264511886883),
    (71.3580529476669, 17984.992832165062, -0.0057487233594649993),
    (905.7402317441677, 18428.100572773154, 0.0048953273708611468),
    (22.898907143228232, 14790.337286140842, 0.0050973663862270913),
    (9956.3371271489, 14184.176568726352, -0.0044129631160048988),
    (27.293160927479075, 10517.48349587569, 0.0076117502664943975),
    (5454.987944457115, 14081.382590657226, -0.0051627700529878611),
    (76.48101092859952, 13406.804712522073, -0.0065708029264821947),
    (5324.596282136951, 13929.87087450544, 0.0005105067951014101),
    (35.89030759881871, 14948.79482386456, 0.005640558464671509),
    (6840.123986484878, 7938.04889478413, -0.011086398526319934),
    (6.499181209417526, 8177.964040219403, 0.003453850380949426),
    (3874.5319785297415, 9848.042897263416, -0.0078971842114316725),
    (70.42087679028788, 12553.35579158969, 0.00089954240783933625),
    (9175.266084417306, 14617.033558173867, 0.0074266934348141676),
    (0.0, 20000.0, 0.0055659749049549462),
    (0.5, 19999.0, -0.0020866296839277681),
    (10000.0, 20000.0, 0.0036495100485577519),
    (7579.510023564281, 14191.845244539858, 0.00032290521742405012),
]


def test_bessel_beyond_nu_plus_500_matches_frozen_mpmath():
    # the recurrence runs over about x terms here, and its rounding grows with
    # them; measured against max(|J|, sqrt(2 / (pi x))) as above.  The bound
    # is the worst of these points, 2.03e-12, rounded up
    for nu, x, ref in BESSEL_FAR_ORACLE:
        scale = max(abs(ref), math.sqrt(2.0 / (math.pi * x)))
        assert abs(bessel_j(nu, x) - ref) <= 2.1e-12 * scale, (nu, x)


def test_bessel_refuses_an_argument_above_its_cap_at_once():
    # the recurrence runs over about x terms: x = 1e300 never returned, and
    # an array [1e19] overflowed the int64 start index into [-1.]
    for x in (3e4, np.array([1e19]), 1e300, np.array([1.0, 1e300])):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="x <= 20000"):
            bessel_j(0.0, x)
        assert time.perf_counter() - start < 0.1
    assert math.isfinite(bessel_j(0.0, 2e4))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _grid_cases():
    # seeded orders over [0, 1e4]: zero, tiny, integer and half-integer ones
    rng = np.random.default_rng(20241)
    orders = [0.0, 1e-20, 1.0, 2.0, 0.5, 7.5, 100.0, 999.5, 1e4]
    orders += rng.uniform(0.0, 50.0, 4).tolist() + rng.uniform(50.0, 1e4, 3).tolist()
    cases = []
    for nu in orders:
        size = 200 if nu < 100.0 else 25  # the scalar reference costs about nu steps a point
        top = max(30.0, 1.3 * nu + 40.0)
        # the leading-term cut at 1e-8 and the former series region's edges
        cuts = [1e-8, 6.0, math.sqrt(2.0 * (nu + 1.0))]
        edges = [0.0, *cuts]
        edges += [math.nextafter(v, math.inf) for v in cuts]
        edges += [math.nextafter(v, 0.0) for v in cuts]
        cases.append((nu, np.concatenate([edges, rng.uniform(0.0, top, size)])))
    # J_1000 on [45, 60]: the backward recurrence passes 1e250 and rescales
    cases.append((1000.0, rng.uniform(45.0, 60.0, 25)))
    return cases


@pytest.mark.parametrize("nu,x", _grid_cases(), ids=lambda v: f"{v:g}" if isinstance(v, float) else "")
def test_bessel_of_an_array_equals_the_scalar_path_bit_for_bit(nu, x):
    got = bessel_j(nu, x)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    assert _bits(got) == _bits([bessel_j(nu, float(v)) for v in x])


def _miller_cases(rng):
    # (nu, x) for the scalar recurrence, each group seeded; the steps cost about
    # max(nu, x) each, so the large orders and arguments are the fewest
    def log_uniform(lo, hi, size):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size)

    def near_and_far(nu):  # x log-uniform below 1, or uniform up to past the turning point
        far = rng.uniform(1e-8, 1.5 * nu + 40.0)
        return np.where(rng.random(nu.size) < 0.3, log_uniform(1e-8, 1.0, nu.size), far)

    integer = rng.integers(0, 61, 16_000).astype(float)
    fraction = rng.uniform(0.0, 60.0, 16_000)
    below_one = rng.uniform(0.0, 1.0, 7_000)  # n_tgt = 0, the target is j = 0 itself
    # below double resolution of 1 the fraction is dropped; 1.2e-16 and up keep it
    unresolved = np.concatenate([rng.uniform(0.0, 1.1e-16, 1_500), rng.uniform(1.2e-16, 1e-15, 500)])
    groups = [(nu, near_and_far(nu)) for nu in (integer, fraction, below_one, unresolved)]
    # x near 1e-8: every step multiplies by about 2j/x, so the recurrence
    # passes 1e250 and rescales many times, and at the larger orders J underflows
    for nu in (rng.uniform(0.0, 60.0, 8_000), log_uniform(1.0, 1e4, 1_000)):
        groups.append((nu, log_uniform(1e-8, 1e-6, nu.size)))
    corners = np.array([[1e4, 2e4], [0.0, 2e4], [9999.5, 2e4], [1e4, 1e-8], [0.5, 1e-8]])
    large = rng.uniform([0.0, 0.0], [1e4, 2e4], (60, 2))
    groups.append(tuple(np.concatenate([corners, large]).T))
    return [(float(n), float(v)) for nu, x in groups for n, v in zip(nu, x)]


def test_the_paired_miller_loop_equals_the_one_index_loop_bit_for_bit():
    # specfun._bessel_miller takes the steps in pairs, one loop per
    # normalization; oracles.bessel_miller_loop is that function as it was,
    # one test of parity, normalization, target and last step per index
    cases = _miller_cases(np.random.default_rng(20261020))
    assert len(cases) >= 50_000
    starts = [specfun._miller_start(x, nu) & 1 for nu, x in cases]
    assert min(starts.count(0), starts.count(1)) > 20_000  # even and odd starts
    assert sum(nu < 1.0 for nu, _ in cases) > 9_000  # n_tgt = 0
    got = [specfun._bessel_miller(nu, x) for nu, x in cases]
    assert _bits(got) == _bits([bessel_miller_loop(nu, x) for nu, x in cases])


def test_bessel_of_an_array_keeps_shape_and_checks_every_point():
    x = np.array([[0.0, 3.0], [7.0, 40.0]])
    assert _bits(bessel_j(2.5, x).ravel()) == _bits([bessel_j(2.5, float(v)) for v in x.ravel()])
    assert bessel_j(2.5, np.array([])).shape == (0,)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=repr(bad)):
            bessel_j(1.0, np.array([1.0, bad, -2.0]))
    with pytest.raises(ValueError):
        bessel_j(1.0001e4, np.array([1.0]))


def test_bessel_at_the_smallest_positive_argument():
    # x = 5e-324 is the one x > 0 whose half underflows to 0: it raised
    # "math domain error" as a scalar and inside an array
    tiny = 5e-324
    with mp.workdps(30):
        want = float(mp.besselj(mp.mpf("1e-10"), mp.mpf(tiny)))
    assert want == pytest.approx(1.0 - 7.4e-8, abs=1e-9)
    for nu, expected in ((0.0, 1.0), (2.5, 0.0), (1e-10, want)):
        assert bessel_j(nu, tiny) == pytest.approx(expected, rel=1e-15)
        x = np.array([tiny, 1e-300, 1.0, 7.0])
        got = bessel_j(nu, x)
        assert got[0] == pytest.approx(expected, rel=1e-15)
        assert _bits(got[1:]) == _bits([bessel_j(nu, float(v)) for v in x[1:]])


def test_bessel_recurrence_consistency():
    # J_nu + J_{nu+2} = (2 (nu+1) / x) J_{nu+1}, randomized orders and arguments
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        nu = float(rng.uniform(0.0, 25.0))
        x = float(rng.uniform(1e-2, 100.0))
        a = bessel_j(nu, x)
        b = bessel_j(nu + 1.0, x)
        c = bessel_j(nu + 2.0, x)
        lhs = a + c
        rhs = 2.0 * (nu + 1.0) / x * b
        scale = max(abs(a), abs(b), abs(c), abs(rhs), 1e-280)
        assert abs(lhs - rhs) <= 1e-8 * scale


# --- bessel_j_zeros -----------------------------------------------------------


def test_half_order_zeros_are_multiples_of_pi():
    for n, zero in enumerate(bessel_j_zeros(0.5, 5), start=1):
        assert zero == pytest.approx(n * math.pi, abs=1e-10)


@pytest.mark.parametrize("nu,n,expected", ZEROS_ORACLE)
def test_zero_oracle_table(nu, n, expected):
    assert bessel_j_zeros(nu, n)[n - 1] == pytest.approx(expected, abs=1e-10)


def test_zero_ordering_and_residual():
    for nu in (0.0, 0.3, 7.88987, 23.5649):
        zeros = bessel_j_zeros(nu, 6)
        assert all(b > a for a, b in zip(zeros, zeros[1:]))
        assert zeros[0] > nu
        for z in zeros:
            assert abs(bessel_j(nu, z)) <= 1e-9


def test_zero_recurrence_identity():
    # at a zero of J_nu: -J_{nu-1} J_{nu+1} = J_{nu+1}^2
    for nu in (1.0, 2.5, 7.88987, 23.5649):
        zeros = bessel_j_zeros(nu, 3)
        for n in (1, 3):
            z = zeros[n - 1]
            lhs = -bessel_j(nu - 1.0, z) * bessel_j(nu + 1.0, z)
            rhs = bessel_j(nu + 1.0, z) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-8)


def test_zero_interlacing():
    for nu in (0.0, 0.3, 7.88987, 23.5649):
        zeros, zeros_up = bessel_j_zeros(nu, 6), bessel_j_zeros(nu + 1.0, 5)
        for n in range(1, 6):
            jn = zeros[n - 1]
            jn_up = zeros_up[n - 1]
            jn_next = zeros[n]
            assert jn < jn_up < jn_next


def test_order_below_double_resolution_of_one_acts_as_order_zero():
    # nu + 1 == 1 in floating point: the backward recurrence treats nu as 0
    for nu in (1e-17, 1e-320):
        assert bessel_j(nu, 10.0) == pytest.approx(bessel_j(0.0, 10.0), abs=1e-15)
        assert bessel_j_zeros(nu, 2) == pytest.approx(bessel_j_zeros(0.0, 2), rel=1e-15)


def test_zero_index_validation():
    with pytest.raises(ValueError):
        bessel_j_zeros(1.0, 0)
    # above the cap, at once: the scan costs about count^2, and 10**6 zeros
    # at nu = 0.5 had not returned after 20 s, j_{1e4,400} took 25 s
    for nu in (0.5, 1e4):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"1..{MAX_ZEROS}, got {MAX_ZEROS + 1}"):
            bessel_j_zeros(nu, MAX_ZEROS + 1)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "nu", [0.0, 0.1, 0.3, 0.5, 1.0, 2.5, 7.88987, 13.3537, 23.5649, 60.0, 200.0]
)
def test_zeros_match_mpmath(nu):
    rel = 2e-13 if nu <= 0.1 else 1e-14
    zeros = bessel_j_zeros(nu, 9)
    with mp.workdps(25):
        for n, z in enumerate(zeros, start=1):
            ref = mp.besseljzero(mp.mpf(nu), n)
            assert abs(mp.mpf(z) / ref - 1) <= rel, (nu, n)
    # a shorter count gives the same leading zeros
    assert bessel_j_zeros(nu, 4) == zeros[:4]


def _scan_every_step(nu, count):
    # the scan from nu + 1/2 that evaluates J_nu at every quarter step
    miller, zeros = specfun._bessel_miller, []
    x, fx = nu + 0.5, miller(nu, nu + 0.5)
    while len(zeros) < count:
        x_next = x + math.pi / 4.0
        f_next = miller(nu, x_next)
        if f_next == 0.0:
            zeros.append(x_next)
            f_next = -fx
        elif (fx < 0.0) != (f_next < 0.0):
            zeros.append(find_root(lambda t: miller(nu, t), x, x_next, fx, f_next)[0])
        x, fx = x_next, f_next
    return tuple(zeros)


def test_zeros_where_the_scan_skips_match_mpmath():
    # seeded orders in [0, 1], in [0, 40] and log-uniform over [1e-3, 1e3],
    # with 1-9 zeros each.  The skipped steps hold no zero: J_nu > 0 at
    # nu + 1.855 nu^(1/3), below Qu and Wong's bound on j_{nu,1}, and the
    # zeros lie more than 3 apart; the zeros are bit for bit those of the scan
    # that skips none.  Each zero's relative error is one Newton step in
    # mpmath, J_nu/(z J_nu'), which mp.findroot matches to 1e-31 here (its
    # defaults fail at large orders, hence maxprec).  The bound is the
    # README's 3.2e-16: the worst of these 485 zeros, nu = 0.355, is 2.35e-16 off
    rng = np.random.default_rng(20261024)
    for i in range(90):
        draws = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 40.0), 10.0 ** rng.uniform(-3.0, 3.0))
        nu = float(draws[i % 3])
        zeros = bessel_j_zeros(nu, int(rng.integers(1, 10)))
        assert zeros == _scan_every_step(nu, len(zeros)), nu
        assert bessel_j(nu, nu + 1.855 * nu ** (1.0 / 3.0)) > 0.0, nu
        assert all(b - a > 3.0 for a, b in zip(zeros, zeros[1:])), nu
        with mp.workdps(30):
            for z in map(mp.mpf, zeros):
                step = mp.besselj(nu, z, maxprec=60000) / mp.besselj(nu, z, 1, maxprec=60000)
                assert abs(step / z) <= 3.2e-16, (nu, z)


def test_zero_scan_sweep_count(monkeypatch):
    # 9 zeros of J_7.89: the scan makes 22 sweeps (one at the last step below
    # nu + 1.855 nu^(1/3), one at the last step within 3 past each zero but
    # the last, and 13 quarter steps), where the scan that skips none makes
    # 41.  The sweeps of find_root, which refines the same brackets either
    # way, are not counted
    sweeps, refined = [], []
    miller, find_root = specfun._bessel_miller, specfun.find_root

    def counted_miller(nu, x):
        sweeps.append(x)
        return miller(nu, x)

    def counted_find_root(*args):
        root = find_root(*args)
        refined.append(root[2])
        return root

    monkeypatch.setattr(specfun, "_bessel_miller", counted_miller)
    monkeypatch.setattr(specfun, "find_root", counted_find_root)
    bessel_j_zeros(7.89, 9)
    assert len(sweeps) - sum(refined) == 22


def test_zeros_carry_their_index_by_the_bessel_matrix_count():
    # the k-th zero from the scan has exactly k - 1 zeros below it and k up to it:
    # count(z (1 - 1e-12)) < k <= count(z (1 + 1e-12)), the counts taken from the
    # eigenvalues +-1/j of the Bessel matrix, which share no code with the scan.
    # Seeded orders log-uniform over [1e-3, 300] with up to 20 zeros, nu = 0, and
    # a few orders up to 1e4 with up to 3
    rng = np.random.default_rng(20261019)
    orders = [(0.0, 20), (1e4, 3)]
    orders += [(float(10.0 ** rng.uniform(-3.0, math.log10(300.0))), 20) for _ in range(40)]
    orders += [(float(10.0 ** rng.uniform(math.log10(300.0), 4.0)), 3) for _ in range(4)]
    for nu, count in orders:
        for k, z in enumerate(bessel_j_zeros(nu, count), start=1):
            below = bessel_zero_count(nu, z * (1 - 1e-12))
            upto = bessel_zero_count(nu, z * (1 + 1e-12))
            assert below < k <= upto, (nu, k, z, below, upto)


# --- find_root ----------------------------------------------------------------


def test_find_root_brackets_and_counts():
    x, fx, evaluations = find_root(lambda t: t * t - 2.0, 0.0, 2.0, -2.0, 2.0)
    assert x == pytest.approx(math.sqrt(2.0), rel=1e-15)  # a bracket of a few ulps
    assert fx == x * x - 2.0
    assert 0 < evaluations < 20
    # a loose ftol is met by the better end point without any evaluation
    assert find_root(math.sin, 3.0, 4.0, math.sin(3.0), math.sin(4.0), ftol=0.5)[2] == 0
    with pytest.raises(ValueError):
        find_root(math.cos, 0.0, 1.0, 1.0, math.cos(1.0))


# --- laguerre -----------------------------------------------------------------


def _laguerre_value(degree, alpha, x):
    # laguerre gives L as a mantissa and a power of two
    return np.ldexp(*laguerre(degree, alpha, x))


def test_laguerre_low_degrees():
    for alpha in (0.0, 1.0, 2.5):
        for x in np.linspace(-3.0, 8.0, 23):
            x = float(x)
            assert _laguerre_value(0, alpha, x) == 1.0
            assert _laguerre_value(1, alpha, x) == pytest.approx(
                1.0 + alpha - x, rel=1e-14, abs=1e-14)
    for x in np.linspace(-3.0, 8.0, 23):
        x = float(x)
        assert _laguerre_value(1, 1.0, x) == pytest.approx(2.0 - x, rel=1e-14, abs=1e-14)
        assert _laguerre_value(2, 1.0, x) == pytest.approx(
            3.0 - 3.0 * x + x * x / 2.0, rel=1e-13, abs=1e-13)


def test_laguerre_degree_three_closed_form():
    def l3(alpha, x):
        return (
            (alpha + 1.0) * (alpha + 2.0) * (alpha + 3.0) / 6.0
            - (alpha + 2.0) * (alpha + 3.0) * x / 2.0
            + (alpha + 3.0) * x * x / 2.0
            - x**3 / 6.0
        )

    for alpha in (0.0, 1.0, 3.0, 2.5):
        for x in np.linspace(-2.0, 10.0, 17):
            x = float(x)
            assert _laguerre_value(3, alpha, x) == pytest.approx(l3(alpha, x), rel=1e-12, abs=1e-12)


def test_laguerre_recurrence_self_consistency():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        alpha = float(rng.uniform(0.0, 4.0))
        x = float(rng.uniform(0.0, 20.0))
        lhs = (n + 1.0) * _laguerre_value(n + 1, alpha, x)
        rhs = (2.0 * n + 1.0 + alpha - x) * _laguerre_value(n, alpha, x) - (
            n + alpha) * _laguerre_value(n - 1, alpha, x)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_laguerre_degree_validation():
    with pytest.raises(ValueError):
        laguerre(-1, 0.0, 1.0)
    with pytest.raises(ValueError):
        laguerre(-1, 0.0, np.array([1.0]))


def _laguerre_loop(degree, alpha, x):
    # the three-term recurrence at one point in plain Python floats
    if degree == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + alpha - x
    for k in range(1, degree):
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - x) * cur - (k + alpha) * prev) / (k + 1.0)
    return cur


@pytest.mark.parametrize("degree", [0, 1, 2, 7, 40, 150])
def test_laguerre_of_an_array_equals_the_scalar_recurrence_bit_for_bit(degree):
    # degree 150 on x up to 1200 passes 2^500 and is scaled down by powers
    # of two, which leaves the bits as they are
    rng = np.random.default_rng(degree)
    x = np.concatenate([[0.0, -2.5], rng.uniform(0.0, 8.0 * degree + 10.0, 60)])
    for alpha in (0.0, 1.0, 2.5, 7.0):
        want = [_laguerre_loop(degree, alpha, v) for v in x.tolist()]
        m, e = laguerre(degree, alpha, x.reshape(2, -1))
        assert m.shape == e.shape == (2, x.size // 2)
        assert _bits(np.ldexp(m, e).ravel()) == _bits(want)
        assert _bits([_laguerre_value(degree, alpha, v) for v in x.tolist()]) == _bits(want)


def test_laguerre_degree_zero_is_ones_in_the_shape_of_x():
    got = _laguerre_value(0, 1.0, np.zeros((2, 3)))
    assert got.shape == (2, 3) and np.all(got == 1.0)
    assert _laguerre_value(0, 1.0, np.array([])).shape == (0,)


def test_laguerre_scaled_stays_finite_past_the_float_range():
    # L_999^(1)(8000) is about 1e908: m 2^e carries it where L itself is inf
    x = np.array([4000.0, 8000.0])
    m, e = laguerre(999, 1.0, x)
    assert e.dtype.kind == "i" and np.all(np.isfinite(m)) and e[1] > 1024
    with mp.workdps(30):
        for xi, mi, ei in zip(x.tolist(), m.tolist(), e.tolist()):
            want = mp.laguerre(999, 1, xi)
            assert abs(mp.ldexp(mi, ei) / want - 1) <= 1e-12, xi
    with np.errstate(over="ignore"):
        assert abs(_laguerre_value(999, 1.0, 8000.0)) == math.inf
    m1, e1 = laguerre(3, 1.0, 2.0)
    assert (m1, e1) == (_laguerre_loop(3, 1.0, 2.0), 0)


def test_laguerre_scaled_checks_the_degree_one_value_too():
    # 1 + alpha - x went unscaled, and at degree 2 the product x L_1
    # overflowed to inf before any check
    m, e = laguerre(1, 2.0**499, -(2.0**500))
    assert abs(m) < 2.0**500 and e == 500
    assert mp.ldexp(m, e) == pytest.approx(1.0 + 1.5 * 2.0**500, rel=1e-15)
    # at the edge of the range, |x| = 2^500 = 3.3e150
    for degree in (2, 3, 40):
        m, e = laguerre(degree, 5.0, np.array([2.0**500, -(2.0**500), 2.0]))
        assert np.all(np.isfinite(m)) and np.all(np.abs(m) <= 2.0**500)


@pytest.mark.parametrize("as_array", [False, True])
def test_laguerre_refuses_x_and_alpha_past_two_to_the_500(as_array):
    # L_10(1e200) is about 2.8e1993, and gave nan
    def points(*x):
        return np.array(x) if as_array else x[-1]

    with pytest.raises(ValueError, match=r"\|x\| <= 2\^500, got 1e\+200$"):
        laguerre(10, 0.0, points(1.0, 1e200))
    with pytest.raises(ValueError, match=r"\|alpha\| <= 2\^500"):
        laguerre(10, -1e200, points(1.0))
    laguerre(10, 2.0**500, points(-(2.0**500)))  # the edge itself is taken
