"""Property test over the library API, and the `hydrogen` table, across the whole float range.

Arguments are drawn as log-uniform magnitudes, subnormals and the edges of
each documented cap.  Every call either raises ValueError or returns finite
values that meet an invariant; a value may be non-finite only where the true
value is beyond the float range, and below the normal floats where the true
value is.  Exact values come from mpmath.
"""

import contextlib
import io
import math
import re
import sys
import xml.etree.ElementTree as ET

import mpmath as mp
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiralbox import cli, fdsolver, geometry, polyene, quantum, specfun, svgplot

TINY = sys.float_info.min
HUGE = sys.float_info.max
H = mp.mpf(2.0 * math.pi)  # the Planck constant in atomic units, as the code takes it

# positive floats: log-uniform over the whole range, subnormals, and the ends
MAGNITUDES = st.one_of(
    st.floats(-1074.0, 1023.99).map(lambda e: 2.0**e),
    st.floats(min_value=5e-324, max_value=TINY),
    st.sampled_from([5e-324, TINY, 0.5, 1.0, 2.0, HUGE]),
)
SIGNED = st.one_of(MAGNITUDES, MAGNITUDES.map(lambda v: -v), st.just(0.0))
COUNTS = st.one_of(st.integers(1, 12), st.integers(13, 10**6), st.sampled_from([0, -1, 10**18]))
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


def _above(x: float) -> float:
    return math.nextafter(x, math.inf)


def _refused_or(call, *args):
    """call(*args), or None where it raises ValueError."""
    try:
        return call(*args)
    except ValueError:
        return None


def _exact(fn, *args):
    with mp.workdps(40):
        return fn(*(mp.mpf(a) if isinstance(a, float) else a for a in args))


def _rounds(got: float, want, rel: float = 1e-13) -> bool:
    """`got` is the float of the exact `want`: within `rel` of it, below the
    normal floats where `want` is, and not finite only where `want` is beyond
    the float range."""
    if not math.isfinite(got):
        return abs(want) > HUGE
    if abs(want) < TINY:
        return abs(got) <= TINY
    return abs(got - want) <= rel * abs(want)


# --- quantum ----------------------------------------------------------------------


@PROPERTY
@given(sigma=SIGNED)
def test_omega_from_sigma(sigma):
    omega = _refused_or(quantum.omega_from_sigma, sigma)
    if omega is not None:
        # 1 - 1/sigma^2 is known to a few ulps of 1: compare 4 omega^2 with it
        want = _exact(lambda s: abs(1 - 1 / s**2), sigma)
        assert math.isfinite(omega) and omega >= 0.0
        assert abs(4.0 * omega * omega - want) <= 2e-15 * (1.0 + want), sigma


@PROPERTY
@given(k=SIGNED, mass=SIGNED)
def test_geometry_induced_potential(k, mass):
    value = _refused_or(quantum.geometry_induced_potential, k, mass)
    if value is not None:
        assert math.isfinite(value)
        assert _rounds(value, _exact(lambda a, m: -a * a / (8 * m), k, mass)), (k, mass)


@PROPERTY
@given(n=COUNTS, length=SIGNED, mass=SIGNED)
@example(n=1, length=2e-154, mass=1.0)  # about 1.1e308, just below the largest float
@example(n=2, length=2e-154, mass=1.0)  # 4x that, refused
def test_particle_in_a_box_levels(n, length, mass):
    energy = _refused_or(quantum.pib_open_energy, n, length, mass)
    if energy is not None:
        want = _exact(lambda a, m: H**2 * n * n / (8 * m * a * a), length, mass)
        assert math.isfinite(energy) and _rounds(energy, want), (n, length, mass)


@PROPERTY
@given(x=SIGNED)
def test_unit_conversions_are_one_product(x):
    assert quantum.nm_to_bohr(x) == x / quantum.BOHR_NM
    assert quantum.hartree_to_ev(x) == x * quantum.HARTREE_EV
    with np.errstate(over="ignore"):  # an array's overflow is inf, as a float's is
        assert quantum.hartree_to_ev(np.array([x, 1.0]))[0] == x * quantum.HARTREE_EV
    for got, want in ((quantum.nm_to_bohr(x), _exact(lambda v: v / mp.mpf(quantum.BOHR_NM), x)),
                      (quantum.hartree_to_ev(x), _exact(lambda v: v * quantum.HARTREE_EV, x))):
        assert _rounds(got, want, rel=3e-16), x


@PROPERTY
@given(lower=SIGNED, upper=SIGNED)
def test_transition_wavelength(lower, upper):
    lam = _refused_or(quantum.transition_wavelength, lower, upper)
    if upper <= lower:
        assert lam is None, (lower, upper)
        return
    want = _exact(lambda a, b: quantum.HC_EV_NM / ((b - a) * quantum.HARTREE_EV), lower, upper)
    if lam is None:
        # refused only where the wavelength is not a float, or its gap in eV is not
        assert not quantum.HC_EV_NM / HUGE * 1.01 < want < HUGE / 1.01, (lower, upper)
    else:
        # upper - lower is rounded once before the formula
        assert math.isfinite(lam) and _rounds(lam, want, rel=1e-15), (lower, upper)


@PROPERTY
@given(n=st.integers(1, 200), ell=st.integers(0, 90), s=MAGNITUDES, a0=MAGNITUDES)
@example(n=10**4, ell=90, s=2e4, a0=1.0)  # the CLI's level cap
def test_hydrogen_states_share_their_normalization(n, ell, s, a0):
    # psi_N(s) = s R_{N,0}(s): the 1D state is the l = 0 radial function times s
    psi = _refused_or(quantum.hydrogen_wavefunction_1d, n, s, a0)
    radial = _refused_or(quantum.hydrogen_radial_3d, n, min(ell, n - 1), s, a0)
    for value in (psi, radial):
        assert value is None or math.isfinite(value)
    zero = _refused_or(quantum.hydrogen_radial_3d, n, 0, s, a0)
    if psi is not None and zero is not None and abs(zero) >= TINY:
        assert _rounds(psi, _exact(lambda r, v: r * v, s, zero), rel=1e-12), (n, s, a0)
    # s^2 R^2 = psi^2, also where s^2, R or psi alone leaves the float range
    density = _refused_or(quantum.hydrogen_radial_density, n, 0, s, a0)
    if density is None:
        assert psi is None or _exact(lambda v: v * v, psi) > HUGE * (1 - 1e-12), (n, s, a0)
    else:
        assert math.isfinite(density) and density >= 0.0, (n, s, a0)
        if psi is not None:
            assert _rounds(density, _exact(lambda v: v * v, psi), rel=1e-12), (n, s, a0)


# a0 log-uniform up to 1e300
A0 = st.floats(-1074.0, math.log2(1e300)).map(lambda e: 2.0**e)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(n=st.integers(1, 300), a0=A0)
@example(n=10**4, a0=1e297)  # 1/sqrt(n^3 a0) was 0: psi read 0
@example(n=1, a0=1e200)  # s^2 overflowed: exit 2
@example(n=3, a0=1e300)  # R underflowed: prob_3d_radial read 0
def test_hydrogen_table_gives_equal_densities(tmp_path_factory, n, a0):
    out = tmp_path_factory.mktemp("hydrogen") / "h.csv"
    argv = ["hydrogen", "--n-level", str(n), "--a0", repr(a0), "--samples", "3",
            "--output", str(out)]
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    # exit 2 only where a true cell leaves the float range (prob_1d peaks near
    # 0.5/(n^2 a0)), or the default --s-max does
    assert code == 0 or (code == 2 and (a0 < 1.0 / HUGE or 4.0 * n * n * a0 > HUGE)), (n, a0)
    if code == 0:
        for row in out.read_text().splitlines()[3:]:
            _, _, prob_1d, prob_3d = map(float, row.split(","))
            # both are one rounding from psi^2 below the normal floats
            assert abs(prob_1d - prob_3d) <= 1e-8 * prob_3d + 2.0**-1072, (n, a0, row)


SPECTRUM_ARGS = st.one_of(
    st.tuples(SIGNED, st.integers(1, 3)),
    # the level cap's edges, where the zeros are cheap
    st.tuples(st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([quantum.MAX_LEVELS])),
    st.tuples(SIGNED, st.sampled_from([0, quantum.MAX_LEVELS + 1])),
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(args=SPECTRUM_ARGS, length=SIGNED, mass=SIGNED)
@example(args=(1.0, quantum.MAX_LEVELS), length=1.5e154, mass=1.0)  # 2 m L^2 overflowed to 0
def test_spiral_box_spectrum_levels_increase(args, length, mass):
    sigma, levels = args
    spec = _refused_or(quantum.spiral_box_spectrum, sigma, length, mass, levels)
    if spec is not None:
        assert spec.n_levels == levels and all(map(math.isfinite, spec.energies))
        assert all(0.0 < a < b for a, b in zip(spec.zeros, spec.zeros[1:]))
        for j, energy in zip(spec.zeros, spec.energies):
            want = _exact(lambda z, a, m: z * z / (2 * m * a * a), j, length, mass)
            assert _rounds(energy, want, rel=1e-12), (sigma, length, mass)
        normal = [e for e in spec.energies if e >= TINY]
        assert all(a < b for a, b in zip(normal, normal[1:]))


# --- geometry ---------------------------------------------------------------------

EXPONENTS = st.one_of(st.sampled_from([0.5, 1.0, 0.0, 2.0, -1.0]), st.floats(-50.0, 50.0))


@PROPERTY
@given(sigma=SIGNED, p=EXPONENTS, s=SIGNED)
def test_curvature_law_and_its_turning_angle(sigma, p, s):
    law = _refused_or(geometry.CurvatureLaw, sigma, p)
    if law is None:
        return
    k = _refused_or(law.k, s)
    if k is not None:
        assert _rounds(k, _exact(lambda a, q, v: 1 / (a * v**q), sigma, p, s)), (sigma, p, s)
    theta = _refused_or(law.turning_angle, s)
    if theta is not None:
        if p == 1.0:
            want = _exact(lambda a, v: mp.log(v) / a, sigma, s)
        else:
            want = _exact(lambda a, q, v: v ** (1 - q) / (a * (1 - q)), sigma, p, s)
        # 1 - p is rounded, which moves s^(1 - p) by up to |ln s| ulps
        assert _rounds(theta, want, rel=1e-12), (sigma, p, s)


@PROPERTY
@given(sigma=SIGNED, s=SIGNED)
@example(sigma=1e100, s=1e300)  # sigma s overflowed
@example(sigma=1e15, s=1e-300)  # amp was subnormal: 1.5e-9 off
def test_closed_forms_keep_their_radius_laws(sigma, s):
    laws = (
        (geometry.hydrogen_curve, lambda a, v: a * mp.sqrt(v + a * a / 4)),
        (geometry.polyene_curve, lambda a, v: a * v / mp.sqrt(1 + a * a)),
    )
    for curve, radius in laws:
        point = _refused_or(curve, sigma, s)
        if point is not None:
            assert point.shape == (2,)
            got = _exact(lambda x, y: mp.hypot(x, y), *point.tolist())
            if np.all(np.isfinite(point)):
                assert _rounds(float(got), _exact(radius, sigma, s)), (curve.__name__, sigma, s)
            else:
                assert _exact(radius, sigma, s) > HUGE, (curve.__name__, sigma, s)


# --- polyene ----------------------------------------------------------------------


@PROPERTY
@given(n_bonds=COUNTS, bond=SIGNED)
def test_heuristic_box_length(n_bonds, bond):
    length = _refused_or(polyene.heuristic_box_length, n_bonds, bond)
    if length is not None:
        assert 0.0 < length < math.inf and length == (n_bonds + 1) * bond


@PROPERTY
@given(n_pi=COUNTS.map(lambda n: 2 * n), length=MAGNITUDES, lam=MAGNITUDES)
def test_fit_effective_mass(n_pi, length, lam):
    mol = _refused_or(polyene.Molecule, "chain", n_pi, length, lam)
    mass = mol and _refused_or(polyene.fit_effective_mass, mol)
    if mass is not None:
        # Delta E = h^2 (2n + 1) / (8 m L^2) = hc / lambda, in bohr and Hartree
        want = _exact(
            lambda n, a, v: H**2 * (2 * n + 1) * v * quantum.HARTREE_EV
            / (8 * (a / quantum.BOHR_NM) ** 2 * quantum.HC_EV_NM),
            n_pi // 2, length, lam,
        )
        assert math.isfinite(mass) and _rounds(mass, want, rel=1e-12), (n_pi, length, lam)


# --- fdsolver ---------------------------------------------------------------------

# W(s) = c + a / s^2: a constant well, the inverse-square family of the spiral box, or
# both; moderate values most of the time, so that most operators get solved
MODERATE = st.floats(-100.0, 100.0)
POTENTIALS = st.tuples(st.one_of(MODERATE, SIGNED), st.one_of(st.just(0.0), MODERATE, SIGNED))
LENGTHS = st.one_of(st.floats(0.01, 100.0), MAGNITUDES)
NODES = st.one_of(st.integers(1, 40), st.integers(41, 200), st.sampled_from([0, -1]))


def _potential(c: float, a: float):
    return lambda s: c + a / (s * s)


def _certified(op, values, count):
    """`values` are the `count` lowest eigenvalues of `op`: ascending, finite, inside
    the padded Gershgorin bounds, each bracketed by counts at -+ twice its tolerance."""
    bottom, top = op.gershgorin_bounds()
    floor = max(2.220446049250313e-16 * max(abs(bottom), abs(top)), op._rows[2])
    pad = 4.0 * floor + op._rows[2]
    assert values.shape == (count,) and np.all(np.isfinite(values))
    assert np.all(np.diff(values) >= 0.0)
    assert bottom - pad <= values[0] and values[-1] <= top + pad
    for k, x in enumerate(values.tolist(), start=1):
        w = 2.1 * max(1e-10 * abs(x), floor)
        assert fdsolver.sturm_count(op, x - w) < k <= fdsolver.sturm_count(op, x + w), (k, x)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(potential=POTENTIALS, length=LENGTHS, nodes=NODES,
       shifts=st.lists(st.one_of(MODERATE, SIGNED), min_size=1, max_size=4),
       count=st.one_of(st.integers(1, 6), st.sampled_from([-1, 0])),
       start=st.lists(st.one_of(MODERATE, SIGNED), min_size=6, max_size=6))
@example(potential=(1.7e308, 0.0), length=1.0, nodes=20, shifts=[1.7e308], count=2,
         start=[1.7e308] * 6)  # the middle of a bracket overflowed
def test_fd_levels_are_certified_by_their_counts(potential, length, nodes, shifts, count, start):
    op = _refused_or(fdsolver.discretize, _potential(*potential), length, nodes)
    if op is None:
        return
    assert op.size == nodes
    assert np.all(np.isfinite(op.diagonal)) and np.all(np.isfinite(op.off_diagonal))
    counts = [fdsolver.sturm_count(op, x) for x in sorted(shifts)]
    assert all(0 <= a <= b <= nodes for a, b in zip(counts, counts[1:] + [nodes]))
    for hint in (None, start[:count]):
        values = _refused_or(lambda: fdsolver.eigenvalues_lowest(op, count, start=hint))
        if values is None:
            assert not 1 <= count <= nodes
        else:
            _certified(op, values, count)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(potential=POTENTIALS, length=LENGTHS, nodes=st.integers(1, 100), count=st.integers(1, 4))
@example(potential=(1e200, 0.0), length=1e60, nodes=32, count=2)  # c2 * fine overflowed
@example(potential=(HUGE, 0.0), length=1.0, nodes=16, count=1)  # the result rounded to inf
def test_richardson_levels_are_finite_and_ascending(potential, length, nodes, count):
    W = _potential(*potential)
    values = _refused_or(fdsolver.richardson_refine, W, length, count, nodes)
    if values is not None:
        assert values.shape == (count,) and np.all(np.isfinite(values)), (potential, length, nodes)
        assert np.all(np.diff(values) >= 0.0), (potential, length, nodes, values)
        return
    # refused: fewer than 16 nodes a level, a grid that discretize refuses, or an
    # extrapolation past the float range, which takes levels beyond half its edge
    grids = [_refused_or(fdsolver.discretize, W, length, n)
             for n in (nodes // 16, nodes, 2 * nodes)]
    if nodes >= 16 * count and all(op is not None for op in grids):
        levels = [fdsolver.eigenvalues_lowest(op, count) for op in grids[1:]]
        assert np.max(np.abs(levels)) > HUGE / 4, (potential, length, nodes, count)


# --- specfun ----------------------------------------------------------------------

ORDERS = st.one_of(st.floats(0.0, 60.0), st.floats(0.0, specfun.MAX_ORDER),
                   st.sampled_from([0.0, specfun.MAX_ORDER, _above(specfun.MAX_ORDER), -5e-324]))
ARGUMENTS = st.one_of(st.floats(0.0, 100.0), SIGNED.filter(lambda x: abs(x) <= 4e4),
                      st.sampled_from([0.0, 1e-8, 2e4, _above(2e4)]))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(nu=ORDERS, x=ARGUMENTS)
def test_bessel_j_is_bounded(nu, x):
    value = _refused_or(specfun.bessel_j, nu, x)
    if value is not None:
        # |J_nu| <= 1 for nu >= 0, and J_nu > 0 below its first zero, beyond nu
        assert math.isfinite(value) and abs(value) <= 1.0, (nu, x)
        assert value >= 0.0 or x > nu, (nu, x)


LAGUERRE_EDGES = st.sampled_from([2.0**500, -(2.0**500), _above(2.0**500)])


@PROPERTY
@given(degree=st.one_of(st.integers(0, 40), st.sampled_from([-1, 200])),
       alpha=st.one_of(SIGNED, LAGUERRE_EDGES), x=st.one_of(SIGNED, LAGUERRE_EDGES))
@example(degree=10, alpha=0.0, x=1e200)  # gave nan
def test_laguerre_is_the_ldexp_of_its_scaled_form(degree, alpha, x):
    scaled = _refused_or(specfun.laguerre, degree, alpha, x)
    if scaled is not None:
        m, e = scaled
        assert math.isfinite(m), (degree, alpha, x)
        # the same recurrence in Python floats, never scaled: where it stays
        # finite, the powers of two of the scaled one leave every bit as it is
        prev, plain = 0.0, 1.0
        for k in range(degree):
            prev, plain = plain, ((2.0 * k + 1.0 + alpha - x) * plain - (k + alpha) * prev) / (k + 1.0)
        if math.isfinite(plain):
            assert plain == np.ldexp(m, e), (degree, alpha, x)


# --- svgplot ----------------------------------------------------------------------

def test_the_characters_xml_cannot_carry_are_the_complement_of_its_char_production():
    # XML 1.0's Char is #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
    # [#x10000-#x10FFFF]; svgplot lists what is left, which compiles about 10x
    # faster than this negated class, the pattern it replaced
    negated = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    refused = [m.start() for m in svgplot._NOT_XML.finditer(every)]
    assert refused == [m.start() for m in negated.finditer(every)]
    assert len(refused) == 2048 + 29 + 2  # the surrogates, the C0 controls but tab, LF, CR, and U+FFFE-F


ROWS = st.lists(
    st.builds(
        polyene.FitResult,
        name=st.text(),
        sigma=st.just(0.05),
        omega=st.just(1.0),
        lambda_calc=st.floats(1.0, 1e4),
        lambda_exp=st.one_of(st.none(), st.floats(1.0, 1e4)),
        percent_error=st.none(),
        iterations=st.just(0),
        converged=st.just(False),
    ),
    max_size=5,
)


@PROPERTY
@given(rows=ROWS)
@example(rows=[polyene.FitResult("A<&>\"B'", 0.05, 1.0, 400.0, 387.0, None, 0, False)])
def test_report_chart_reads_back_every_name(rows):
    chart = _refused_or(svgplot.report_bar_chart, rows)
    if chart is not None:
        svg = ET.fromstring(chart)
        texts = [el.text or "" for el in svg.iter("{http://www.w3.org/2000/svg}text")]
        labels = [r.name if len(r.name) <= 16 else r.name[:15] + "…" for r in rows]
        assert texts[6:-2] == labels
