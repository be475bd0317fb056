"""Tests for the closed-form quantum layer."""

import math

import mpmath as mp
import numpy as np
import pytest

from spiralbox import specfun
from spiralbox.quantum import (
    HARTREE_EV,
    HC_EV_NM,
    ParticleInBox,
    geometry_induced_potential,
    hartree_to_ev,
    hydrogen_radial_3d,
    hydrogen_wavefunction_1d,
    nm_to_bohr,
    omega_from_sigma,
    pib_closed_energy,
    pib_open_energy,
    spiral_box_normalization,
    spiral_box_spectrum,
    spiral_box_wavefunction,
    transition_wavelength,
)

# sigma^2 -> omega reference pairs for the four polyene chains
OMEGA_TABLE = [
    (0.004, 7.88987),
    (0.0014, 13.35370),
    (0.0009, 16.65920),
    (0.00045, 23.56490),
]

# --- curvature-induced potential ---------------------------------------------


def test_gip_zero_curvature():
    assert geometry_induced_potential(0.0, 1.0) == 0.0


def test_gip_hydrogen_like_form():
    # k = 1/(sigma sqrt(s)) gives -1/(8 m sigma^2 s)
    sigma, mass = 0.7, 1.3
    for s in (0.2, 1.0, 5.0):
        k = 1.0 / (sigma * math.sqrt(s))
        expected = -1.0 / (8.0 * mass * sigma * sigma * s)
        assert geometry_induced_potential(k, mass) == pytest.approx(expected, rel=1e-14)


def test_gip_polyene_like_form():
    # k = 1/(sigma s) gives -1/(8 m sigma^2 s^2)
    sigma, mass = 0.25, 1.0
    for s in (0.5, 2.0):
        k = 1.0 / (sigma * s)
        expected = -1.0 / (8.0 * mass * sigma * sigma * s * s)
        assert geometry_induced_potential(k, mass) == pytest.approx(expected, rel=1e-14)


def test_gip_is_never_positive():
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert geometry_induced_potential(float(rng.normal()), 0.5) <= 0.0


def test_gip_mass_validation():
    with pytest.raises(ValueError):
        geometry_induced_potential(1.0, 0.0)


# --- omega -------------------------------------------------------------------


@pytest.mark.parametrize("sigma_sq,expected", OMEGA_TABLE)
def test_omega_polyene_values(sigma_sq, expected):
    assert omega_from_sigma(math.sqrt(sigma_sq)) == pytest.approx(expected, rel=1e-5)


def test_omega_degenerate_and_limit():
    assert omega_from_sigma(1.0) == 0.0
    assert omega_from_sigma(math.inf) == 0.5
    assert omega_from_sigma(1e6) == pytest.approx(0.5, rel=1e-12)


def test_omega_validation():
    with pytest.raises(ValueError):
        omega_from_sigma(0.0)


# --- spiral-box spectrum --------------------------------------------------------


def test_spectrum_reduces_to_box_at_large_sigma():
    spec = spiral_box_spectrum(1e6, 1.0, 1.0, 5)
    for n in range(1, 6):
        assert spec.energy(n) == pytest.approx(pib_open_energy(n, 1.0, 1.0), rel=1e-6)


def test_spectrum_ground_level_value():
    # j_{7.88987,1} = 12.100182475459484 from the series oracle; omega from
    # sigma = sqrt(0.004) agrees with 7.88987 to five significant figures
    spec = spiral_box_spectrum(math.sqrt(0.004), 1.0, 1.0, 1)
    assert spec.energy(1) == pytest.approx(12.100182475459484**2 / 2.0, rel=2e-5)


def test_spectrum_strictly_increasing():
    for sigma in (math.sqrt(0.004), 0.5, 2.0, 1e6):
        spec = spiral_box_spectrum(sigma, 2.0, 1.5, 8)
        assert all(b > a for a, b in zip(spec.energies, spec.energies[1:]))


def test_spectrum_validation():
    with pytest.raises(ValueError):
        spiral_box_spectrum(0.5, -1.0, 1.0, 3)
    spec = spiral_box_spectrum(0.5, 1.0, 1.0, 3)
    with pytest.raises(IndexError):
        spec.energy(4)
    with pytest.raises(IndexError):
        spec.energy(0)


# --- wavefunctions ---------------------------------------------------------------


def test_wavefunction_boundary_values():
    spec = spiral_box_spectrum(math.sqrt(0.004), 1.0, 1.0, 3)
    for n in (1, 2, 3):
        assert spiral_box_wavefunction(spec, n, 0.0) == 0.0
        assert abs(spiral_box_wavefunction(spec, n, spec.box_length)) <= 1e-9


def test_wavefunction_of_a_sequence_is_the_list_of_point_values():
    spec = spiral_box_spectrum(math.sqrt(0.004), 1.0, 1.0, 3)
    s = np.linspace(0.0, 1.0, 57)
    for n in (1, 3):
        values = spiral_box_wavefunction(spec, n, s)
        assert isinstance(values, list)
        assert values == [spiral_box_wavefunction(spec, n, float(x)) for x in s]
    assert isinstance(spiral_box_wavefunction(spec, 2, 0.5), float)
    assert spiral_box_wavefunction(spec, 2, []) == []
    with pytest.raises(ValueError):
        spiral_box_wavefunction(spec, 1, [0.5, 1.1])


def test_wavefunction_normalized():
    spec = spiral_box_spectrum(math.sqrt(0.0014), 1.0, 1.0, 4)
    for n in (1, 4):
        total = mp.quad(lambda s: spiral_box_wavefunction(spec, n, float(s)) ** 2, [0, 1])
        assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("sigma_sq", [v for v, _ in OMEGA_TABLE])
def test_normalization_closure_on_fine_grid(sigma_sq):
    # composite-Simpson grid sum of |psi_n|^2, independent of the mp.quad
    # route, for the first eight levels
    spec = spiral_box_spectrum(math.sqrt(sigma_sq), 1.0, 1.0, 8)
    s = np.linspace(0.0, 1.0, 4001)
    weights = np.ones_like(s)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (s[1] - s[0]) / 3.0
    for n in range(1, 9):
        vals = np.array(spiral_box_wavefunction(spec, n, s))
        assert float(weights @ vals**2) == pytest.approx(1.0, abs=1e-6)


def test_wavefunction_orthogonality():
    spec = spiral_box_spectrum(math.sqrt(0.004), 1.0, 1.0, 4)
    for m in (1, 2):
        for n in range(m + 1, 5):
            overlap = mp.quad(
                lambda s: spiral_box_wavefunction(spec, m, float(s))
                * spiral_box_wavefunction(spec, n, float(s)),
                [0, 1],
            )
            assert abs(overlap) <= 1e-8


def test_wavefunction_reduces_to_sine_for_half_order():
    # omega = 1/2 turns sqrt(s) J_{1/2}(j_n s / L) into sin(n pi s / L)
    length = 2.0
    spec = spiral_box_spectrum(math.inf, length, 1.0, 3)
    assert spec.omega == 0.5
    for n in (1, 2, 3):
        for s in np.linspace(0.0, length, 40):
            s = float(s)
            expected = math.sqrt(2.0 / length) * math.sin(n * math.pi * s / length)
            assert spiral_box_wavefunction(spec, n, s) == pytest.approx(expected, abs=1e-8)


def test_normalization_constant_identity():
    # sqrt(2)/(L sqrt(-J_{w-1} J_{w+1})) evaluated at the zero equals
    # sqrt(2)/(L |J_{w+1}|); both feed the same amplitude
    for sigma_sq, _ in OMEGA_TABLE:
        spec = spiral_box_spectrum(math.sqrt(sigma_sq), 1.0, 1.0, 2)
        w = spec.omega
        for n in (1, 2):
            j = spec.zero(n)
            product_form = math.sqrt(2.0) / (
                spec.box_length
                * math.sqrt(-specfun.bessel_j(w - 1.0, j) * specfun.bessel_j(w + 1.0, j))
            )
            assert spiral_box_normalization(spec, n) == pytest.approx(product_form, rel=1e-10)


def test_wave_amplitude_depends_on_level():
    spec = spiral_box_spectrum(math.sqrt(0.004), 1.0, 1.0, 5)
    grid = np.linspace(0.0, 1.0, 2001)
    peaks = [
        max(abs(spiral_box_wavefunction(spec, n, float(s))) for s in grid) for n in range(1, 6)
    ]
    for a, b in zip(peaks, peaks[1:]):
        assert abs(a - b) > 1e-6


def test_wavefunction_domain():
    spec = spiral_box_spectrum(0.5, 1.0, 1.0, 2)
    with pytest.raises(ValueError):
        spiral_box_wavefunction(spec, 1, -0.1)
    with pytest.raises(ValueError):
        spiral_box_wavefunction(spec, 1, 1.1)
    with pytest.raises(IndexError):
        spiral_box_wavefunction(spec, 3, 0.5)


# --- particle in a box -------------------------------------------------------------


def test_pib_one_nm_box():
    length = nm_to_bohr(1.0)
    energy_ev = hartree_to_ev(pib_open_energy(1, length, 1.0))
    assert energy_ev == pytest.approx(0.376, abs=5e-4)


def test_pib_quadratic_scaling():
    for n in (1, 2, 5):
        assert pib_open_energy(2 * n, 1.0, 1.0) == pytest.approx(
            4.0 * pib_open_energy(n, 1.0, 1.0), rel=1e-14
        )
    assert pib_open_energy(1, 2.0, 1.0) == pytest.approx(
        pib_open_energy(1, 1.0, 1.0) / 4.0, rel=1e-14
    )


def test_pib_closed_is_exactly_four_times_open():
    for n, length, mass in ((1, 1.0, 1.0), (3, 2.5, 0.4), (7, 11.0, 2.0)):
        assert pib_closed_energy(n, length, mass) == 4.0 * pib_open_energy(n, length, mass)


def test_pib_matches_angular_frequency_form():
    # h^2 n^2 / (8 m L^2) == pi^2 hbar^2 n^2 / (2 m L^2) with h = 2 pi hbar
    for n in (1, 4):
        assert pib_open_energy(n, 3.0, 1.2) == pytest.approx(
            math.pi**2 * n * n / (2.0 * 1.2 * 9.0), rel=1e-14
        )


def test_pib_validation():
    with pytest.raises(ValueError):
        pib_open_energy(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        pib_open_energy(1, 1.0, -1.0)


# --- transition wavelengths ----------------------------------------------------------


def test_transition_wavelength_times_energy_is_hc():
    box = ParticleInBox(nm_to_bohr(1.39), 1.0)
    for n in (1, 4):
        lam = transition_wavelength(box, n)
        delta_ev = hartree_to_ev(box.energy(n + 1) - box.energy(n))
        assert lam * delta_ev == pytest.approx(HC_EV_NM, rel=1e-12)


def test_transition_wavelength_scalings():
    base = transition_wavelength(ParticleInBox(10.0, 1.0), 2)
    assert transition_wavelength(ParticleInBox(10.0, 2.0), 2) == pytest.approx(
        2.0 * base, rel=1e-12
    )
    assert transition_wavelength(ParticleInBox(20.0, 1.0), 2) == pytest.approx(
        4.0 * base, rel=1e-12
    )
    # lambda ~ 1/(2n+1) at fixed L, m
    lam2 = transition_wavelength(ParticleInBox(10.0, 1.0), 3)
    assert lam2 / base == pytest.approx(5.0 / 7.0, rel=1e-12)


def test_spiral_transition_equals_box_at_half_order():
    length = 25.0
    spec = spiral_box_spectrum(math.inf, length, 1.0, 4)
    box = ParticleInBox(length, 1.0)
    for n in (1, 3):
        assert transition_wavelength(spec, n) == pytest.approx(
            transition_wavelength(box, n), rel=1e-11
        )


def test_one_hartree_transition():
    class Linear:
        def energy(self, n: int) -> float:
            return float(n)

    lam = transition_wavelength(Linear(), 1)
    assert lam == pytest.approx(45.563, abs=5e-4)
    assert lam == pytest.approx(HC_EV_NM / HARTREE_EV, rel=1e-14)


def test_transition_rejects_degenerate_levels():
    class Flat:
        def energy(self, n: int) -> float:
            return 1.0

    with pytest.raises(ValueError):
        transition_wavelength(Flat(), 1)


def test_transition_gap_beyond_the_ev_range_is_refused():
    class Steep:
        def __init__(self, step: float):
            self.step = step

        def energy(self, n: int) -> float:
            return self.step * n

    # 1e307 Hartree is about 2.7e308 eV: hc / inf would read as a 0 nm wavelength
    with pytest.raises(ValueError, match="overflows in eV"):
        transition_wavelength(Steep(1e307), 1)
    # a gap that still fits keeps the plain formula
    assert transition_wavelength(Steep(1e306), 1) == HC_EV_NM / (1e306 * HARTREE_EV)


# --- 1D hydrogen bound states -------------------------------------------------------


def test_hydrogen_1d_normalization_matches_closed_form():
    # int_0^inf psi^2 ds = B^2 N^3 a0 for psi = B exp(-z/2) z L_{N-1}^(1)(z)
    def normalization(n, a0=1.0):
        s = 0.7 * n * a0
        z = 2.0 * s / (n * a0)
        return hydrogen_wavefunction_1d(n, s, a0) / (
            math.exp(-0.5 * z) * z * specfun.laguerre(n - 1, 1.0, z)
        )

    for n in (1, 2, 3, 4):
        assert normalization(n) == pytest.approx(1.0 / math.sqrt(n**3), rel=1e-10)
    assert normalization(2, a0=3.0) == pytest.approx(1.0 / math.sqrt(8.0 * 3.0), rel=1e-10)


def test_hydrogen_1d_norm_verified_independently():
    s = np.linspace(1e-9, 150.0, 300_001)
    vals = hydrogen_wavefunction_1d(3, s)
    assert np.trapezoid(vals**2, s) == pytest.approx(1.0, abs=1e-6)


def test_hydrogen_1d_ground_state_is_nodeless():
    s = np.linspace(1e-6, 40.0, 4000)
    vals = hydrogen_wavefunction_1d(1, s)
    assert np.all(vals > 0.0)
    # single interior maximum
    peaks = np.sum((vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:]))
    assert peaks == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hydrogen_1d_node_count(n):
    s = np.linspace(1e-6, 60.0 * n, 20_000)
    vals = hydrogen_wavefunction_1d(n, s)
    signs = np.sign(vals)
    changes = int(np.sum(signs[:-1] * signs[1:] < 0))
    assert changes == n - 1


def test_hydrogen_1d_domain():
    for bad_s in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            hydrogen_wavefunction_1d(1, bad_s)
        with pytest.raises(ValueError, match=repr(bad_s)):
            hydrogen_wavefunction_1d(1, np.array([1.0, bad_s]))
    with pytest.raises(ValueError):
        hydrogen_wavefunction_1d(0, 1.0)
    for bad_a0 in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            hydrogen_wavefunction_1d(1, 1.0, bad_a0)
        with pytest.raises(ValueError):
            hydrogen_radial_3d(1, 0, 1.0, bad_a0)


def test_hydrogen_past_the_decay_shift_cap_is_zero():
    # past z/2 = 2^21 ln 2 every value underflows: z^ell raised OverflowError
    # at r = 1e200, and L passed the float range where z = 2r/(n a0) did
    assert hydrogen_radial_3d(3, 2, 1e200) == 0.0
    assert hydrogen_wavefunction_1d(3, 1e300, 1e-10) == 0.0  # z = inf
    r = np.array([1.45e6, 1.46e6, 1e200, 1e308])  # z/2 = r at n = a0 = 1
    for ell in (0, 2):
        assert np.all(hydrogen_radial_3d(3 + ell, ell, r, 1.0 / (3 + ell)) == 0.0)
    assert np.all(hydrogen_wavefunction_1d(1, r) == 0.0)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("n", [1, 3, 14, 180, 241, 1000])
def test_hydrogen_of_an_array_equals_its_single_points_bit_for_bit(n):
    # the CLI's grid out to s = 4 n^2 a0, where from n = 178 exp(-z/2) is
    # carried as a power of two and a mantissa, and from n = 120 so is L
    for a0 in (0.5, 1.3):
        top = 4.0 * n * n * a0
        s = np.linspace(top / 400, top, 400)[:: max(1, n // 25)]  # a scalar call costs n steps
        got = hydrogen_wavefunction_1d(n, s, a0)
        assert isinstance(got, np.ndarray) and got.shape == s.shape
        assert _bits(got) == _bits([hydrogen_wavefunction_1d(n, float(v), a0) for v in s])
        for ell in sorted({0, min(n - 1, 2), min(n - 1, 9)}):
            got = hydrogen_radial_3d(n, ell, s.reshape(1, -1), a0)
            assert got.shape == (1, s.size)
            want = [hydrogen_radial_3d(n, ell, float(v), a0) for v in s]
            assert _bits(got.ravel()) == _bits(want)


# --- 3D radial functions and the density equivalence ---------------------------------


def test_radial_ground_state_shape():
    # R_10 is proportional to exp(-r/a0); amplitude 2/a0^(3/2)
    for r in (0.1, 0.5, 1.0, 3.0):
        assert hydrogen_radial_3d(1, 0, r) == pytest.approx(2.0 * math.exp(-r), rel=1e-9)


def test_radial_orthogonality():
    r = np.linspace(1e-9, 120.0, 400_001)
    r10 = hydrogen_radial_3d(1, 0, r)
    r20 = hydrogen_radial_3d(2, 0, r)
    assert abs(np.trapezoid(r * r * r10 * r20, r)) <= 1e-6


def test_radial_validation():
    with pytest.raises(ValueError):
        hydrogen_radial_3d(2, 2, 1.0)
    with pytest.raises(ValueError):
        hydrogen_radial_3d(2, 0, 0.0)


def test_radial_norm_overflow_names_n_and_ell_not_a0():
    # (n+ell)!/(n-ell-1)! passes the float range whatever a0 is
    for n, ell, a0 in ((120, 109, 6.87), (195, 185, 0.81)):
        with pytest.raises(ValueError, match=f"n = {n}, ell = {ell}") as err:
            hydrogen_radial_3d(n, ell, 1.0, a0)
        assert "a0" not in str(err.value)
    # a0 alone still names a0
    with pytest.raises(ValueError, match="at a0 = 1e-300"):
        hydrogen_radial_3d(1, 0, 1.0, 1e-300)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_density_equivalence_1d_vs_3d(n):
    # |psi_1d(s)|^2 equals s^2 R_{n,0}(s)^2 point by point once both are
    # normalized; sample across the full classically relevant range
    s_values = np.geomspace(0.02, 8.0 * n * n, 100)
    p1 = hydrogen_wavefunction_1d(n, s_values) ** 2
    p3 = s_values * s_values * hydrogen_radial_3d(n, 0, s_values) ** 2
    assert np.allclose(p1, p3, rtol=1e-8, atol=1e-13 * float(np.max(p1)))


# --- closed-form hydrogen norms at large n --------------------------------------------


def _mp_radial(n, ell, a0, r):
    z = 2 * mp.mpf(r) / (n * mp.mpf(a0))
    norm = mp.sqrt(
        (2 / (n * mp.mpf(a0))) ** 3 * mp.factorial(n - ell - 1) / (2 * n * mp.factorial(n + ell))
    )
    return norm * mp.exp(-z / 2) * z**ell * mp.laguerre(n - ell - 1, 2 * ell + 1, z)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 14, 20, 30, 45, 60])
def test_hydrogen_closed_forms_match_mpmath(n):
    # both norms against mpmath's factorials and Laguerre polynomials, on the
    # whole range a CLI run samples (s up to 4 n^2 a0 by default)
    for a0 in (1.0, 1.3):
        r_values = np.linspace(0.05 * a0, 3.0 * n * n * a0, 40)
        for ell in range(min(n, 4)):
            want = [_mp_radial(n, ell, a0, float(r)) for r in r_values]
            peak = float(max(abs(w) for w in want))
            for r, w in zip(r_values, want):
                got = hydrogen_radial_3d(n, ell, float(r), a0)
                assert abs(got - float(w)) <= 1e-10 * peak, (n, ell, a0, r)
        want = []
        for s in r_values:
            z = 2 * mp.mpf(s) / (n * a0)
            want.append(mp.exp(-z / 2) * z * mp.laguerre(n - 1, 1, z) / mp.sqrt(n**3 * a0))
        peak = float(max(abs(w) for w in want))
        for s, w in zip(r_values, want):
            assert abs(hydrogen_wavefunction_1d(n, float(s), a0) - float(w)) <= 1e-10 * peak


@pytest.mark.parametrize("n,ell", [(30, 0), (40, 2), (60, 3)])
def test_radial_norm_by_mpmath_quadrature(n, ell):
    # r^2 R^2 has decayed below 1e-300 of its peak by r = 10 n^2 a0; one
    # subinterval per node keeps tanh-sinh on smooth pieces
    edges = np.linspace(0.0, 10.0 * n * n, n + 1).tolist()
    total = mp.quad(lambda r: float(r) ** 2 * hydrogen_radial_3d(n, ell, float(r)) ** 2, edges)
    assert float(total) == pytest.approx(1.0, abs=1e-10)


def _mp_state_1d(n, a0, s):
    z = 2 * mp.mpf(s) / (n * mp.mpf(a0))
    return mp.exp(-z / 2) * z * mp.laguerre(n - 1, 1, z) / mp.sqrt(n**3 * mp.mpf(a0))


def test_hydrogen_closed_forms_match_mpmath_at_seeded_states():
    # seeded n over 1..241 (the largest n whose samples stay finite at the
    # CLI's default s up to 4 n^2 a0), ell below 40, a0 over [e^-3, e^3];
    # the error is measured against the largest |value| of a 400-point
    # sample of the state.  The bound is the worst of these 24 points,
    # 3.5e-15, rounded up; 120 seeded states gave 5.4e-15
    rng = np.random.default_rng(20261022)
    for i in range(8):
        n = int(rng.integers(1, 242))
        a0 = float(math.exp(rng.uniform(-3.0, 3.0)))
        ell = int(rng.integers(0, min(n, 40))) if i % 2 else 0
        if i % 2:
            got = lambda r: hydrogen_radial_3d(n, ell, r, a0)
            want = lambda r: _mp_radial(n, ell, a0, r)
        else:
            got = lambda r: hydrogen_wavefunction_1d(n, r, a0)
            want = lambda r: _mp_state_1d(n, a0, r)
        top = 4.0 * n * n * a0
        peak = np.abs(got(np.linspace(top / 400, top, 400))).max()
        for r in rng.uniform(0.0, top, 3):
            with mp.workdps(40):
                assert abs(got(float(r)) - want(float(r))) <= 4e-15 * peak, (n, ell, a0, r)


@pytest.mark.parametrize(
    "n,ell,a0",
    [(242, None, 1.0), (1000, None, 0.6), (10000, None, 1.3), (563, 35, 10.7), (3820, 37, 2.85)],
)
def test_hydrogen_closed_forms_past_n_241_match_mpmath(n, ell, a0):
    # exp(-z/2), z^ell and L pass the float range apart from each other
    # (exp(-z/2) from n = 178, z^37 L at n = 3820 near z = 22 000), not
    # their product; ell = None is the 1D state.  The bound is 1e-12 of the
    # state's peak over a 400-point sample out to 4 n^2 a0; 56 seeded states
    # over n in [242, 10000] gave at most 1.6e-13 (1D) and 5.3e-13 (3D)
    if ell is None:
        got = lambda r: hydrogen_wavefunction_1d(n, r, a0)
        want = lambda r: _mp_state_1d(n, a0, r)
    else:
        got = lambda r: hydrogen_radial_3d(n, ell, r, a0)
        want = lambda r: _mp_radial(n, ell, a0, r)
    top = 4.0 * n * n * a0
    peak = np.abs(got(np.linspace(top / 400, top, 400))).max()
    rng = np.random.default_rng(n)
    for r in [*rng.uniform(0.0, top / 2, 3), 0.9 * top]:
        with mp.workdps(40):
            assert abs(got(float(r)) - want(float(r))) <= 1e-12 * peak, (n, ell, a0, r)


def test_wavefunction_norm_matches_lommels_integral():
    # int_0^L psi_n^2 ds = c1^2 L^2 (J_w'(j)^2 + (1 - w^2/j^2) J_w(j)^2) / 2
    # (Lommel), in mpmath at our zero j_n and our c1, so the zero's error
    # counts too.  Seeded sigma in [3e-4, 10] (omega up to about 1600, where
    # mpmath stays fast), n up to 150 at omega < 30.  The bound is the worst
    # of these 16 points, 1.5e-13, rounded up; 100 seeded points over
    # omega <= 1e4 gave 1.5e-12, growing with omega
    rng = np.random.default_rng(20261023)
    for _ in range(16):
        sigma = float(math.exp(rng.uniform(math.log(3e-4), math.log(10.0))))
        length = float(math.exp(rng.uniform(-3.0, 3.0)))
        n = int(rng.integers(1, 151 if omega_from_sigma(sigma) < 30.0 else 6))
        spec = spiral_box_spectrum(sigma, length, 1.0, n)
        c1, j = spiral_box_normalization(spec, n), spec.zero(n)
        with mp.workdps(30):
            w, x = mp.mpf(spec.omega), mp.mpf(j)
            bessel = mp.besselj(w, x, maxprec=60000)
            slope = mp.besselj(w, x, derivative=1, maxprec=60000)
            norm = (c1 * length) ** 2 * (slope**2 + (1 - w**2 / x**2) * bessel**2) / 2
            assert abs(norm - 1) <= 2e-13, (sigma, n)
