"""Closed-form quantum mechanics layer.

Covers the curvature-induced potential -hbar^2 k^2 / (8 m), at one k or an
array of them (the literal-mode oracle discretizes it), the Bessel order
omega of sigma and back, the Dirichlet spectrum of the inverse-square problem
on a spiral box (Bessel zeros) and its eigenfunctions, the straight
particle-in-a-box levels, transition wavelengths, and the 1D hydrogen bound
states with their 3D radial functions and densities.

All internal arithmetic is in Hartree atomic units (hbar = m_e = 1);
electron-volts and nanometers enter only through the module constants
HARTREE_EV, HC_EV_NM and BOHR_NM.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun

__all__ = [
    "HARTREE_EV",
    "HC_EV_NM",
    "BOHR_NM",
    "nm_to_bohr",
    "hartree_to_ev",
    "MAX_LEVELS",
    "SpiralBoxSpectrum",
    "geometry_induced_potential",
    "omega_from_sigma",
    "sigma_from_omega",
    "spiral_box_spectrum",
    "spiral_box_normalization",
    "spiral_box_wavefunction",
    "pib_open_energy",
    "transition_wavelength",
    "hydrogen_wavefunction_1d",
    "hydrogen_radial_3d",
    "hydrogen_radial_density",
]


# conversion constants, CODATA 2018
HARTREE_EV = 27.211386245988
HC_EV_NM = 1239.841984
BOHR_NM = 0.0529177210903


def nm_to_bohr(length_nm: float) -> float:
    """Length in bohr of `length_nm` nanometers."""
    return length_nm / BOHR_NM


def hartree_to_ev(energy: float) -> float:
    """Energy in eV of `energy` Hartree (a float or an array)."""
    return energy * HARTREE_EV


def geometry_induced_potential(k: float | np.ndarray, mass: float) -> float | np.ndarray:
    """Potential -hbar^2 k^2 / (8 m) felt by a particle bound to a curve of
    curvature k, at one k or an array of them; an error names the first k at
    which it overflows."""
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    flat = np.asarray(k, dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        # k/m first: k^2 and 8 m can leave the float range where the potential does not
        value = -(flat / mass) * flat / 8.0
    bad = flat[~np.isfinite(value)]
    if bad.size:
        raise ValueError(f"the potential overflows at k = {bad[0].item()!r}, mass = {mass!r}")
    return specfun.shaped_like(value, k)


def omega_from_sigma(sigma: float) -> float:
    """Bessel order omega = sqrt(|1 - 1/sigma^2|) / 2 of the spiral-box problem."""
    sq = sigma * sigma
    if not (sigma > 0.0 and sq > 0.0 and 1.0 / sq < math.inf):
        raise ValueError(f"sigma must be positive and 1/sigma^2 must be finite, got {sigma!r}")
    return 0.5 * math.sqrt(abs(1.0 - 1.0 / sq))


def sigma_from_omega(omega: float) -> float:
    """sigma = 1/sqrt(1 + 4 omega^2) <= 1 of Bessel order omega: the branch of
    omega_from_sigma that the fit reports (0 where 4 omega^2 overflows)."""
    return 1.0 / math.sqrt(1.0 + 4.0 * omega * omega)


@dataclass(frozen=True)
class SpiralBoxSpectrum:
    """Dirichlet levels E_n = hbar^2 j_{omega,n}^2 / (2 m L^2) on [0, L]."""

    omega: float
    box_length: float
    zeros: tuple[float, ...]
    energies: tuple[float, ...]

    @property
    def n_levels(self) -> int:
        return len(self.energies)

    def energy(self, n: int) -> float:
        if not 1 <= n <= self.n_levels:
            raise IndexError(f"level index {n} outside 1..{self.n_levels}")
        return self.energies[n - 1]

    def zero(self, n: int) -> float:
        if not 1 <= n <= self.n_levels:
            raise IndexError(f"level index {n} outside 1..{self.n_levels}")
        return self.zeros[n - 1]


# one level a Bessel zero, and the zero scan's cap bounds its cost
MAX_LEVELS = specfun.MAX_ZEROS


def spiral_box_spectrum(
    sigma: float, box_length: float, mass: float, n_levels: int
) -> SpiralBoxSpectrum:
    """Spectrum of the spiral box with curvature k = 1/(sigma * s), length L.

    At most MAX_LEVELS levels are computed; more are refused with ValueError.
    """
    if box_length <= 0.0 or mass <= 0.0 or n_levels < 1:
        raise ValueError("box_length, mass and n_levels must all be positive")
    omega = omega_from_sigma(sigma)
    zeros = specfun.bessel_j_zeros(omega, n_levels)
    scale = 2.0 * mass * box_length * box_length
    # 2 m L^2 past the float range would make every energy 0
    pref = 1.0 / scale if 0.0 < scale < math.inf else math.inf
    energies = tuple(pref * j * j for j in zeros)
    if not math.isfinite(energies[-1]):
        raise ValueError(f"energies leave the float range at mass = {mass!r}, L = {box_length!r}")
    return SpiralBoxSpectrum(omega=omega, box_length=box_length, zeros=zeros, energies=energies)


def spiral_box_normalization(spectrum: SpiralBoxSpectrum, n: int) -> float:
    """Normalization c1 of psi_n = c1 sqrt(s) J_omega(j_n s / L).

    Evaluated as sqrt(2) / (L |J_{omega+1}(j_n)|), which at a zero of
    J_omega equals the recurrence form sqrt(2)/(L sqrt(-J_{omega-1} J_{omega+1}))
    while staying inside non-negative orders for omega < 1.  At that zero
    |J_{omega-1}| = |J_{omega+1}|, so the lower order stands in where the
    upper one passes specfun.MAX_ORDER.
    """
    j = spectrum.zero(n)
    order = spectrum.omega + 1.0
    if order > specfun.MAX_ORDER:
        order -= 2.0
    return math.sqrt(2.0) / (spectrum.box_length * abs(specfun.bessel_j(order, j)))


def spiral_box_wavefunction(
    spectrum: SpiralBoxSpectrum, n: int, s: float | np.ndarray
) -> float | np.ndarray:
    """Normalized eigenfunction psi_n(s) on 0 <= s <= L.

    A list, tuple or array of s gives the array of values, computed in one
    pass over the grid with the normalization computed once; each equals the
    value of its single point.
    """
    length = spectrum.box_length
    points = np.asarray(s, dtype=float).reshape(-1)
    outside = points[~((0.0 <= points) & (points <= length * (1.0 + 1e-12)))]
    if outside.size:
        raise ValueError(f"s = {outside[0].item()!r} outside the box [0, {length!r}]")
    j = spectrum.zero(n)
    c1 = spiral_box_normalization(spectrum, n)
    with np.errstate(over="ignore"):  # bessel_j refuses x = inf
        x = j * np.minimum(points, length) / length
    bessel = specfun.bessel_j(spectrum.omega, x)
    with np.errstate(over="ignore", invalid="ignore"):  # callers check the values
        values = np.where(points == 0.0, 0.0, c1 * np.sqrt(points) * bessel)
    return specfun.shaped_like(values, s)


def pib_open_energy(n: int, box_length: float, mass: float) -> float:
    """Level h^2 n^2 / (8 m L^2) of the straight box with hard walls."""
    if n < 1 or box_length <= 0.0 or mass <= 0.0:
        raise ValueError("n, box_length and mass must all be positive")
    h = 2.0 * math.pi  # Planck constant in atomic units
    scale = 8.0 * mass * box_length * box_length
    # 8 m L^2 past the float range would make the level 0
    energy = h * h * n * n / scale if 0.0 < scale < math.inf else math.inf
    if not math.isfinite(energy):
        raise ValueError(f"the level leaves the float range at L = {box_length!r}, mass = {mass!r}")
    return energy


def transition_wavelength(lower: float, upper: float) -> float:
    """Photon wavelength hc / (upper - lower) in nanometers, energies in Hartree.

    A gap too large to express in eV (the wavelength would be below about
    7e-306 nm), or too small for its wavelength to be a float (below about
    2.5e-307 Hartree), is refused with ValueError.
    """
    delta = upper - lower
    if not delta > 0.0:
        raise ValueError(f"need lower < upper, got {lower!r} and {upper!r} Hartree")
    delta_ev = hartree_to_ev(delta)
    if not math.isfinite(delta_ev):
        raise ValueError(f"the transition energy {delta!r} Hartree overflows in eV")
    if not math.isfinite(HC_EV_NM / delta_ev):
        raise ValueError(f"the wavelength of a {delta!r} Hartree gap overflows in nm")
    return HC_EV_NM / delta_ev


# --- 1D hydrogen along the p = 1/2 spiral and the 3D radial comparison ----
#
# Both normalizations follow from the Laguerre identity (DLMF 18.17)
#   int_0^inf x^(a+1) e^-x [L_k^(a)(x)]^2 dx = (k+a)!/k! (2k+a+1).

# exp(-h) past h = 708.39, below the normal floats, is taken as 2^-k exp(k ln 2 - h),
# with ln 2 = _LN2_HI + _LN2_LO split as in fdlibm: _LN2_HI has 32 significant
# bits, so k _LN2_HI is exact up to k = 2^21 (h = 1.45e6).  Past that h every
# value of degree below 1e5 underflows, and k stops at 2^21.
_NORMAL_EXP = -math.log(sys.float_info.min)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_SHIFT_MAX = 2.0**21 * _LN2_HI


def _hydrogen_raw(n: int, ell: int, a0: float, r: float | np.ndarray) -> tuple:
    """z = 2r/(n a0) and exp(-z/2) z^ell L_{n-ell-1}^(2 ell+1)(z), unnormalized, at
    every point of r, the latter as a mantissa and a power of two.

    L comes as m 2^e, exp(-z/2) as 2^-k exp(k ln 2 - z/2) and z^ell as m^ell
    2^(e ell) with z = m 2^e; the mantissas of the three factors are
    multiplied and their powers of two summed, for `_joined` to join.  Where
    z/2 passes _SHIFT_MAX, z and the value are 0.
    """
    if not 0 <= ell < n:
        raise ValueError(f"need n >= 1 and 0 <= ell < n, got n = {n}, ell = {ell}")
    if not (math.isfinite(a0) and a0 > 0.0):
        raise ValueError(f"a0 must be finite and positive, got {a0!r}")
    points = np.asarray(r, dtype=float).reshape(-1)
    bad = points[~((0.0 < points) & (points < math.inf))]
    if bad.size:
        raise ValueError(f"positions must be finite and positive, got {bad[0].item()!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan is past _SHIFT_MAX
        z = 2.0 * points / (n * a0)
    # past _SHIFT_MAX every value underflows: z = 0 stands in, and the value is 0
    far = ~(0.5 * z <= _SHIFT_MAX)
    z = np.where(far, 0.0, z)
    lag, lag_exp = specfun.laguerre(n - ell - 1, 2.0 * ell + 1.0, z)
    half = 0.5 * z
    shift = np.where(half > _NORMAL_EXP, np.floor(half / _LN2_HI), 0.0)
    reduced = (shift * _LN2_HI - half) + shift * _LN2_LO
    decay, decay_exp = np.frexp(specfun.pointwise(math.exp, reduced))
    # ell <= 84 wherever R's normalization is a float, so m^ell >= 2^-84 stays normal
    base, base_exp = np.frexp(z)
    power, power_exp = np.frexp(specfun.pointwise(pow, base, ell))
    mantissa = np.where(far, 0.0, decay * power * lag)
    return z, mantissa, decay_exp + power_exp + ell * base_exp + lag_exp - shift.astype(np.int64)


def _joined(n: int, r: float | np.ndarray, mantissa: np.ndarray, exponent: np.ndarray):
    """mantissa 2^exponent in one `ldexp`, so a value overflows or underflows
    only where the true value does; a value that overflows is refused."""
    with np.errstate(over="ignore"):  # refused below
        value = np.ldexp(mantissa, exponent)
    bad = np.asarray(r, dtype=float).reshape(-1)[~np.isfinite(value)]
    if bad.size:
        raise ValueError(f"hydrogen state n = {n} overflows at r = {bad[0].item()!r}")
    return value


def _quarters(x: float) -> tuple[float, int]:
    """(a, k) with x = a 4^k and a in [0.5, 2), so that sqrt(x) = sqrt(a) 2^k."""
    k = math.frexp(x)[1] // 2
    return math.ldexp(x, -2 * k), k


def hydrogen_wavefunction_1d(n: int, s: float | np.ndarray, a0: float = 1.0):
    """Normalized 1D bound state psi_N = B exp(-z/2) z L_{N-1}^(1)(z), z = 2s/(N a0),
    at arc length s > 0; int psi^2 ds = 1 gives B = 1/sqrt(N^3 a0) = 2^-k / sqrt(N^3 a)
    with a0 = a 4^k, whose power of two joins the value's own.
    """
    z, mantissa, exponent = _hydrogen_raw(n, 0, a0, s)
    a, k = _quarters(a0)
    values = _joined(n, s, 1.0 / math.sqrt(n**3 * a) * z * mantissa, exponent - k)
    return specfun.shaped_like(values, s)


def _radial_parts(n: int, ell: int, r: float | np.ndarray, a0: float) -> tuple:
    """R_{n,ell} at every point of r as a mantissa and a power of two.

    N^2 = (2/(n a0))^3 / (2n (n+ell)!/(n-ell-1)!); the factorial ratio is a
    product of 2 ell + 1 integers, exact in floating point.  With a0 = a 4^k
    and 2n (n+ell)!/(n-ell-1)! = b 4^j, N is that of a and b times
    2^-(3k+j), and that power of two joins the value's own.
    """
    _, mantissa, exponent = _hydrogen_raw(n, ell, a0, r)
    ratio = math.prod(range(n - ell, n + ell + 1))
    if 2 * n * ratio > sys.float_info.max:
        raise ValueError(f"(n+ell)!/(n-ell-1)! overflows the normalization at n = {n}, ell = {ell}")
    (a, k), (b, j) = _quarters(a0), _quarters(2.0 * n * ratio)
    norm = math.sqrt((2.0 / (n * a)) ** 3 / b)
    return norm * mantissa, exponent - 3 * k - j


def hydrogen_radial_3d(n: int, ell: int, r: float | np.ndarray, a0: float = 1.0):
    """Radial function R_{n,ell}(r), normalized so that int r^2 R^2 dr = 1."""
    return specfun.shaped_like(_joined(n, r, *_radial_parts(n, ell, r, a0)), r)


def hydrogen_radial_density(n: int, ell: int, r: float | np.ndarray, a0: float = 1.0):
    """Radial probability density r^2 R_{n,ell}(r)^2, formed from the mantissas
    and powers of two of r and R, so that it leaves the float range only where
    the true density does, also where r^2 or R alone would."""
    mantissa, exponent = _radial_parts(n, ell, r, a0)
    base, base_exp = np.frexp(np.asarray(r, dtype=float).reshape(-1))
    density = _joined(n, r, base * base * mantissa * mantissa, 2 * (base_exp + exponent))
    return specfun.shaped_like(density, r)
