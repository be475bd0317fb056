"""Expected values computed apart from spiralbox, in mpmath at 30 digits.

Bessel zeros come from mpmath.besseljzero and Laguerre polynomials from
mpmath.laguerre; the unit constants are CODATA 2018, written out here rather
than read from spiralbox.quantum.UnitSystem.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30

HARTREE_EV = mp.mpf("27.211386245988")
HC_EV_NM = mp.mpf("1239.841984")
BOHR_NM = mp.mpf("0.0529177210903")
PLANCK = 2 * mp.pi  # h in Hartree atomic units


def omega(sigma: float) -> mp.mpf:
    """Bessel order sqrt(|1 - 1/sigma^2|) / 2 of the p = 1 spiral box."""
    s = mp.mpf(sigma)
    return mp.sqrt(abs(1 - 1 / (s * s))) / 2


def zero(order, n: int) -> mp.mpf:
    """n-th positive zero of J_order."""
    return mp.besseljzero(mp.mpf(order), n)


def levels(sigma: float, length: float, mass: float, count: int) -> list[mp.mpf]:
    """Spiral-box energies j_{omega,n}^2 / (2 m L^2), n = 1..count, in Hartree."""
    w = omega(sigma)
    pref = 1 / (2 * mp.mpf(mass) * mp.mpf(length) ** 2)
    return [pref * zero(w, n) ** 2 for n in range(1, count + 1)]


def wavelength_nm(sigma: float, n_pi: int, length_nm: float, mass: float = 1.0) -> mp.mpf:
    """HOMO -> LUMO wavelength hc / (E_{n+1} - E_n), n = n_pi / 2."""
    n = n_pi // 2
    e = levels(sigma, mp.mpf(length_nm) / BOHR_NM, mass, n + 1)
    return HC_EV_NM / ((e[n] - e[n - 1]) * HARTREE_EV)


def effective_mass(n_pi: int, length_nm: float, lambda_nm: float) -> mp.mpf:
    """Straight-box mass with h^2 (2n+1) / (8 m L^2) = hc / lambda."""
    n = n_pi // 2
    length = mp.mpf(length_nm) / BOHR_NM
    delta_e = HC_EV_NM / mp.mpf(lambda_nm) / HARTREE_EV
    return PLANCK**2 * (2 * n + 1) / (8 * length**2 * delta_e)


def box_wavefunction(sigma: float, length: float, n: int, s_values) -> list[mp.mpf]:
    """c1 sqrt(s) J_omega(j_n s / L) with c1 = sqrt(2) / (L |J_{omega+1}(j_n)|)."""
    w = omega(sigma)
    j = zero(w, n)
    L = mp.mpf(length)
    c1 = mp.sqrt(2) / (L * abs(mp.besselj(w + 1, j)))
    return [c1 * mp.sqrt(s) * mp.besselj(w, j * mp.mpf(s) / L) for s in s_values]


def hydrogen_psi(n: int, a0: float, s_values) -> list[mp.mpf]:
    """Closed-form 1D bound state exp(-z/2) z L^(1)_{n-1}(z) / sqrt(n^3 a0)."""
    a = mp.mpf(a0)
    norm = 1 / mp.sqrt(mp.mpf(n) ** 3 * a)
    out = []
    for s in s_values:
        z = 2 * mp.mpf(s) / (n * a)
        out.append(norm * mp.exp(-z / 2) * z * mp.laguerre(n - 1, 1, z))
    return out
