"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.
"""

import math
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest

from oracles import curvature_of_samples
from spiralbox import fdsolver, specfun
from spiralbox.geometry import (
    CurvatureLaw,
    PlaneCurveSamples,
    frenet_integrate,
    hydrogen_curve,
    polyene_curve,
)
from spiralbox.polyene import Molecule, fit_effective_mass, fit_sigma, lambda_model
from spiralbox.quantum import (
    hydrogen_radial_3d,
    hydrogen_wavefunction_1d,
    nm_to_bohr,
    omega_from_sigma,
    pib_open_energy,
    spiral_box_normalization,
    spiral_box_spectrum,
    spiral_box_wavefunction,
    transition_wavelength,
)

SIGMA_SQ_TABLE = (0.004, 0.0014, 0.0009, 0.00045)
OMEGA_TABLE = (7.88987, 13.35370, 16.65920, 23.56490)

MOLECULES = [
    Molecule("deca-2,4,6,8-tetraene", 8, 1.390, source="acceptance"),
    Molecule("dodeca-2,4,6,8,10-pentaene", 10, 1.668, source="acceptance"),
    Molecule("tetradeca-2,4,6,8,10,12-hexaene", 12, 1.946, source="acceptance"),
    Molecule("hexadeca-2,4,6,8,10,12,14-heptaene", 14, 2.224, source="acceptance"),
]


@contextmanager
def criterion(label: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_criterion_1_omega_table():
    with criterion("1 omega values for the four polyene sigmas (5 significant figures)"):
        for sigma_sq, expected in zip(SIGMA_SQ_TABLE, OMEGA_TABLE):
            got = omega_from_sigma(math.sqrt(sigma_sq))
            assert float(f"{got:.6g}") == pytest.approx(expected, rel=1e-5)


def test_criterion_2_oracle_equivalence():
    with criterion("2 Richardson-refined FD spectrum matches Bessel zeros"):
        for omega in (0.3, 0.5, 7.88987, 23.56490):
            rtol = 1e-4 if omega == 0.5 else 1e-3
            coeff = omega * omega - 0.25
            refined = fdsolver.richardson_refine(
                lambda s: coeff / (s * s), 1.0, 3, 10_000
            )
            zeros = specfun.bessel_j_zeros(omega, 3)
            for n in (1, 2, 3):
                analytic = zeros[n - 1] ** 2
                assert refined[n - 1] == pytest.approx(analytic, rel=rtol)


def test_criterion_3_box_reduction():
    with criterion("3 huge-sigma spectrum reduces to the straight box"):
        spec = spiral_box_spectrum(1e6, 1.0, 1.0, 5)
        for n in range(1, 6):
            assert spec.energy(n) == pytest.approx(pib_open_energy(n, 1.0, 1.0), rel=1e-6)


def test_criterion_4_wavefunction_suite():
    with criterion("4 normalization, orthogonality, boundaries, amplitude constant"):
        for sigma_sq in SIGMA_SQ_TABLE:
            spec = spiral_box_spectrum(math.sqrt(sigma_sq), 1.0, 1.0, 5)
            for n in range(1, 6):
                total = mp.quad(lambda s: spiral_box_wavefunction(spec, n, float(s)) ** 2, [0, 1])
                assert total == pytest.approx(1.0, abs=1e-6)
                assert spiral_box_wavefunction(spec, n, 0.0) == 0.0
                assert abs(spiral_box_wavefunction(spec, n, 1.0)) <= 1e-9
                j = spec.zero(n)
                w = spec.omega
                product_form = math.sqrt(2.0) / (
                    spec.box_length
                    * math.sqrt(
                        -specfun.bessel_j(w - 1.0, j) * specfun.bessel_j(w + 1.0, j)
                    )
                )
                simplified = math.sqrt(2.0) / (
                    spec.box_length * abs(specfun.bessel_j(w + 1.0, j))
                )
                assert product_form == pytest.approx(simplified, rel=1e-10)
                assert spiral_box_normalization(spec, n) == pytest.approx(
                    product_form, rel=1e-10
                )
            for m in range(1, 6):
                for n in range(m + 1, 6):
                    overlap = mp.quad(
                        lambda s: spiral_box_wavefunction(spec, m, float(s))
                        * spiral_box_wavefunction(spec, n, float(s)),
                        [0, 1],
                    )
                    assert abs(overlap) <= 1e-6


def test_criterion_5_fit_round_trips():
    with criterion("5 sigma fit and effective-mass fit round trips"):
        for mol, sigma_sq in zip(MOLECULES, SIGMA_SQ_TABLE):
            sigma_ref = math.sqrt(sigma_sq)
            target = lambda_model(sigma_ref, mol)
            probe = Molecule(mol.name, mol.n_pi, mol.box_length, target, mol.source)
            result = fit_sigma(probe, tol=1e-6)
            assert result.converged
            assert result.sigma == pytest.approx(sigma_ref, rel=1e-6)

            synthetic = Molecule(mol.name, mol.n_pi, mol.box_length, 350.0, mol.source)
            mass = fit_effective_mass(synthetic)
            n, length = mol.n_pi // 2, nm_to_bohr(mol.box_length)
            lam = transition_wavelength(
                pib_open_energy(n, length, mass), pib_open_energy(n + 1, length, mass)
            )
            assert lam == pytest.approx(350.0, rel=1e-10)


def test_criterion_6_geometry_suite():
    with criterion("6 radius identities, Frenet agreement, curvature recovery"):
        sigma = math.sqrt(0.004)
        for s in np.geomspace(1e-4, 1e3, 100):
            s = float(s)
            assert np.linalg.norm(polyene_curve(sigma, s)) == pytest.approx(
                sigma * s / math.sqrt(1.0 + sigma * sigma), rel=1e-12
            )
            assert np.linalg.norm(hydrogen_curve(sigma, s)) == pytest.approx(
                sigma * math.sqrt(s + sigma * sigma / 4.0), rel=1e-12
            )

        res = frenet_integrate(CurvatureLaw(1.0, 0.5).k, 1.0, 100.0, 40_000)
        offset = hydrogen_curve(1.0, 1.0) - res.points[0]
        for i in np.linspace(0, 40_000, 37).astype(int):
            ref = hydrogen_curve(1.0, float(res.s_values[i]))
            assert np.linalg.norm(res.points[i] + offset - ref) < 1e-8

        sig_p = math.sqrt(0.0009)
        res_p = frenet_integrate(CurvatureLaw(sig_p, 1.0).k, 1.0, 3.0, 20_000)
        h = 1e-7
        d = (polyene_curve(sig_p, 1.0 + h) - polyene_curve(sig_p, 1.0 - h)) / (2.0 * h)
        d /= np.linalg.norm(d)
        rot = np.array([[d[0], -d[1]], [d[1], d[0]]])
        aligned = (rot @ res_p.points.T).T
        aligned += polyene_curve(sig_p, 1.0) - aligned[0]
        for i in np.linspace(0, 20_000, 31).astype(int):
            ref = polyene_curve(sig_p, float(res_p.s_values[i]))
            assert np.linalg.norm(aligned[i] - ref) < 1e-8

        s_grid = np.arange(1.0, 2.0, 1e-3)
        k_poly = curvature_of_samples(PlaneCurveSamples(s_grid, polyene_curve(sigma, s_grid)))
        assert np.max(np.abs(k_poly * (sigma * s_grid[1:-1]) - 1.0)) < 1e-3
        k_hydro = curvature_of_samples(PlaneCurveSamples(s_grid, hydrogen_curve(1.0, s_grid)))
        assert np.max(np.abs(k_hydro * np.sqrt(s_grid[1:-1]) - 1.0)) < 1e-3


def test_criterion_7_density_equivalence():
    with criterion("7 1D bound-state density equals the s-wave radial density"):
        for n in (1, 2, 3, 4):
            s_values = np.geomspace(0.02, 8.0 * n * n, 100)
            p1 = hydrogen_wavefunction_1d(n, s_values) ** 2
            p3 = s_values * s_values * hydrogen_radial_3d(n, 0, s_values) ** 2
            assert np.allclose(p1, p3, rtol=1e-8, atol=1e-13 * float(np.max(p1)))


def test_criterion_8_special_function_spot_checks():
    with criterion("8 half-order identity, zeros at n pi, recurrence residuals"):
        for x in np.linspace(0.1, 50.0, 200):
            x = float(x)
            ref = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert abs(specfun.bessel_j(0.5, x) - ref) <= 1e-10
        for n, zero in enumerate(specfun.bessel_j_zeros(0.5, 5), start=1):
            assert zero == pytest.approx(n * math.pi, abs=1e-10)
        rng = np.random.default_rng(123)
        for _ in range(100):
            nu = float(rng.uniform(0.0, 25.0))
            x = float(rng.uniform(0.05, 100.0))
            a = specfun.bessel_j(nu, x)
            b = specfun.bessel_j(nu + 1.0, x)
            c = specfun.bessel_j(nu + 2.0, x)
            rhs = 2.0 * (nu + 1.0) / x * b
            scale = max(abs(a), abs(b), abs(c), abs(rhs), 1e-280)
            assert abs(a + c - rhs) <= 1e-8 * scale
