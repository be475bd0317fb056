"""Quantum mechanics on spiral plane curves.

Reconstructs plane curves with power-law curvature k(s) = 1/(sigma * s^p),
solves the induced curvature-potential Schroedinger problem on them (Bessel
spectrum plus a finite-difference oracle), and fits polyene pi-pi*
transition data with both the spiral-box and effective-mass box models.
"""

from .fdsolver import discretize, eigenvalues_lowest, richardson_refine
from .geometry import (
    CurvatureLaw,
    PlaneCurveSamples,
    frenet_integrate,
    hydrogen_curve,
    polyene_curve,
)
from .polyene import (
    FitResult,
    Molecule,
    fit_effective_mass,
    fit_sigma,
    lambda_model,
    load_molecules,
    report,
)
from .quantum import (
    SpiralBoxSpectrum,
    geometry_induced_potential,
    hydrogen_radial_3d,
    hydrogen_radial_density,
    hydrogen_wavefunction_1d,
    omega_from_sigma,
    pib_open_energy,
    sigma_from_omega,
    spiral_box_spectrum,
    spiral_box_wavefunction,
    transition_wavelength,
)
from .specfun import bessel_j, bessel_j_zeros, laguerre

__version__ = "0.1.0"
