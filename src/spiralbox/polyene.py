"""Polyene chemistry layer: molecule records, sigma and effective-mass fits,
and the rows of the calculated-vs-experimental transition report (the CLI
writes them out; this module writes no files).

Experimental absorption wavelengths and conjugation lengths are inputs (they
come from published UV measurements, e.g. Christensen et al. 2008), never
constants baked into the code; molecule data lives in user-editable JSON
files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Sequence

from . import quantum, specfun

__all__ = [
    "Molecule",
    "FitResult",
    "FitRangeError",
    "homo_index",
    "heuristic_box_length",
    "lambda_model",
    "fit_sigma",
    "fit_effective_mass",
    "report",
    "load_molecules",
]

# largest omega a fit may return: sigma = 1e-4, far below fitted sigmas (~0.02-0.07)
_OMEGA_CEILING = quantum.omega_from_sigma(1e-4)


@dataclass(frozen=True)
class Molecule:
    """A linear polyene: pi-electron count, box length, optional measured lambda."""

    name: str
    n_pi: int
    box_length: float  # nm
    lambda_exp: float | None = None  # nm
    source: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if not _is_int(self.n_pi) or self.n_pi < 2 or self.n_pi % 2 != 0:
            raise ValueError(f"{self.name}: n_pi must be a positive even integer, got {self.n_pi!r}")
        if not _is_positive_length(self.box_length):
            raise ValueError(
                f"{self.name}: box_length must be a finite positive number, got {self.box_length!r}"
            )
        if self.lambda_exp is not None and not _is_positive_length(self.lambda_exp):
            raise ValueError(
                f"{self.name}: lambda_exp must be a finite positive number when given, "
                f"got {self.lambda_exp!r}"
            )


def _is_int(value: object) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_positive_length(value: object) -> bool:
    if not isinstance(value, Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value) and value > 0.0
    except OverflowError:  # an integer beyond the float range
        return False


def homo_index(mol: Molecule) -> int:
    """Highest occupied level: pi electrons paired two per level."""
    return mol.n_pi // 2


def heuristic_box_length(n_bonds: int, bond_nm: float = 0.139) -> float:
    """Conventional conjugated-chain length (n_bonds + 1) * 0.139 nm.

    A bookkeeping default for when no measured chain length is available,
    not a substitute for one.
    """
    if n_bonds < 1:
        raise ValueError("need at least one bond")
    length = (n_bonds + 1) * bond_nm
    if not 0.0 < length < math.inf:
        raise ValueError(f"the box length must be finite and positive, got bond_nm = {bond_nm!r}")
    return length


@dataclass(frozen=True)
class FitResult:
    """Outcome of a sigma fit (or of a fixed-sigma report row)."""

    name: str
    sigma: float
    omega: float
    lambda_calc: float
    lambda_exp: float | None
    percent_error: float | None
    iterations: int
    converged: bool


class FitRangeError(ValueError):
    """The target wavelength is outside the model's range for 0 <= omega <= the ceiling.

    `longest` is lambda(0) in nm, and `shortest` lambda at the ceiling, or
    None for a target at or above lambda(0), which is refused on lambda(0)
    alone.
    """

    def __init__(self, name: str, target: float, longest: float, shortest: float | None = None):
        self.name = name
        self.target = target
        self.longest = longest
        self.shortest = shortest
        if shortest is None:
            where = f"at or above {longest:.6g} nm, the longest attainable model wavelength"
        else:
            where = f"outside the attainable model range [{shortest:.6g}, {longest:.6g}] nm"
        super().__init__(f"{name}: lambda_exp = {target:.6g} nm is {where}")


def lambda_model(sigma: float, mol: Molecule, mass: float = 1.0) -> float:
    """Transition wavelength (nm) of the spiral-box spectrum at the HOMO step."""
    n = homo_index(mol)
    length = quantum.nm_to_bohr(mol.box_length)
    spectrum = quantum.spiral_box_spectrum(sigma, length, mass, n + 1)
    return quantum.transition_wavelength(spectrum.energy(n), spectrum.energy(n + 1))


def _percent_error(calc: float, exp: float) -> float:
    return 100.0 * abs(calc - exp) / exp


def fit_sigma(mol: Molecule, mass: float = 1.0, tol: float = 1e-6) -> FitResult:
    """Find sigma reproducing the measured wavelength.

    Solves lambda(omega) = lambda_exp for omega >= 0 and reports
    sigma = 1/sqrt(1 + 4 omega^2) <= 1 (sigma > 1 only repeats omega < 1/2).
    The gap j^2_{omega,n+1} - j^2_{omega,n} rises strictly with omega, so
    lambda falls from lambda(0): a target at or above it is refused after one
    evaluation (see :class:`FitRangeError`).  Otherwise doubling omega from 1
    brackets the root, up to omega(sigma = 1e-4) ~ 5000 (a target below lambda
    there is refused too), and :func:`specfun.find_root` refines it until
    |lambda - lambda_exp| <= tol.
    `iterations` counts the evaluations made after bracketing.
    """
    if mol.lambda_exp is None:
        raise ValueError(f"{mol.name}: cannot fit sigma without lambda_exp")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    target = mol.lambda_exp
    # lambda at each omega tried, kept whole: (lambda - target) + target
    # cancels to 0 when lambda is far below the target
    lam: dict[float, float] = {}

    def excess(omega: float) -> float:
        lam[omega] = lambda_model(quantum.sigma_from_omega(omega), mol, mass)
        return lam[omega] - target

    lo, g_lo = 0.0, excess(0.0)
    if g_lo <= 0.0:
        raise FitRangeError(mol.name, target, lam[0.0])
    hi, g_hi = 1.0, excess(1.0)
    while g_hi > 0.0:
        if hi == _OMEGA_CEILING:
            raise FitRangeError(mol.name, target, lam[0.0], lam[hi])
        lo, g_lo = hi, g_hi
        hi = min(2.0 * hi, _OMEGA_CEILING)
        g_hi = excess(hi)

    omega, g, iterations = specfun.find_root(excess, lo, hi, g_lo, g_hi, ftol=tol)
    lam_calc = lam[omega]
    return FitResult(
        name=mol.name,
        sigma=quantum.sigma_from_omega(omega),
        omega=omega,
        lambda_calc=lam_calc,
        lambda_exp=target,
        percent_error=_percent_error(lam_calc, target),
        iterations=iterations,
        converged=abs(g) <= tol,
    )


def fit_effective_mass(mol: Molecule) -> float:
    """Mass (units of m_e) making the straight-box HOMO->LUMO step match lambda_exp.

    The wavelength grows in proportion to m: the mass is lambda_exp over the
    wavelength at m = 1, whose step is 2n + 1 ground levels (the difference of
    levels n + 1 and n would lose about n ulps).
    """
    if mol.lambda_exp is None:
        raise ValueError(f"{mol.name}: cannot fit an effective mass without lambda_exp")
    length = quantum.nm_to_bohr(mol.box_length)
    try:
        gap = (2 * homo_index(mol) + 1) * quantum.pib_open_energy(1, length, 1.0)
        mass = mol.lambda_exp / quantum.transition_wavelength(0.0, gap)
    except ValueError:  # a level or the wavelength leaves the float range
        mass = math.inf
    if not math.isfinite(mass):
        raise ValueError(f"{mol.name}: the effective mass is out of range at {mol.box_length!r} nm")
    return mass


def report(
    mols: Sequence[Molecule], sigmas: Sequence[float], mass: float = 1.0
) -> list[FitResult]:
    """Calculated-vs-experimental rows at fixed sigma per molecule.

    Rows without a measured wavelength have no experimental values.
    """
    if len(mols) != len(sigmas):
        raise ValueError("need exactly one sigma per molecule")
    rows: list[FitResult] = []
    for mol, sigma in zip(mols, sigmas):
        lam_calc = lambda_model(sigma, mol, mass)
        lam_exp = mol.lambda_exp
        rows.append(
            FitResult(
                name=mol.name,
                sigma=sigma,
                omega=quantum.omega_from_sigma(sigma),
                lambda_calc=lam_calc,
                lambda_exp=lam_exp,
                percent_error=None if lam_exp is None else _percent_error(lam_calc, lam_exp),
                iterations=0,
                converged=False,
            )
        )
    return rows


_MOLECULE_FIELDS = {"name", "n_pi", "box_length_nm", "lambda_exp_nm", "source"}
_REQUIRED_FIELDS = {"name", "n_pi", "box_length_nm", "source"}


def load_molecules(path: str | Path) -> list[Molecule]:
    """Read a molecule JSON file (a list of records with fixed field names)."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, list):
        raise ValueError("molecule file must contain a JSON array of records")
    mols = []
    for i, rec in enumerate(raw):
        if not isinstance(rec, dict):
            raise ValueError(f"record {i} is not a JSON object")
        unknown = set(rec) - _MOLECULE_FIELDS
        if unknown:
            raise ValueError(f"record {i} has unknown fields: {sorted(unknown)}")
        missing = _REQUIRED_FIELDS - set(rec)
        if missing:
            raise ValueError(f"record {i} is missing fields: {sorted(missing)}")
        try:
            mols.append(
                Molecule(
                    name=rec["name"],
                    n_pi=rec["n_pi"],
                    box_length=rec["box_length_nm"],
                    lambda_exp=rec.get("lambda_exp_nm"),
                    source=rec["source"],
                )
            )
        except ValueError as exc:
            raise ValueError(f"record {i}: {exc}") from None
    return mols
