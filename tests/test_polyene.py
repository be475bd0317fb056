"""Tests for molecule records, sigma fitting, and the report table."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from spiralbox import polyene
from spiralbox.polyene import (
    FitRangeError,
    FitResult,
    Molecule,
    fit_effective_mass,
    fit_sigma,
    heuristic_box_length,
    homo_index,
    lambda_model,
    load_molecules,
    report,
)
from spiralbox.quantum import (
    geometry_induced_potential,
    nm_to_bohr,
    omega_from_sigma,
    pib_open_energy,
    transition_wavelength,
)
from spiralbox.specfun import bessel_j_zeros
from spiralbox.svgplot import report_bar_chart

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# the four chains studied here: sigma^2, pi count, heuristic bond count
CHAINS = [
    ("deca-2,4,6,8-tetraene", 8, 9, 0.004),
    ("dodeca-2,4,6,8,10-pentaene", 10, 11, 0.0014),
    ("tetradeca-2,4,6,8,10,12-hexaene", 12, 13, 0.0009),
    ("hexadeca-2,4,6,8,10,12,14-heptaene", 14, 15, 0.00045),
]

# self-regression fixture: lambda_model on a log grid of sigma, frozen from
# the initial implementation; any change must reproduce these to 1e-9
LAMBDA_REGRESSION = {
    "deca-2,4,6,8-tetraene": [
        (0.001, 7.457689471098886),
        (0.004216965034285822, 40.74645816233714),
        (0.01778279410038923, 166.85437256297874),
        (0.07498942093324558, 419.52887035777553),
        (0.31622776601683794, 637.0460186366369),
        (1.333521432163324, 721.395369305276),
        (5.62341325190349, 708.4601515299231),
        (23.71373705661655, 707.8678817407556),
        (100.0, 707.8348698375517),
    ],
    "dodeca-2,4,6,8,10-pentaene": [
        (0.001, 11.279935060734779),
        (0.004216965034285822, 59.78130900436434),
        (0.01778279410038923, 230.4824541223576),
        (0.07498942093324558, 534.1975912906711),
        (0.31622776601683794, 764.4574750705171),
        (1.333521432163324, 846.9848892874344),
        (5.62341325190349, 834.5604368663636),
        (23.71373705661655, 833.9895765501418),
        (100.0, 833.9577528583267),
    ],
    "tetradeca-2,4,6,8,10,12-hexaene": [
        (0.001, 15.951335411995931),
        (0.004216965034285822, 82.21427290147153),
        (0.01778279410038923, 300.53919650888196),
        (0.07498942093324558, 651.4991500264431),
        (0.31622776601683794, 891.868168092402),
        (1.333521432163324, 973.1417506930007),
        (5.62341325190349, 961.0639269704627),
        (23.71373705661655, 960.5076622979283),
        (100.0, 960.4766488205813),
    ],
    "hexadeca-2,4,6,8,10,12,14-heptaene": [
        (0.001, 21.483949783663206),
        (0.004216965034285822, 107.90592975320347),
        (0.01778279410038923, 376.0801978271494),
        (0.07498942093324558, 770.6935818614952),
        (0.31622776601683794, 1019.2785199157871),
        (1.333521432163324, 1099.6365050523036),
        (5.62341325190349, 1087.8092576894085),
        (23.71373705661655, 1087.263578101022),
        (100.0, 1087.233152294601),
    ],
}

LAMBDA_AT_TABLE_SIGMA = {
    "deca-2,4,6,8-tetraene": (0.004, 387.2683859594528),
    "dodeca-2,4,6,8,10-pentaene": (0.0014, 381.6768961403582),
    "tetradeca-2,4,6,8,10,12-hexaene": (0.0009, 424.634345846728),
    "hexadeca-2,4,6,8,10,12,14-heptaene": (0.00045, 423.09865401539304),
}


def make_molecule(name, n_pi, n_bonds, lambda_exp=None):
    return Molecule(name, n_pi, heuristic_box_length(n_bonds), lambda_exp, source="test")


ALL_MOLECULES = [make_molecule(name, n_pi, nb) for name, n_pi, nb, _ in CHAINS]


# --- molecule records ----------------------------------------------------------


def test_homo_indices():
    expected = {8: 4, 10: 5, 12: 6, 14: 7, 2: 1}
    for n_pi, n in expected.items():
        assert homo_index(Molecule("chain", n_pi, 1.0)) == n


def test_molecule_validation():
    with pytest.raises(ValueError):
        Molecule("odd", 7, 1.0)
    with pytest.raises(ValueError):
        Molecule("empty", 0, 1.0)
    with pytest.raises(ValueError):
        Molecule("flat", 8, 0.0)
    with pytest.raises(ValueError):
        Molecule("neg", 8, 1.0, lambda_exp=-5.0)


def test_heuristic_box_length():
    assert heuristic_box_length(9) == pytest.approx(1.39)
    assert heuristic_box_length(15) == pytest.approx(2.224)
    with pytest.raises(ValueError):
        heuristic_box_length(0)


def test_sigma_falls_as_chains_grow():
    sigma_sq = [c[3] for c in CHAINS]
    n_pi = [c[1] for c in CHAINS]
    assert all(b < a for a, b in zip(sigma_sq, sigma_sq[1:]))
    assert all(b > a for a, b in zip(n_pi, n_pi[1:]))


# --- lambda_model ------------------------------------------------------------


def test_lambda_model_regression_fixture():
    for mol in ALL_MOLECULES:
        for sigma, frozen in LAMBDA_REGRESSION[mol.name]:
            assert lambda_model(sigma, mol) == pytest.approx(frozen, rel=1e-9)


def test_lambda_model_at_table_sigma():
    for mol in ALL_MOLECULES:
        sigma_sq, frozen = LAMBDA_AT_TABLE_SIGMA[mol.name]
        assert lambda_model(math.sqrt(sigma_sq), mol) == pytest.approx(frozen, rel=1e-9)


def test_lambda_model_reduces_to_box_at_large_sigma():
    for mol in ALL_MOLECULES[:2]:
        n, length = homo_index(mol), nm_to_bohr(mol.box_length)
        expected = transition_wavelength(
            pib_open_energy(n, length, 1.0), pib_open_energy(n + 1, length, 1.0)
        )
        assert lambda_model(1e6, mol) == pytest.approx(expected, rel=1e-6)


def test_lambda_model_monotone_in_strong_confinement():
    # smooth and strictly increasing on the sigma <= 1 side of the grid
    mol = ALL_MOLECULES[0]
    sigmas = np.geomspace(1e-3, 1.0, 25)
    values = [lambda_model(float(s), mol) for s in sigmas]
    assert all(b > a for a, b in zip(values, values[1:]))
    jumps = np.abs(np.diff(values)) / np.array(values[:-1])
    assert np.max(jumps) < 0.65  # no discontinuities between neighbouring nodes


# --- fit_sigma ----------------------------------------------------------------


@pytest.mark.parametrize("name,n_pi,n_bonds,sigma_sq", CHAINS)
def test_fit_round_trip(name, n_pi, n_bonds, sigma_sq):
    sigma_ref = math.sqrt(sigma_sq)
    probe = make_molecule(name, n_pi, n_bonds)
    target = lambda_model(sigma_ref, probe)
    mol = make_molecule(name, n_pi, n_bonds, lambda_exp=target)
    result = fit_sigma(mol, tol=1e-6)
    assert result.converged
    assert result.sigma == pytest.approx(sigma_ref, rel=1e-6)
    assert result.percent_error <= 1e-6
    assert result.lambda_exp == target


def test_fit_recovers_reference_orders():
    # recovered omega values match the known chain table to 5 figures
    expected = {8: 7.88987, 10: 13.35370, 12: 16.65920, 14: 23.56490}
    for name, n_pi, n_bonds, sigma_sq in CHAINS:
        probe = make_molecule(name, n_pi, n_bonds)
        target = lambda_model(math.sqrt(sigma_sq), probe)
        result = fit_sigma(make_molecule(name, n_pi, n_bonds, lambda_exp=target), tol=1e-6)
        assert result.omega == pytest.approx(expected[n_pi], rel=1e-5)


def test_fit_is_idempotent():
    name, n_pi, n_bonds, sigma_sq = CHAINS[0]
    target = lambda_model(math.sqrt(sigma_sq), make_molecule(name, n_pi, n_bonds))
    first = fit_sigma(make_molecule(name, n_pi, n_bonds, lambda_exp=target), tol=1e-9)
    replay = lambda_model(first.sigma, make_molecule(name, n_pi, n_bonds))
    second = fit_sigma(make_molecule(name, n_pi, n_bonds, lambda_exp=replay), tol=1e-9)
    assert second.sigma == pytest.approx(first.sigma, rel=1e-9)


def test_fit_with_loose_tolerance_converges_immediately():
    name, n_pi, n_bonds, sigma_sq = CHAINS[0]
    target = lambda_model(math.sqrt(sigma_sq), make_molecule(name, n_pi, n_bonds))
    result = fit_sigma(make_molecule(name, n_pi, n_bonds, lambda_exp=target), tol=1e3)
    assert result.converged
    assert result.iterations <= 2


def test_fit_reports_attainable_range():
    mol = make_molecule(*CHAINS[0][:3], lambda_exp=1e9)
    with pytest.raises(FitRangeError) as err:
        fit_sigma(mol)
    # refused on lambda(0) alone: the shorter end is not computed
    assert err.value.shortest is None
    assert 0.0 < err.value.longest < 1e9
    mol = make_molecule(*CHAINS[0][:3], lambda_exp=1e-3)
    with pytest.raises(FitRangeError) as err:
        fit_sigma(mol)
    assert 1e-3 < err.value.shortest < err.value.longest


def test_attainable_range_of_tiny_wavelengths_is_not_rounded_away():
    # at mass 1e-160 every model wavelength is ~1e-158 nm; rebuilt as
    # (lambda - target) + target the range read [0, 0]
    mol = make_molecule(*CHAINS[0][:3], lambda_exp=400.0)
    with pytest.raises(FitRangeError) as err:
        fit_sigma(mol, mass=1e-160)
    assert err.value.longest == lambda_model(1.0, mol, mass=1e-160)  # omega = 0
    assert 0.0 < err.value.longest < 1e-150
    assert err.value.shortest is None


def test_transition_gap_rises_with_omega():
    # lambda(omega) falls strictly, which the fit's reachability rule rests on
    omegas = [0.0] + np.geomspace(1e-3, 200.0, 120).tolist()
    gaps = []
    for omega in omegas:
        j = bessel_j_zeros(omega, 10)
        gaps.append([j[n] ** 2 - j[n - 1] ** 2 for n in range(1, 10)])
    for lower, upper in zip(gaps, gaps[1:]):
        assert all(b > a for a, b in zip(lower, upper))


def test_fit_calls_lambda_model_at_most_40_times(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return lambda_model(*args, **kwargs)

    monkeypatch.setattr(polyene, "lambda_model", counted)
    for mol in load_molecules(DATA_DIR / "polyenes_roundtrip.json"):
        calls.clear()
        assert fit_sigma(mol).converged
        assert 0 < len(calls) <= 40, mol.name


def test_target_at_lambda_zero_is_unreachable():
    mol = ALL_MOLECULES[0]
    lambda_zero = lambda_model(1.0, mol)  # omega = 0
    for target in (lambda_zero, 1.5 * lambda_zero):
        with pytest.raises(FitRangeError) as err:
            fit_sigma(make_molecule(*CHAINS[0][:3], lambda_exp=target))
        assert err.value.longest == lambda_zero
        assert err.value.shortest is None


def test_target_above_lambda_zero_is_refused_after_one_evaluation(monkeypatch):
    # lambda at the omega ~ 5000 ceiling takes about 0.56 s; the refusal
    # needs lambda(0) alone
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return lambda_model(*args, **kwargs)

    monkeypatch.setattr(polyene, "lambda_model", counted)
    mol = make_molecule(*CHAINS[0][:3], lambda_exp=5000.0)
    lambda_zero = lambda_model(1.0, mol)
    with pytest.raises(FitRangeError) as err:
        fit_sigma(mol)
    assert calls == [1.0]  # sigma = 1: omega = 0
    assert f"{lambda_zero:.6g} nm, the longest attainable model wavelength" in str(err.value)
    assert err.value.longest == lambda_zero and err.value.shortest is None


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: omega_from_sigma(1e-160), "1e-160"),  # returned inf
        (lambda: pib_open_energy(1, 1e-200, 1.0), "1e-200"),  # ZeroDivisionError
        (lambda: pib_open_energy(1, 1e-160, 1.0), "1e-160"),  # returned inf
        (lambda: fit_effective_mass(Molecule("m", 2, 1e-200, 400.0)), "1e-200"),
        (lambda: geometry_induced_potential(1e200, 1.0), "1e+200"),  # returned -inf
        (lambda: heuristic_box_length(3, 1e308), "1e+308"),  # returned inf
    ],
)
def test_values_past_the_float_range_are_refused_by_name(call, value):
    with pytest.raises(ValueError, match=value.replace("+", r"\+")):
        call()


def test_fit_requires_lambda_exp():
    with pytest.raises(ValueError):
        fit_sigma(ALL_MOLECULES[0])


def test_fit_refuses_a_tolerance_that_is_not_positive():
    mol = make_molecule("target", 8, 7, lambda_exp=400.0)
    for tol in (0.0, -1e-6):
        with pytest.raises(ValueError, match="^tol must be positive$"):
            fit_sigma(mol, tol=tol)


# --- effective mass ---------------------------------------------------------------


def test_effective_mass_round_trip():
    for lam_exp in (330.0, 416.0):
        mol = make_molecule("deca-2,4,6,8-tetraene", 8, 9, lambda_exp=lam_exp)
        mass = fit_effective_mass(mol)
        n, length = homo_index(mol), nm_to_bohr(mol.box_length)
        lam = transition_wavelength(
            pib_open_energy(n, length, mass), pib_open_energy(n + 1, length, mass)
        )
        assert lam == pytest.approx(lam_exp, rel=1e-10)


def test_effective_mass_is_linear_in_wavelength():
    mol1 = make_molecule("chain", 8, 9, lambda_exp=300.0)
    mol2 = make_molecule("chain", 8, 9, lambda_exp=600.0)
    assert fit_effective_mass(mol2) == pytest.approx(2.0 * fit_effective_mass(mol1), rel=1e-12)


def test_effective_mass_requires_lambda_exp():
    with pytest.raises(ValueError):
        fit_effective_mass(ALL_MOLECULES[0])


# --- report -------------------------------------------------------------------------


def test_report_zero_errors_after_tight_fits():
    rows = []
    for name, n_pi, n_bonds, sigma_sq in CHAINS[:2]:
        target = lambda_model(math.sqrt(sigma_sq), make_molecule(name, n_pi, n_bonds))
        mol = make_molecule(name, n_pi, n_bonds, lambda_exp=target)
        fitted = fit_sigma(mol, tol=1e-10)
        rows.extend(report([mol], [fitted.sigma]))
    for row in rows:
        assert row.percent_error <= 1e-9


def test_report_handles_missing_experiment_and_empty_input():
    # the table these rows make is checked byte for byte in test_cli
    rows = report([ALL_MOLECULES[0]], [0.05])
    assert rows[0].lambda_exp is None and rows[0].percent_error is None
    assert report([], []) == []


def test_report_row_whose_wavelength_underflows_is_refused():
    # a 1e-154 nm box puts the HOMO-LUMO gap near 1e307 Hartree, past the eV
    # range; hc / inf would give 0 nm for a wavelength of about 2e-306 nm
    mol = Molecule("tiny", 8, 1e-154, lambda_exp=300.0)
    with pytest.raises(ValueError, match="overflows in eV"):
        report([mol], [0.05])


def test_report_percent_error_arithmetic():
    mol = make_molecule("chain", 8, 9, lambda_exp=400.0)
    row = report([mol], [0.05])[0]
    assert row.percent_error == pytest.approx(
        100.0 * abs(row.lambda_calc - 400.0) / 400.0, rel=1e-12
    )


def test_report_writes_svg(tmp_path):
    mol = make_molecule("chain", 8, 9, lambda_exp=400.0)
    svg = tmp_path / "chart.svg"
    svg.write_text(report_bar_chart(report([mol], [0.05])))
    content = svg.read_text()
    assert content.startswith("<svg")
    assert "rect" in content


@pytest.mark.parametrize("wavelength", [1e306, 1.7e308])
def test_report_chart_refuses_a_wavelength_whose_scale_overflows(wavelength):
    # 1.1 max overflowed at 1.7e308 (tick labels nan and inf), and a bar's
    # height, 270 * value / (1.1 max), from about 6.6e305 on
    row = FitResult("a", 0.05, 1.0, wavelength, None, None, 0, False)
    with pytest.raises(ValueError, match="too large to chart"):
        report_bar_chart([row])
    chart = report_bar_chart([FitResult("a", 0.05, 1.0, 6e305, None, None, 0, False)])
    assert "inf" not in chart and "nan" not in chart


def test_report_length_mismatch():
    with pytest.raises(ValueError):
        report(ALL_MOLECULES, [0.1])


# --- molecule files -----------------------------------------------------------------


def test_load_shipped_molecule_file():
    mols = load_molecules(DATA_DIR / "polyenes.json")
    assert [m.name for m in mols] == [c[0] for c in CHAINS]
    assert [m.n_pi for m in mols] == [c[1] for c in CHAINS]
    assert all(m.lambda_exp is None for m in mols)
    assert all(m.box_length > 0 for m in mols)


def test_load_round_trip_fixture_file():
    mols = load_molecules(DATA_DIR / "polyenes_roundtrip.json")
    for mol, (name, n_pi, n_bonds, sigma_sq) in zip(mols, CHAINS):
        result = fit_sigma(mol, tol=1e-5)
        assert result.converged
        assert result.sigma == pytest.approx(math.sqrt(sigma_sq), rel=1e-6)


def test_load_molecules_validates_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"name": "x", "n_pi": 8, "box_length_nm": 1.0}]))
    with pytest.raises(ValueError, match="missing"):
        load_molecules(bad)
    bad.write_text(
        json.dumps(
            [{"name": "x", "n_pi": 8, "box_length_nm": 1.0, "source": "", "extra": 1}]
        )
    )
    with pytest.raises(ValueError, match="unknown"):
        load_molecules(bad)
    bad.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(ValueError, match="array"):
        load_molecules(bad)
    good = {"name": "x", "n_pi": 8, "box_length_nm": 1.0, "source": ""}
    bad.write_text(json.dumps([good, {**good, "name": 7}]))
    with pytest.raises(ValueError, match="^record 1: name must be a string, got 7$"):
        load_molecules(bad)
    bad.write_text(json.dumps([good, ["x", 8, 1.0, ""]]))
    with pytest.raises(ValueError, match="^record 1 is not a JSON object$"):
        load_molecules(bad)
