"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import frenet_loop
import spiralbox
from spiralbox import cli, geometry, polyene, quantum, specfun, svgplot
from spiralbox.cli import main

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def read_csv(path):
    lines = [
        line
        for line in Path(path).read_text().splitlines()
        if line and not line.startswith("#")
    ]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


# --- curve -------------------------------------------------------------------


def test_curve_csv_hydrogen_radius_law(tmp_path):
    out = tmp_path / "curve.csv"
    sigma = 1.0
    code = main(
        [
            "curve",
            "--sigma",
            "1.0",
            "--p",
            "0.5",
            "--s-min",
            "0.5",
            "--s-max",
            "40",
            "--samples",
            "100",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["s", "x", "y"]
    assert len(rows) == 100
    for s_str, x_str, y_str in rows[::9]:
        s, x, y = float(s_str), float(x_str), float(y_str)
        assert math.hypot(x, y) == pytest.approx(
            sigma * math.sqrt(s + sigma * sigma / 4.0), rel=1e-8
        )


def test_curve_constant_curvature_closes_circle(tmp_path):
    out = tmp_path / "circle.csv"
    code = main(
        [
            "curve",
            "--sigma",
            "1.0",
            "--p",
            "0",
            "--s-min",
            "1e-9",
            "--s-max",
            str(2.0 * math.pi),
            "--samples",
            "20000",
            "--spacing",
            "linear",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    _, rows = read_csv(out)
    first = np.array([float(v) for v in rows[0][1:]])
    last = np.array([float(v) for v in rows[-1][1:]])
    assert np.linalg.norm(last - first) < 1e-6


def test_curve_svg_output_is_deterministic(tmp_path):
    args = [
        "curve",
        "--sigma",
        "0.0632455532",
        "--format",
        "svg",
    ]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    content = a.read_text()
    assert content == b.read_text()
    assert content.startswith("<svg")
    assert "polyline" in content
    # downsampling cap on path length
    assert content.count(",") <= 5001


def _svg_coord(v):
    out = f"{v:.3f}"
    return "0.000" if out == "-0.000" else out


@pytest.mark.parametrize("p", ["1", "0.5"])
def test_curve_text_matches_pointwise_formatting(tmp_path, p):
    sigma, samples = 0.0632455532, 1500
    csv_out, svg_out = tmp_path / "c.csv", tmp_path / "c.svg"
    argv = ["curve", "--sigma", repr(sigma), "--p", p, "--samples", str(samples)]
    assert main(argv + ["--output", str(csv_out)]) == 0
    assert main(argv + ["--format", "svg", "--output", str(svg_out)]) == 0
    s = np.geomspace(0.05, 4.0, samples)
    closed_form = geometry.polyene_curve if p == "1" else geometry.hydrogen_curve
    pts = [closed_form(sigma, float(v)) for v in s]
    rows = [f"{v:.10g},{x:.10g},{y:.10g}" for v, (x, y) in zip(s, pts)]
    assert csv_out.read_text() == "\n".join([f"# sigma = {sigma:.10g}", f"# p = {float(p):.10g}",
                                             "s,x,y", *rows]) + "\n"
    arr = np.array(pts)
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    scale = 540.0 / float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-30))
    cx, cy = 0.5 * (lo + hi)
    coords = " ".join(
        f"{_svg_coord(300.0 + (x - cx) * scale)},{_svg_coord(300.0 - (y - cy) * scale)}"
        for x, y in pts
    )
    assert f'<polyline points="{coords}" fill="none"' in svg_out.read_text()


@pytest.mark.parametrize("p", ["1", "0.5"])
def test_curve_linear_spacing_takes_evenly_spaced_arc_lengths(tmp_path, p):
    sigma = 0.063
    out = tmp_path / "c.csv"
    argv = ["curve", "--sigma", repr(sigma), "--p", p, "--spacing", "linear", "--samples", "5"]
    assert main(argv + ["--output", str(out)]) == 0
    closed_form = geometry.polyene_curve if p == "1" else geometry.hydrogen_curve
    s = np.linspace(0.05, 4.0, 5)
    rows = [f"{v:.10g},{x:.10g},{y:.10g}" for v, (x, y) in zip(s, closed_form(sigma, s))]
    assert out.read_text() == "\n".join([f"# sigma = {sigma:.10g}", f"# p = {float(p):.10g}",
                                         "s,x,y", *rows]) + "\n"


def test_curve_svg_above_the_path_cap_keeps_5000_points_and_both_ends(tmp_path):
    # a short arc, monotone in x and y, so its box is set by its two end points
    # and survives any thinning that keeps them
    sigma, samples = 1.0, 6000
    out = tmp_path / "c.svg"
    argv = ["curve", "--sigma", "1", "--s-min", "1", "--s-max", "1.5", "--samples", str(samples)]
    assert main(argv + ["--format", "svg", "--output", str(out)]) == 0
    pts = geometry.polyene_curve(sigma, np.geomspace(1.0, 1.5, samples))
    ends = {0, samples - 1}
    assert set(pts.argmin(axis=0)) | set(pts.argmax(axis=0)) == ends
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    scale = 540.0 / float(max(hi - lo))
    cx, cy = 0.5 * (lo + hi)
    coords = out.read_text().split('points="')[1].split('"')[0].split()
    assert len(coords) == svgplot.MAX_PATH_POINTS
    for coord, (x, y) in zip((coords[0], coords[-1]), (pts[0], pts[-1])):
        px, py = 300.0 + (x - cx) * scale, 300.0 - (y - cy) * scale
        assert coord == f"{_svg_coord(px)},{_svg_coord(py)}"


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--sigma", "1"],
        ["wavefunction", "--sigma", "0.05", "--level", "1"],
        ["hydrogen", "--n-level", "1"],
    ],
    ids=["curve", "wavefunction", "hydrogen"],
)
def test_one_sample_is_refused(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--samples", "1", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: --samples must be at least 2\n"
    assert not out.exists()


def test_tiny_sigma_writes_one_error_line_and_nothing_else(tmp_path):
    # a numpy RuntimeWarning on the way would add lines to stderr
    env = dict(os.environ, PYTHONPATH=str(Path(spiralbox.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "spiralbox.cli", "curve", "--sigma", "1e-320", "--p", "1",
         "--output", str(tmp_path / "c.csv")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


def test_curve_sigma_whose_square_overflows_keeps_the_radius_law(tmp_path):
    # amp = sigma s / (1 + sigma^2) was 0, and every point (0, -0)
    out = tmp_path / "curve.csv"
    assert main(["curve", "--sigma", "1e160", "--p", "1", "--samples", "50",
                 "--output", str(out)]) == 0
    _, rows = read_csv(out)
    for s, x, y in ((float(c) for c in r) for r in rows):
        assert math.hypot(x, y) == pytest.approx(s, rel=1e-9)


def test_curve_where_sigma_s_overflows_keeps_the_radius_law(tmp_path):
    # sigma s overflowed to inf, and the command exited 2
    out = tmp_path / "curve.csv"
    assert main(["curve", "--sigma", "1e100", "--p", "1", "--s-min", "1e290", "--s-max", "1e300",
                 "--samples", "3", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    for s, x, y in ((float(c) for c in r) for r in rows):
        assert math.hypot(x, y) == pytest.approx(s, rel=1e-9)


def test_curve_invalid_range(tmp_path):
    code = main(
        ["curve", "--sigma", "1", "--s-min", "2", "--s-max", "1", "--output", str(tmp_path / "x")]
    )
    assert code == 2


def test_curve_beyond_frenet_budget_exits_2_at_once(tmp_path, capsys):
    # k ~ 2.5e6 near s_min would take ~4e7 RK4 sub-steps
    out = tmp_path / "c.csv"
    start = time.perf_counter()
    code = main(
        ["curve", "--sigma", "1e-6", "--p", "0.3", "--samples", "10", "--output", str(out)]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_curve_with_growing_curvature_sizes_steps_at_both_ends(tmp_path):
    # p < 0: k = s^0.5 grows to 31.6 along the one step; sized at its start,
    # k * ds reached 100 and the end point landed at (-38579.9, -3232147.9)
    out = tmp_path / "c.csv"
    argv = ["curve", "--sigma", "1", "--p", "-0.5", "--s-min", "0.001", "--s-max", "1000"]
    assert main([*argv, "--samples", "2", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    end = np.array([float(v) for v in rows[-1][1:]])
    ref = frenet_loop(lambda s: s**0.5, 0.001, 1000.0, 1000)  # k * h <= 0.032
    lo, hi = ref.min(axis=0), ref.max(axis=0)
    assert np.all(lo - 1e-6 <= end) and np.all(end <= hi + 1e-6)
    # RK4 at k * ds <= 0.1 puts it 3.6e-4 of the extent from the reference's end
    assert np.max(np.abs(end - ref[-1])) <= 1e-3 * np.max(hi - lo)


@pytest.mark.parametrize("p", ["1", "0.5"])
def test_curve_tiny_sigma_names_the_flag_and_the_overflow(tmp_path, capsys, p):
    # log(s)/sigma, or 2 sqrt(s)/sigma, overflows: once a bare "math domain error"
    out = tmp_path / "c.csv"
    assert main(["curve", "--sigma", "1e-320", "--p", p, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sigma 1e-320") and "overflows" in err
    assert not out.exists()


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["curve", "--sigma", "1", "--bogus", "3", "--output", str(tmp_path / "x")])
    assert err.value.code == 2


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    cli._parser.cache_clear()
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    for name in ("a.csv", "b.csv"):
        argv = ["spectrum", "--sigma", "0.5", "--levels", "2", "--output", str(tmp_path / name)]
        assert main(argv) == 0
    assert len(built) == 1
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_a_command_replaced_after_main_ran_is_the_one_that_runs(tmp_path, monkeypatch):
    out = str(tmp_path / "s.csv")
    assert main(["spectrum", "--sigma", "0.5", "--levels", "2", "--output", out]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_spectrum", lambda args: seen.append(args.sigma) or 7)
    assert main(["spectrum", "--sigma", "0.25", "--output", out]) == 7
    assert seen == [0.25]


def test_build_parser_returns_a_new_parser_each_time():
    assert cli.build_parser() is not cli.build_parser()


def test_help_and_a_bad_flag_exit_0_and_2_on_every_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert "spiralbox" in capsys.readouterr().out
        with pytest.raises(SystemExit) as err:
            main(["curve", "--sigma", "1", "--bogus", "3", "--output", "x"])
        assert err.value.code == 2


def test_missing_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


# --- spectrum -----------------------------------------------------------------


def test_spectrum_csv_matches_library(tmp_path):
    from spiralbox.quantum import spiral_box_spectrum

    out = tmp_path / "spec.csv"
    sigma = math.sqrt(0.004)
    assert main(["spectrum", "--sigma", repr(sigma), "--levels", "4", "--output", str(out)]) == 0
    omega_line = next(
        line for line in out.read_text().splitlines() if line.startswith("# omega")
    )
    assert float(omega_line.split("=")[1]) == pytest.approx(7.88987, rel=1e-5)
    header, rows = read_csv(out)
    assert header == ["n", "bessel_zero", "energy_hartree", "energy_ev"]
    spec = spiral_box_spectrum(sigma, 1.0, 1.0, 4)
    for row, n in zip(rows, range(1, 5)):
        assert float(row[1]) == pytest.approx(spec.zero(n), rel=1e-9)
        assert float(row[2]) == pytest.approx(spec.energy(n), rel=1e-9)


def test_spectrum_and_wavefunction_text_match_pointwise_formatting(tmp_path):
    sigma = 0.0632455532
    spec_out, psi_out = tmp_path / "spec.csv", tmp_path / "psi.csv"
    assert main(["spectrum", "--sigma", repr(sigma), "--levels", "5",
                 "--output", str(spec_out)]) == 0
    assert main(["wavefunction", "--sigma", repr(sigma), "--level", "3", "--samples", "300",
                 "--output", str(psi_out)]) == 0
    spec = quantum.spiral_box_spectrum(sigma, 1.0, 1.0, 5)
    rows = [f"{n},{spec.zero(n):.10g},{spec.energy(n):.10g},"
            f"{quantum.hartree_to_ev(spec.energy(n)):.10g}" for n in range(1, 6)]
    assert spec_out.read_text().splitlines()[2:] == ["n,bessel_zero,energy_hartree,energy_ev", *rows]
    s = np.linspace(0.0, 1.0, 300)
    rows = [f"{v:.10g},{quantum.spiral_box_wavefunction(spec, 3, float(v)):.10g}" for v in s]
    assert psi_out.read_text().splitlines()[3:] == ["s,psi", *rows]


def test_spectrum_header_only_when_no_levels(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["spectrum", "--sigma", "1.0", "--levels", "0", "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["n", "bessel_zero", "energy_hartree", "energy_ev"]
    assert rows == []


def test_spectrum_json(tmp_path):
    out = tmp_path / "spec.json"
    assert main(
        ["spectrum", "--sigma", "1e6", "--levels", "2", "--format", "json", "--output", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["omega"] == pytest.approx(0.5, rel=1e-12)
    assert [lvl["n"] for lvl in payload["levels"]] == [1, 2]
    assert payload["levels"][0]["energy_hartree"] == pytest.approx(math.pi**2 / 2.0, rel=1e-6)


# --- wavefunction ----------------------------------------------------------------


def test_wavefunction_dump(tmp_path):
    out = tmp_path / "psi.csv"
    assert main(
        [
            "wavefunction",
            "--sigma",
            "1e6",
            "--length",
            "1.0",
            "--level",
            "2",
            "--samples",
            "101",
            "--output",
            str(out),
        ]
    ) == 0
    _, rows = read_csv(out)
    assert len(rows) == 101
    for s_str, psi_str in rows[::10]:
        s, psi = float(s_str), float(psi_str)
        expected = math.sqrt(2.0) * math.sin(2.0 * math.pi * s)
        assert psi == pytest.approx(expected, abs=1e-7)


# --- oracle ------------------------------------------------------------------------


def test_oracle_effective_mode_half_order(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(
        ["oracle", "--omega", "0.5", "--levels", "2", "--grid", "400", "--output", str(out)]
    ) == 0
    _, rows = read_csv(out)
    for row, n in zip(rows, (1, 2)):
        analytic = float(row[1])
        assert analytic == pytest.approx((n * math.pi) ** 2, rel=1e-9)
        assert float(row[3]) < 1e-3


def test_oracle_effective_mode_high_order(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(
        ["oracle", "--omega", "7.88987", "--levels", "3", "--grid", "2000", "--output", str(out)]
    ) == 0
    _, rows = read_csv(out)
    assert all(float(row[3]) < 1e-3 for row in rows)


def test_oracle_literal_mode_diverges(tmp_path):
    out = tmp_path / "literal.csv"
    assert main(
        [
            "oracle",
            "--omega",
            "7.88987",
            "--mode",
            "literal",
            "--grid",
            "200",
            "--output",
            str(out),
        ]
    ) == 0
    _, rows = read_csv(out)
    grounds = [float(r[1]) for r in rows]
    assert grounds[0] > grounds[1] > grounds[2]
    assert grounds[-1] < 0.0


def test_oracle_literal_mode_takes_the_geometry_induced_potential(tmp_path, monkeypatch):
    # W = 2 V with V = -k^2/8 at k = 1/(sigma s): -1/(4 sigma^2 s^2) on every grid
    seen = []
    potential = quantum.geometry_induced_potential

    def spy(k, mass):
        value = potential(k, mass)
        seen.append((np.asarray(k), value))
        return value

    monkeypatch.setattr(quantum, "geometry_induced_potential", spy)
    argv = ["oracle", "--omega", "3", "--mode", "literal", "--grid", "100"]
    assert main(argv + ["--output", str(tmp_path / "o.csv")]) == 0
    assert [k.size for k, _ in seen] == [100, 200, 400]
    sigma = 1.0 / math.sqrt(37.0)
    for k, value in seen:
        s = np.arange(1, k.size + 1) * (1.0 / (k.size + 1))  # the interior nodes
        assert np.allclose(k, 1.0 / (sigma * s), rtol=1e-14, atol=0.0)
        assert np.allclose(2.0 * value, -1.0 / (4.0 * sigma**2 * s**2), rtol=1e-14, atol=0.0)


# --- fit and report -----------------------------------------------------------------


def test_fit_round_trip_file(tmp_path):
    out = tmp_path / "fits.csv"
    svg = tmp_path / "fits.svg"
    code = main(
        [
            "fit",
            "--molecules",
            str(DATA_DIR / "polyenes_roundtrip.json"),
            "--tol",
            "1e-5",
            "--effective-mass",
            "--svg",
            str(svg),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == [
        "name",
        "sigma",
        "omega",
        "lambda_calc_nm",
        "lambda_exp_nm",
        "percent_error",
        "effective_mass_me",
    ]
    expected_sigma = [math.sqrt(v) for v in (0.004, 0.0014, 0.0009, 0.00045)]
    for row, sig in zip(rows, expected_sigma):
        assert float(row[1]) == pytest.approx(sig, rel=1e-6)
        assert float(row[5]) <= 1e-5
        assert 0.0 < float(row[6]) < 1.0
    assert svg.read_text().startswith("<svg")


def test_fit_skips_rows_without_lambda(tmp_path, capsys):
    out = tmp_path / "fits.csv"
    code = main(
        ["fit", "--molecules", str(DATA_DIR / "polyenes.json"), "--output", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert rows == []
    assert "skipped" in capsys.readouterr().err


def test_fit_no_bracket_exits_4(tmp_path):
    mol_file = tmp_path / "weird.json"
    mol_file.write_text(
        json.dumps(
            [
                {
                    "name": "unreachable",
                    "n_pi": 8,
                    "box_length_nm": 1.39,
                    "lambda_exp_nm": 1e9,
                    "source": "synthetic",
                }
            ]
        )
    )
    out = tmp_path / "fits.csv"
    assert main(["fit", "--molecules", str(mol_file), "--output", str(out)]) == 4


def test_fit_writes_every_row_it_can_fit(tmp_path, capsys):
    records = json.loads((DATA_DIR / "polyenes_roundtrip.json").read_text())
    records[-1]["lambda_exp_nm"] = 5000.0  # above lambda at omega = 0
    mol_file = tmp_path / "mixed.json"
    mol_file.write_text(json.dumps(records))
    out = tmp_path / "fits.csv"
    assert main(["fit", "--molecules", str(mol_file), "--output", str(out)]) == 4
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == [rec["name"] for rec in records[:3]]
    expected_sigma = [math.sqrt(v) for v in (0.004, 0.0014, 0.0009)]
    for row, sig in zip(rows, expected_sigma):
        assert float(row[1]) == pytest.approx(sig, rel=1e-6)
    err = capsys.readouterr().err
    assert records[-1]["name"] in err and "attainable" in err


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_pi", "8"),
        ("n_pi", 8.0),
        ("n_pi", True),
        ("box_length_nm", "1.39"),
        ("box_length_nm", math.nan),
        ("lambda_exp_nm", "400"),
        ("lambda_exp_nm", math.inf),
        # JSON integers beyond the float range, on which math.isfinite raises
        pytest.param("box_length_nm", 10**400, id="box_length_nm-int-1e400"),
        pytest.param("lambda_exp_nm", 10**400, id="lambda_exp_nm-int-1e400"),
    ],
)
def test_molecule_file_with_a_wrong_type_exits_2(tmp_path, capsys, field, value):
    records = json.loads((DATA_DIR / "polyenes_roundtrip.json").read_text())
    records[1][field] = value
    mol_file = tmp_path / "mols.json"
    mol_file.write_text(json.dumps(records))  # nan and inf as NaN and Infinity
    out = tmp_path / "fits.csv"
    assert main(["fit", "--molecules", str(mol_file), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: record 1: ")
    assert field.removesuffix("_nm") in err and records[1]["name"] in err
    assert not out.exists()


def test_report_with_fixed_sigmas(tmp_path):
    out = tmp_path / "report.csv"
    sigmas = ",".join(repr(math.sqrt(v)) for v in (0.004, 0.0014, 0.0009, 0.00045))
    code = main(
        [
            "report",
            "--molecules",
            str(DATA_DIR / "polyenes_roundtrip.json"),
            "--sigmas",
            sigmas,
            "--output",
            str(out),
        ]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 4
    for row in rows:
        assert float(row[5]) <= 1e-6  # lambda_exp was generated at these sigmas


def test_report_sigma_count_mismatch(tmp_path):
    code = main(
        [
            "report",
            "--molecules",
            str(DATA_DIR / "polyenes.json"),
            "--sigmas",
            "0.1,0.2",
            "--output",
            str(tmp_path / "r.csv"),
        ]
    )
    assert code == 2


def test_report_refuses_sigmas_that_are_not_numbers(tmp_path, capsys):
    out = tmp_path / "r.csv"
    argv = ["report", "--molecules", str(DATA_DIR / "polyenes_roundtrip.json"),
            "--sigmas", "0.05,0.04,abc,0.03", "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --sigmas must be a comma-separated list of numbers\n"
    assert not out.exists()


_FIT_HEADER = "name,sigma,omega,lambda_calc_nm,lambda_exp_nm,percent_error"

# names csv must quote, one starting with a space, and a row with no measurement
_ODD_RECORDS = [
    {"name": ' a "quoted", name', "n_pi": 8, "box_length_nm": 1.39,
     "lambda_exp_nm": 387.268385959, "source": "synthetic"},
    {"name": " leading space", "n_pi": 10, "box_length_nm": 1.668,
     "lambda_exp_nm": 381.67689614, "source": "synthetic"},
    {"name": "not measured, yet", "n_pi": 12, "box_length_nm": 1.946,
     "lambda_exp_nm": None, "source": "synthetic"},
]


def _csv_writer_table(rows, masses):
    """The fit table as csv.writer writes it, every number at 10 significant digits."""
    def cell(v):
        return "" if v is None else f"{v:.10g}"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_FIT_HEADER.split(",") + ["effective_mass_me"])
    for row, mass in zip(rows, masses):
        numbers = (row.sigma, row.omega, row.lambda_calc, row.lambda_exp, row.percent_error, mass)
        writer.writerow([row.name, *map(cell, numbers)])
    return buf.getvalue()


@pytest.mark.parametrize("command", ["fit", "report"])
def test_fit_and_report_charts_escape_the_molecule_name(tmp_path, command):
    # the name went into the SVG as it was, and no XML parser read the file
    name = "A<&>\"B'"
    mol_file = tmp_path / "odd.json"
    mol_file.write_text(json.dumps([{"name": name, "n_pi": 8, "box_length_nm": 1.39,
                                     "lambda_exp_nm": 387.268385959, "source": "synthetic"}]))
    flags = ["--sigmas", "0.05"] if command == "report" else []
    chart = tmp_path / "chart.svg"
    argv = [command, "--molecules", str(mol_file), *flags, "--svg", str(chart),
            "--output", str(tmp_path / "table.csv")]
    assert main(argv) == 0
    texts = [el.text for el in ET.parse(chart).iter("{http://www.w3.org/2000/svg}text")]
    assert name in texts


@pytest.mark.parametrize("command", ["fit", "report"])
def test_fit_and_report_tables_are_csv_writer_bytes(tmp_path, capsys, command):
    mol_file = tmp_path / "odd.json"
    mol_file.write_text(json.dumps(_ODD_RECORDS))
    mols = polyene.load_molecules(mol_file)
    if command == "fit":
        flags = []
        mols = [m for m in mols if m.lambda_exp is not None]
        rows = [polyene.fit_sigma(m) for m in mols]
    else:
        flags = ["--sigmas", "0.05,0.04,0.03"]
        rows = polyene.report(mols, [0.05, 0.04, 0.03])
    masses = [polyene.fit_effective_mass(m) if m.lambda_exp is not None else None for m in mols]
    out = tmp_path / "table.csv"
    argv = [command, "--molecules", str(mol_file), *flags, "--effective-mass", "--output", str(out)]
    assert main(argv) == 0
    text = out.read_bytes().decode("utf-8")
    assert text == _csv_writer_table(rows, masses)
    lines = text.split("\n")
    assert lines[1].startswith('" a ""quoted"", name",0.')
    assert lines[2].startswith(" leading space,0.")
    if command == "report":
        assert lines[3].startswith('"not measured, yet",0.03,') and lines[3].endswith(",,,")
    else:
        assert "not measured, yet: no lambda_exp_nm, fit skipped" in capsys.readouterr().err


def test_text_that_utf8_cannot_carry_exits_2_and_writes_no_file(tmp_path, capsys):
    # a lone surrogate in a name: the file was opened first and left empty
    mol_file = tmp_path / "s.json"
    mol_file.write_text('[{"name": "a\\ud800b", "n_pi": 8, "box_length_nm": 1.39, "source": "x"}]')
    out = tmp_path / "s.csv"
    argv = ["report", "--molecules", str(mol_file), "--sigmas", "0.05", "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_integer_wavelength_is_written_like_any_number(tmp_path):
    # JSON 12345678901 loads as an int; the table prints it at 10 digits
    mol_file = tmp_path / "int.json"
    mol_file.write_text(json.dumps([{"name": "integer", "n_pi": 8, "box_length_nm": 1.39,
                                     "lambda_exp_nm": 12345678901, "source": "synthetic"}]))
    out = tmp_path / "table.csv"
    argv = ["report", "--molecules", str(mol_file), "--sigmas", "0.05", "--output", str(out)]
    assert main(argv) == 0
    _, rows = read_csv(out)
    assert rows[0][4] == "1.23456789e+10"


@pytest.mark.parametrize("flags", [[], ["--effective-mass"]])
def test_fit_with_every_row_skipped_writes_the_header_alone(tmp_path, flags):
    out = tmp_path / "fits.csv"
    argv = ["fit", "--molecules", str(DATA_DIR / "polyenes.json"), *flags, "--output", str(out)]
    assert main(argv) == 0
    header = _FIT_HEADER + (",effective_mass_me" if flags else "")
    assert out.read_bytes() == f"{header}\n".encode()


@pytest.mark.parametrize(
    "argv",
    [
        # lambda_calc ~ 1e307 nm, so |lambda_calc - lambda_exp| / lambda_exp overflows
        ["report", "--molecules", str(DATA_DIR / "polyenes_roundtrip.json"),
         "--sigmas", "0.05,0.05,0.05,0.05", "--mass", "3e304"],
        # a 1e-154 nm box: the gap overflows in eV, the wavelength would be 2e-306 nm
        ["report", "--molecules", "tiny.json", "--sigmas", "0.05"],
    ],
    ids=["report-mass-3e304", "report-tiny-box"],
)
def test_table_beyond_the_float_range_exits_2_and_writes_nothing(
    tmp_path, capsys, monkeypatch, argv
):
    monkeypatch.chdir(tmp_path)
    Path("tiny.json").write_text(json.dumps([{"name": "tiny", "n_pi": 8, "box_length_nm": 1e-154,
                                              "lambda_exp_nm": 300.0, "source": "synthetic"}]))
    assert main(argv + ["--effective-mass", "--svg", "bars.svg", "--output", "table.csv"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not Path("table.csv").exists() and not Path("bars.svg").exists()


def test_fit_leaves_out_a_row_beyond_the_float_range(tmp_path, capsys, monkeypatch):
    # a 1e-154 nm box: the gap overflows in eV, and only that row is left out
    monkeypatch.chdir(tmp_path)
    tiny = {"name": "tiny", "n_pi": 8, "box_length_nm": 1e-154, "lambda_exp_nm": 300.0,
            "source": "synthetic"}
    records = json.loads((DATA_DIR / "polyenes_roundtrip.json").read_text())
    Path("mixed.json").write_text(json.dumps(records + [tiny]))
    argv = ["fit", "--molecules", "mixed.json", "--effective-mass", "--svg", "bars.svg"]
    assert main(argv + ["--output", "fits.csv"]) == 4
    header, rows = read_csv("fits.csv")
    assert header == (_FIT_HEADER + ",effective_mass_me").split(",")
    assert [r[0] for r in rows] == [rec["name"] for rec in records]
    for row, rec in zip(rows, records):
        assert float(row[3]) == pytest.approx(rec["lambda_exp_nm"], abs=1e-6)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("error: tiny: ") and "overflows" in err[0]
    assert Path("bars.svg").exists()
    # with no row left, the table is the header alone
    Path("tiny.json").write_text(json.dumps([tiny]))
    assert main(["fit", "--molecules", "tiny.json", "--output", "alone.csv"]) == 4
    assert Path("alone.csv").read_text() == _FIT_HEADER + "\n"


def test_write_failure_exits_3(tmp_path):
    target = tmp_path / "no_such_dir" / "out.csv"
    assert main(["spectrum", "--sigma", "1.0", "--output", str(target)]) == 3


# --- hydrogen ------------------------------------------------------------------------


def test_hydrogen_densities_and_nodes(tmp_path):
    out = tmp_path / "hyd.csv"
    assert main(["hydrogen", "--n-level", "3", "--samples", "3000", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    psi = np.array([float(r[1]) for r in rows])
    p1 = np.array([float(r[2]) for r in rows])
    p3 = np.array([float(r[3]) for r in rows])
    signs = np.sign(psi)
    assert int(np.sum(signs[:-1] * signs[1:] < 0)) == 2
    assert np.allclose(p1, p3, rtol=1e-8, atol=1e-12 * float(p1.max()))


def test_hydrogen_ground_state_nodeless(tmp_path):
    out = tmp_path / "hyd1.csv"
    assert main(["hydrogen", "--n-level", "1", "--samples", "500", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert all(float(r[1]) > 0.0 for r in rows)


def test_hydrogen_n30_matches_closed_form(tmp_path):
    # the density reaches out to s ~ 2 n^2 a0 = 1800, far past 50 n a0 = 1500
    out = tmp_path / "hyd30.csv"
    assert main(["hydrogen", "--n-level", "30", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    s = [float(r[0]) for r in rows]
    want = []
    for x in s:
        z = 2 * mp.mpf(x) / 30
        want.append(float(mp.exp(-z / 2) * z * mp.laguerre(29, 1, z) / mp.sqrt(30**3)))
    peak = max(abs(w) for w in want)
    for r, w in zip(rows, want):
        assert abs(float(r[1]) - w) <= 1e-8 * peak
        assert abs(float(r[3]) - w * w) <= 1e-8 * peak * peak


@pytest.mark.parametrize("n", [40, 60, 200])
def test_hydrogen_large_n_writes_finite_cells(tmp_path, n):
    out = tmp_path / f"hyd{n}.csv"
    assert main(["hydrogen", "--n-level", str(n), "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 400
    assert all(math.isfinite(float(c)) for r in rows for c in r)


# (row, psi_1d) of the default 400-row table, and the peak |psi_1d| over all
# rows, from mpmath's exp(-z/2) z L_{N-1}^(1)(z) / sqrt(N^3) at 60 digits
HYDROGEN_FROZEN = {
    242: (0.008708691055654121, [
        (0, -0.0008759153970161096), (33, -0.0006566263215286827),
        (66, -0.0027280655642638874), (99, -0.0020914881597414105),
        (133, -0.0010306354699798387), (166, 0.004943466514720536),
        (199, -0.005813294352032893), (232, -2.9069255147352345e-12),
        (266, -3.3286307421616015e-28), (299, -5.128946727945831e-47),
        (332, -4.697221755765579e-68), (365, -9.764254340403654e-91),
        (399, -1.9496135354395572e-115),
    ]),
    1000: (0.002622648324611426, [
        (0, -0.00016908852753556465), (33, -0.0005277564779981421),
        (66, -0.0003597746473788413), (99, 0.00014939168680762482),
        (133, -0.0009497425928468136), (166, -0.0008272840789117132),
        (199, -0.0017821620259777812), (232, -5.886248928501404e-41),
        (266, -1.2255105828780906e-106), (299, -2.802437032835021e-184),
        (332, -3.7499561435209175e-271), (365, 0.0), (399, 0.0),
    ]),
}


@pytest.mark.parametrize("n", sorted(HYDROGEN_FROZEN))
def test_hydrogen_beyond_n_241_matches_frozen_mpmath(tmp_path, n):
    # from n = 242 exp(-z/2) underflowed against an overflowing L and the
    # command exited 2; the tail, 1e-115 at n = 242, was written as 0 from n = 187
    out = tmp_path / f"hyd{n}.csv"
    assert main(["hydrogen", "--n-level", str(n), "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 400
    assert all(math.isfinite(float(c)) for r in rows for c in r)
    # the cells hold 10 digits: the values behind them are checked to 1e-12
    psi = quantum.hydrogen_wavefunction_1d(n, np.linspace(4.0 * n * n / 400, 4.0 * n * n, 400))
    assert [r[1] for r in rows] == [f"{v:.10g}" for v in psi.tolist()]
    peak, frozen = HYDROGEN_FROZEN[n]
    for i, want in frozen:
        assert abs(psi[i] - want) <= 1e-12 * peak, (n, i)
        if abs(want) > 1e-300:
            assert psi[i] == pytest.approx(want, rel=1e-12), (n, i)


def test_hydrogen_above_the_level_cap_exits_2_at_once(tmp_path, capsys):
    out = tmp_path / "hyd.csv"
    assert main(["hydrogen", "--n-level", str(cli.MAX_N_LEVEL), "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert all(math.isfinite(float(c)) for r in rows for c in r)
    out.unlink()
    start = time.perf_counter()
    assert main(["hydrogen", "--n-level", str(cli.MAX_N_LEVEL + 1), "--output", str(out)]) == 2
    assert time.perf_counter() - start < 0.1
    assert f"at most {cli.MAX_N_LEVEL}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--n-level", "3", "--a0", "nan"],
        ["--n-level", "3", "--a0", "inf"],
        ["--n-level", "3", "--s-max", "nan"],
        ["--n-level", "3", "--a0", "1e-320"],  # prob_1d is about 1e318
    ],
)
def test_hydrogen_non_finite_input_or_result_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "hyd.csv"
    assert main(["hydrogen", *flags, "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_hydrogen_default_s_max_that_overflows_names_the_flags_given(tmp_path, capsys):
    # the default 4 n^2 a0 overflowed into "--s-max must be finite and positive, got inf"
    out = tmp_path / "hyd.csv"
    assert main(["hydrogen", "--n-level", "10000", "--a0", "1e300", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: --n-level 10000 and --a0 1e+300")
    assert "--s-max" in err and "overflows" in err
    assert not out.exists()


def test_hydrogen_huge_a0_writes_the_3d_density_equal_to_the_1d_one(tmp_path):
    # (2/(n a0))^3 underflowed past n a0 ~ 1e103, and prob_3d_radial read 0
    out = tmp_path / "hyd.csv"
    argv = ["hydrogen", "--n-level", "1", "--a0", "1e110", "--samples", "3"]
    assert main([*argv, "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["s", "psi_1d", "prob_1d", "prob_3d_radial"]
    assert [r[3] for r in rows] == [r[2] for r in rows]
    assert float(rows[0][2]) == pytest.approx(4.94104542e-111, rel=1e-9)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("a0", ["1e-300", "1e200", "1e300"])
def test_hydrogen_at_extreme_a0_writes_the_densities_of_mpmath(tmp_path, n, a0):
    # s^2 R^2 took s^2, which overflows from a0 ~ 4e153 (exit 2); past a0 ~ 1e206
    # R underflowed first, and prob_3d_radial read 0; at a0 = 1e-300 R ~ 2e450
    # overflowed (exit 2), though psi^2 ~ 0.5 / a0 is a float
    out = tmp_path / "hyd.csv"
    argv = ["hydrogen", "--n-level", str(n), "--a0", a0, "--samples", "3"]
    assert main([*argv, "--output", str(out)]) == 0
    _, rows = read_csv(out)
    with mp.workdps(30):
        for s, _, prob_1d, prob_3d in rows:
            z = 2 * mp.mpf(s) / (n * mp.mpf(a0))
            want = (mp.exp(-z / 2) * z * mp.laguerre(n - 1, 1, z)) ** 2 / (n**3 * mp.mpf(a0))
            # s is read back at 10 digits, which moves the density by about 1e-9
            assert float(prob_3d) == pytest.approx(float(want), rel=1e-8, abs=0.0)
            assert float(prob_1d) == pytest.approx(float(prob_3d), rel=1e-8, abs=0.0)


def test_hydrogen_far_out_writes_zeros(tmp_path):
    # every true value underflows; L_2(z) overflowed there, s^2 too, and the
    # command exited 2
    out = tmp_path / "hyd.csv"
    assert main(["hydrogen", "--n-level", "3", "--s-max", "1e200", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) > 1 and all(float(c) == 0.0 for r in rows for c in r[1:])


# --- determinism ----------------------------------------------------------------------


def test_identical_invocations_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["spectrum", "--sigma", "0.0374165739", "--levels", "6"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- flag ranges: a finite table or a clean exit 2 -------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--sigma", "1", "--mass", "nan"],
        ["spectrum", "--sigma", "1", "--mass", "1e-320"],  # energies overflow
        ["curve", "--sigma", "nan", "--p", "1"],
        ["curve", "--sigma", "1e300", "--p", "0.5", "--format", "svg"],  # sigma^2 overflows
        ["curve", "--sigma", "5e-324", "--p", "0.5"],  # sigma (1 - p) underflows
        ["curve", "--sigma", "1", "--p", "3", "--s-min", "1e-300", "--s-max", "1"],
        ["curve", "--sigma", "1", "--p", "0", "--s-min", "1", "--s-max", "1e308", "--samples", "2"],
        ["hydrogen", "--n-level", "1", "--a0", "1e-310"],  # prob_1d ~ 0.5 / a0 overflows
        ["report", "--molecules", str(DATA_DIR / "polyenes_roundtrip.json"),
         "--sigmas", "0.05,0.05,inf,0.05"],
        ["spectrum", "--sigma", "1e-300"],  # sigma^2 underflows
        ["spectrum", "--sigma", "1", "--length", "1e-300"],  # 2 m L^2 underflows
        ["oracle", "--omega", "1", "--length", "inf"],
        ["oracle", "--omega", "1", "--length", "1e300", "--grid", "10"],  # h^2 overflows
        ["oracle", "--omega", "1e300", "--mode", "literal", "--grid", "10"],  # sigma = 0
        ["fit", "--molecules", str(DATA_DIR / "polyenes_roundtrip.json"), "--tol", "nan"],
        # refused before any row, not left out row by row
        ["fit", "--molecules", str(DATA_DIR / "polyenes_roundtrip.json"), "--tol", "0"],
        ["fit", "--molecules", str(DATA_DIR / "polyenes_roundtrip.json"), "--mass", "0"],
        # Bessel orders above 1e4 are refused before any recurrence runs
        ["wavefunction", "--sigma", "1e-9", "--level", "1", "--samples", "3"],
        ["oracle", "--omega", "1e9", "--grid", "10"],
        ["spectrum", "--sigma", "1e-5"],
    ],
    ids=lambda argv: "-".join(tok.lstrip("-") for tok in argv if "/" not in tok),
)
def test_out_of_range_float_flag_exits_2_at_once(tmp_path, capsys, argv):
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main(argv + ["--output", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1e-05", "-inf", "-2E+1", "-.5e3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--sigma"],
        ["curve", "--p", "1", "--sigma"],
        ["wavefunction", "--level", "1", "--sigma"],
        ["oracle", "--omega", "1", "--length"],
        ["hydrogen", "--n-level", "1", "--a0"],
    ],
    ids=lambda argv: "-".join(tok.lstrip("-") for tok in argv),
)
def test_negative_value_as_its_own_token_is_the_flags_value(tmp_path, capsys, argv, value):
    # argparse took "-1e-05" or "-inf" for an option: "expected one argument"
    out = tmp_path / "out"
    assert main(argv[:-1] + [f"{argv[-1]}={value}", "--output", str(out)]) == 2
    joined = capsys.readouterr().err
    assert main(argv + [value, "--output", str(out)]) == 2
    assert capsys.readouterr().err == joined
    assert joined.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("sigmas", ["-inf,1,1,1", "-0.5,0.03,0.03,0.03", "-1e-05,1,1,1"])
def test_negative_sigma_list_as_its_own_token_is_the_flags_value(tmp_path, capsys, sigmas):
    # argparse took "-0.5,0.03,..." for an option and raised SystemExit with
    # "expected one argument"
    out = tmp_path / "out"
    argv = ["report", f"--molecules={DATA_DIR / 'polyenes_roundtrip.json'}", "--output", str(out)]
    assert main(argv + [f"--sigmas={sigmas}"]) == 2
    joined = capsys.readouterr().err
    assert main(argv + ["--sigmas", sigmas]) == 2
    assert capsys.readouterr().err == joined
    assert joined.startswith("error: ")
    assert not out.exists()


def _molecule_file(tmp_path, n_pi):
    mol_file = tmp_path / "big.json"
    mol_file.write_text(json.dumps([{"name": "long", "n_pi": n_pi, "box_length_nm": 1.39,
                                     "lambda_exp_nm": 400.0, "source": "synthetic"}]))
    return str(mol_file)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--sigma", "0.03", "--levels", str(quantum.MAX_LEVELS + 1)],
        ["spectrum", "--sigma", "0.03", "--levels", "10000"],
        ["wavefunction", "--sigma", "5e-5", "--level", str(quantum.MAX_LEVELS + 1),
         "--samples", "10"],
        ["fit", "--molecules", 8_000_000],
        ["report", "--molecules", 2 * quantum.MAX_LEVELS, "--sigmas", "0.05"],
        ["oracle", "--omega", "1", "--levels", str(quantum.MAX_LEVELS + 1)],
        ["oracle", "--omega", "1", "--levels", "1500", "--grid", "2000"],
        ["oracle", "--omega", "1", "--levels", "1500", "--mode", "literal"],
    ],
    ids=["spectrum-limit", "spectrum-10000", "wavefunction", "fit", "report",
         "oracle-limit", "oracle-1500", "oracle-literal-1500"],
)
def test_level_counts_above_the_limit_exit_2_at_once(tmp_path, capsys, argv):
    # the zero scan costs about levels^2: --levels 2000 took 49 s
    argv = [_molecule_file(tmp_path, a) if isinstance(a, int) else a for a in argv]
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(argv + ["--output", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# a command line for each size flag; `_size_flag` gives the flag and its cap
SIZE_FLAGS = {
    "curve": ["curve", "--sigma", "0.063", "--format", "svg"],
    "curve-frenet": ["curve", "--sigma", "0.5", "--p", "0.75", "--format", "svg"],
    "wavefunction": ["wavefunction", "--sigma", "0.063", "--level", "3"],
    "hydrogen": ["hydrogen", "--n-level", "1"],
    "oracle": ["oracle", "--omega", "3"],
    "oracle-literal": ["oracle", "--omega", "3", "--mode", "literal"],
}


def _size_flag(argv):
    return ("--grid", cli.MAX_GRID) if argv[0] == "oracle" else ("--samples", cli.MAX_SAMPLES)


@pytest.mark.parametrize("name", sorted(SIZE_FLAGS))
def test_size_flags_past_their_cap_exit_2_at_once(tmp_path, capsys, name):
    # 10^12 samples or grid points ended in numpy's _ArrayMemoryError traceback
    argv = SIZE_FLAGS[name]
    flag, cap = _size_flag(argv)
    out = tmp_path / "out"
    for value in (cap + 1, 10**12):
        start = time.perf_counter()
        assert main(argv + [flag, str(value), "--output", str(out)]) == 2
        assert time.perf_counter() - start < 0.1
        assert capsys.readouterr().err == f"error: {flag} must be at most {cap}, got {value}\n"
        assert not out.exists()


# a literal-mode oracle at the grid cap takes 1.1-1.8 s; effective mode shows the
# cap is taken in 0.3 s
@pytest.mark.parametrize("name", ["curve", "curve-frenet", "wavefunction", "hydrogen", "oracle"])
def test_size_flags_at_their_cap_are_accepted(tmp_path, name):
    argv = SIZE_FLAGS[name]
    flag, cap = _size_flag(argv)
    out = tmp_path / "out"
    assert main(argv + [flag, str(cap), "--output", str(out)]) == 0
    assert out.stat().st_size > 0


# one command line per command, with every flag it requires
BASE_ARGV = {
    "curve": ["curve", "--sigma", "1"],
    "spectrum": ["spectrum", "--sigma", "0.05"],
    "wavefunction": ["wavefunction", "--sigma", "0.05", "--level", "1"],
    "oracle": ["oracle", "--omega", "3"],
    "fit": ["fit", "--molecules", str(DATA_DIR / "polyenes_roundtrip.json")],
    "report": ["report", "--molecules", str(DATA_DIR / "polyenes_roundtrip.json"),
               "--sigmas", "0.05,0.05,0.05,0.05"],
    "hydrogen": ["hydrogen", "--n-level", "1"],
}


def _past_each_bound():
    # every flag of the range table that a command takes, just below its low
    # end and just above a finite high end
    parser = cli.build_parser()
    for command, argv in BASE_ARGV.items():
        names = vars(parser.parse_args(argv + ["--output", "x"]))
        for name, (low, high) in cli._FLAG_RANGES.items():
            if name not in names:
                continue
            past = [low - 1] if isinstance(low, int) else [math.nextafter(low, -math.inf)]
            past += [high + 1] if high < math.inf else []
            for value in past:
                yield pytest.param(command, f"--{name.replace('_', '-')}", value,
                                   id=f"{command}-{name}-{value!r}")


@pytest.mark.parametrize("command, flag, value", list(_past_each_bound()))
def test_a_flag_past_its_range_exits_2_in_main_naming_it(tmp_path, capsys, monkeypatch,
                                                         command, flag, value):
    # the command itself never runs: main refuses the flag first
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: pytest.fail("the command ran"))
    out = tmp_path / "out"
    assert main(BASE_ARGV[command] + [flag, repr(value), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag} must be "), err
    assert not out.exists()


def test_wavefunction_has_no_mass_flag(tmp_path, capsys):
    # the eigenfunctions do not depend on the mass: --mass changed no byte, yet
    # --mass 1e-320 exited 2 over energies the command never writes
    out = tmp_path / "psi.csv"
    with pytest.raises(SystemExit) as err:
        main(BASE_ARGV["wavefunction"] + ["--mass", "2", "--output", str(out)])
    assert err.value.code == 2
    assert "unrecognized arguments: --mass 2" in capsys.readouterr().err
    assert not out.exists()


ROW_STEPS = cli.HYDROGEN_ROW_STEPS


@pytest.mark.parametrize(
    "argv, flags, factor, cap",
    [
        (["hydrogen", "--n-level", "10000", "--samples"], f"(--n-level + {ROW_STEPS}) * --samples",
         (10_000 + ROW_STEPS, f"(10000 + {ROW_STEPS})"), cli.MAX_LEVEL_SAMPLES),
        (["oracle", "--omega", "25", "--levels", "30", "--grid"], "--levels * --grid",
         (30, "30"), cli.MAX_LEVEL_GRID),
    ],
    ids=["hydrogen", "oracle"],
)
def test_a_product_of_sizes_past_its_cap_exits_2_at_once(tmp_path, capsys, argv, flags, factor, cap):
    # hydrogen --n-level 10000 --samples 100000 took 14 s, and oracle --omega 25
    # --levels 150 --grid 160000 35 s, though each flag was within its own cap
    out = tmp_path / "out.csv"
    size = cap // factor[0]
    assert main(argv + [str(size), "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == (size if argv[0] == "hydrogen" else 30)
    out.unlink()
    start = time.perf_counter()
    assert main(argv + [str(size + 1), "--output", str(out)]) == 2
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert err == f"error: {flags} must be at most {cap}, got {factor[1]} * {size + 1}\n"
    assert not out.exists()


@pytest.mark.parametrize("n_level, samples", [(2, 1_000_000), (100, 1_000_000), (910, 100_001)])
def test_hydrogen_one_past_its_row_weighted_cap_exits_2_at_once(tmp_path, capsys, n_level, samples):
    # --n-level 100 --samples 1000000 was within the plain product cap of 10^8
    # and took 4.2-6.0 s, the 10^6-row table alone 2.2-3.5 s: a row costs about
    # as much as HYDROGEN_ROW_STEPS Laguerre steps.  One level at the samples
    # cap and --n-level 910 --samples 100000 lie on the cap (the first runs in
    # test_size_flags_at_their_cap_are_accepted); one level or sample more is refused
    out = tmp_path / "out.csv"
    argv = ["hydrogen", "--n-level", str(n_level), "--samples", str(samples), "--output", str(out)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.1
    got = f"got ({n_level} + {ROW_STEPS}) * {samples}"
    flags = f"(--n-level + {ROW_STEPS}) * --samples"
    assert capsys.readouterr().err == f"error: {flags} must be at most {cli.MAX_LEVEL_SAMPLES}, {got}\n"
    assert not out.exists()


WAVE_ROW_STEPS = cli.WAVEFUNCTION_ROW_STEPS


@pytest.mark.parametrize(
    "sigma, level, samples", [(5e-5, 1, 1_000_000), (5e-5, 1, None), (0.063, 20, None)]
)
def test_wavefunction_past_its_recurrence_cap_exits_2_at_once(tmp_path, capsys, sigma, level,
                                                              samples):
    # --sigma 5e-5 --level 1 --samples 1000000 exited 0 after 89.7 s: each sample
    # runs the Bessel recurrence down from order 10265.  None stands for one
    # sample past the cap, which the samples before it lie on
    spec = quantum.spiral_box_spectrum(sigma, 1.0, 1.0, level)
    start = specfun._miller_start(spec.zero(level), spec.omega)
    cost = start + WAVE_ROW_STEPS
    samples = samples or cli.MAX_RECURRENCE_SAMPLES // cost + 1
    out = tmp_path / "out.csv"
    argv = ["wavefunction", "--sigma", repr(sigma), "--level", str(level), "--samples", str(samples)]
    begin = time.perf_counter()
    assert main(argv + ["--output", str(out)]) == 2
    assert time.perf_counter() - begin < 1.0
    err = capsys.readouterr().err
    assert err == (
        f"error: (recurrence start + {WAVE_ROW_STEPS}) * --samples must be at most"
        f" {cli.MAX_RECURRENCE_SAMPLES}, got ({start} + {WAVE_ROW_STEPS}) * {samples}:"
        f" --sigma {sigma!r} --level {level} start it at order {start}\n"
    )
    assert not out.exists()


def test_literal_mode_oracle_ignores_the_levels_grid_cap(tmp_path):
    # literal mode solves one level whatever --levels says
    out = tmp_path / "oracle.csv"
    argv = ["oracle", "--omega", "25", "--mode", "literal", "--levels", "150"]
    assert main(argv + ["--grid", str(cli.MAX_GRID), "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 3


@pytest.mark.parametrize(
    "argv", [["--grid", "2400"], ["--grid", "10", "--mode", "literal"]], ids=["effective", "literal"]
)
def test_oracle_at_the_level_limit_is_accepted(tmp_path, argv):
    out = tmp_path / "oracle.csv"
    levels = ["--levels", str(quantum.MAX_LEVELS)]
    assert main(["oracle", "--omega", "1"] + levels + argv + ["--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == (quantum.MAX_LEVELS if "literal" not in argv else 3)


def test_oracle_levels_above_the_grid_name_both_flags(tmp_path, capsys):
    # the internal "count must lie in 1..10, got 150" named neither flag
    out = tmp_path / "oracle.csv"
    argv = ["oracle", "--omega", "1", "--levels", "150", "--grid", "10", "--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: --levels 150 ")
    assert "--grid 10" in err
    assert not out.exists()


def test_oracle_with_as_many_levels_as_grid_points_is_refused(tmp_path, capsys):
    # `--omega 3.9` here gave fd_epsilon 1019.9 at level 9 and 716.8 at level 10
    out = tmp_path / "oracle.csv"
    argv = ["oracle", "--omega", "3.9", "--levels", "10", "--grid", "10", "--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: --levels 10 needs --grid 160 or more (16 points a level), got --grid 10\n"
    assert not out.exists()


def test_oracle_grid_step_too_small_for_its_inverse_fourth_power_exits_2(tmp_path):
    # h ~ 1e-78: h^2 is a float, 1/h^4 (the squared off-diagonal) is not; this
    # used to print a RuntimeWarning and then "a computed value is nan"
    out = tmp_path / "o.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(spiralbox.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "spiralbox.cli", "oracle", "--omega", "6.2e-246", "--length",
         "1.07e-77", "--levels", "1", "--grid", "10", "--mode", "literal", "--output", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"error: the grid step {1.07e-77 / 11!r} ")
    assert not out.exists()


def test_bessel_order_just_below_the_limit_is_accepted(tmp_path):
    # sigma = 5e-5 gives omega ~ 9999.99999
    out = tmp_path / "levels.csv"
    assert main(["spectrum", "--sigma", "5e-5", "--levels", "1", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1 and math.isfinite(float(rows[0][1]))


def test_wavefunction_accepts_the_largest_order_that_spectrum_does(tmp_path):
    # sigma = 5e-5 gives omega ~ 9999.99999; the normalization asked for J at
    # order omega + 1, above the order cap, and the command exited 2
    out = tmp_path / "psi.csv"
    argv = ["wavefunction", "--sigma", "5e-5", "--level", "1", "--samples", "5"]
    assert main(argv + ["--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 5 and all(math.isfinite(float(cell)) for row in rows for cell in row)


_FLOAT = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3).map(repr),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -1.0, -2.5e-3, 5e-324, 1e300]).map(repr),
    # exponent forms, some of which argparse would take for an option
    st.sampled_from(["-1e-05", "-.5e3", "-2E+1", "2.5E+2", "1e-3"]),
)


def _flags(**flags):
    # --flag=value, or --flag value as two tokens in a share of the examples
    def tokens(values, split):
        out = []
        for name, value in values.items():
            flag = f"--{name.replace('_', '-')}"
            out += [flag, str(value)] if split else [f"{flag}={value}"]
        return out

    return st.builds(tokens, st.fixed_dictionaries(flags), st.booleans())


def _fit_command(flags, effective, rows):
    # fit on a generated molecule file: lambda_exp_nm null, near lambda(sigma)
    # at the drawn mass for sigma in [0.01, 1] (omega <= 50, where a fit takes
    # milliseconds), or above lambda(0), which is out of range
    mass = float(_option(flags, "--mass"))
    scale = mass if 0.0 < mass < math.inf else 1.0
    records = []
    for i, (n_pi, box, sigma, factor) in enumerate(rows):
        mol = polyene.Molecule(f"m{i}", n_pi, box, None, "generated")
        lam = None if sigma is None else scale * factor * polyene.lambda_model(sigma, mol)
        records.append({"name": mol.name, "n_pi": n_pi, "box_length_nm": box,
                        "lambda_exp_nm": lam, "source": mol.source})
    return ["fit", *flags, *effective], records


_FIT = st.builds(
    _fit_command,
    _flags(mass=_FLOAT, tol=_FLOAT),
    st.sampled_from([[], ["--effective-mass"]]),
    st.lists(
        st.tuples(
            st.sampled_from([2, 4, 6, 8, 10]),
            st.floats(0.5, 3.0),
            st.one_of(st.floats(0.01, 1.0), st.just(1.0), st.none()),
            st.one_of(st.floats(0.9, 1.1), st.floats(1.01, 2.0)),
        ),
        min_size=1,
        max_size=3,
    ),
)


# curvature exponents other than 1/2 and 1 take the Frenet integrator
_FRENET_P = st.sampled_from([0, 0.3, 0.75, 1.5, 2, -0.5])
_S = st.one_of(st.floats(1e-3, 1e3), st.floats(5e-324, 1e300))

_COMMANDS = st.one_of(
    _flags(
        sigma=_FLOAT, length=_FLOAT, mass=_FLOAT, levels=st.integers(0, 3),
        format=st.sampled_from(["csv", "json"]),
    ).map(lambda f: ["spectrum"] + f),
    _flags(
        sigma=_FLOAT, length=_FLOAT, level=st.integers(1, 2), samples=st.integers(2, 5),
    ).map(lambda f: ["wavefunction"] + f),
    _flags(
        sigma=_FLOAT, p=st.one_of(st.sampled_from([0.5, 1]), _FRENET_P),
        s_min=_FLOAT, s_max=_FLOAT,
        samples=st.integers(2, 5), spacing=st.sampled_from(["log", "linear"]),
        format=st.sampled_from(["csv", "svg"]),
    ).map(lambda f: ["curve"] + f),
    # the Frenet route on an ordered arc-length range, out to where s^p over-
    # and underflows
    st.tuples(
        _flags(sigma=_FLOAT, p=_FRENET_P, samples=st.integers(2, 5)),
        st.lists(_S, min_size=2, max_size=2, unique=True).map(sorted),
    ).map(lambda t: ["curve"] + t[0] + [f"--s-min={t[1][0]!r}", f"--s-max={t[1][1]!r}"]),
    _flags(
        omega=_FLOAT, length=_FLOAT, levels=st.integers(1, 2), grid=st.just(32),
        mode=st.sampled_from(["effective", "literal"]),
    ).map(lambda f: ["oracle"] + f),
    _flags(n_level=st.integers(1, 3), a0=_FLOAT, s_max=_FLOAT, samples=st.integers(2, 5)).map(
        lambda f: ["hydrogen"] + f
    ),
    st.tuples(
        _flags(mass=_FLOAT, sigmas=st.lists(_FLOAT, min_size=4, max_size=4).map(",".join)),
        st.sampled_from([[], ["--effective-mass"]]),
    ).map(lambda t: ["report", f"--molecules={DATA_DIR / 'polyenes_roundtrip.json'}", *t[0], *t[1]]),
)


def _option(argv: list[str], name: str) -> str | None:
    # the value of `name`, given as --name=value or as --name value
    for i, tok in enumerate(argv):
        if tok == name:
            return argv[i + 1]
        if tok.startswith(f"{name}="):
            return tok[len(name) + 1 :]
    return None


def _number_cells(text: str, argv: list[str]) -> list[float]:
    fmt = _option(argv, "--format")
    if fmt == "json":
        payload = json.loads(text)  # Infinity and NaN parse to floats too
        levels = payload.pop("levels")
        values = list(payload.values()) + [v for lv in levels for v in lv.values()]
        return [float(v) for v in values]
    if fmt == "svg":
        points = text.split('points="')[1].split('"')[0]
        return [float(v) for pair in points.split() for v in pair.split(",")]
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if argv[0] in ("report", "fit"):
        # the first cell is the molecule name, quoted when it holds a comma
        return [float(cell) for row in csv.reader(lines[1:]) for cell in row[1:] if cell]
    return [float(cell) for line in lines[1:] for cell in line.split(",")]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(command=st.one_of(_FIT, _COMMANDS.map(lambda argv: (argv, None))))
def test_float_flags_give_finite_cells_or_exit_2(command):
    argv, records = command
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if records is not None:
            molecules = Path(tmp) / "molecules.json"
            molecules.write_text(json.dumps(records))
            argv = argv + [f"--molecules={molecules}"]
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--output", str(out)])
        assert time.perf_counter() - start < 2.0, argv
        # a fit leaves out a row it cannot fit and exits 4
        assert code in ((0, 2, 4) if argv[0] == "fit" else (0, 2)), argv
        lines = err.getvalue().splitlines()
        assert all(line.startswith(("error: ", "warning: ")) for line in lines), argv
        if code in (0, 4):
            cells = _number_cells(out.read_text(), argv)
            assert all(math.isfinite(v) for v in cells), argv
        if code != 0:
            assert lines[-1].startswith("error: "), argv
        if code == 2:
            assert not out.exists(), argv
