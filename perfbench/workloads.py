"""Seeded operation lists for the benchmark workloads, and the check of each output.

Every operation is one `spiralbox` command line, run through `cli.main` by the
worker.  Each carries its own inputs (sigma, omega, n, a0, ...) drawn from a
`random.Random` seeded by the workload, the run seed and the round index, so
no operation is served from a cache that an earlier one filled.  Each also
carries the check of its output against `reference` (mpmath) or against a
property the method must have.
"""

from __future__ import annotations

import csv
import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import mpmath as mp
from spiralbox.polyene import heuristic_box_length

import reference as ref


class CheckFailed(Exception):
    """An output disagrees with its reference; the message says how."""


@dataclass
class Op:
    """One command line of a round, with its input files and its check."""

    kind: str
    argv: list[str]
    check: Callable[[Path], None]
    inputs: dict[str, str] = field(default_factory=dict)
    known_fault: str | None = None
    fd_points: int = 0  # size of the largest finite-difference operator it solves


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(got: float, want, rel: float, what: str) -> None:
    want = float(want)
    if not abs(got - want) <= rel * abs(want):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r} (rel tol {rel:g})")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _columns(path: Path, header: str, count: int | None = None) -> list[list[float]]:
    head, rows = _read_csv(path)
    _require(",".join(head) == header, f"{path.name}: header {head!r}")
    if count is not None:
        _require(len(rows) == count, f"{path.name}: {len(rows)} rows, expected {count}")
    return [[float(v) for v in r] for r in rows]


def _parse_svg(path: Path) -> ET.Element:
    try:
        root = ET.fromstring(path.read_text(encoding="utf-8"))
    except ET.ParseError as exc:
        raise CheckFailed(f"{path.name} is not well-formed XML: {exc}") from None
    _require(root.tag.endswith("svg"), f"{path.name}: root element is {root.tag}")
    return root


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw from each of k equal slices of [lo, hi], shuffled.

    Keeps the summed cost of a round nearly the same for every seed while
    every operation still gets inputs of its own.
    """
    width = (hi - lo) / k
    out = [lo + (i + rng.random()) * width for i in range(k)]
    rng.shuffle(out)
    return out


def _log_stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    return [math.exp(v) for v in _stratified(rng, math.log(lo), math.log(hi), k)]


# --- fit ---------------------------------------------------------------------

FIT_TOL_NM = 1e-6
FIT_CSV_HEADER = "name,sigma,omega,lambda_calc_nm,lambda_exp_nm,percent_error,effective_mass_me"


def _molecule(i: int, n_pi: int, length_nm: float, lambda_nm: float, source: str) -> dict:
    return {"name": f"polyene-{i}-npi{n_pi}", "n_pi": n_pi, "box_length_nm": length_nm,
            "lambda_exp_nm": lambda_nm, "source": source}


def _check_fit_table(path: Path, rows: list[dict], sigmas: list[float], fitted: bool) -> None:
    table = _read_csv(path)
    _require(",".join(table[0]) == FIT_CSV_HEADER, f"{path.name}: header {table[0]!r}")
    _require(len(table[1]) == len(rows), f"{path.name}: {len(table[1])} rows for {len(rows)} molecules")
    for cells, mol, sigma in zip(table[1], rows, sigmas):
        name = mol["name"]
        _require(cells[0] == name, f"row {cells[0]!r} where {name!r} was expected")
        s_out, lam_calc, lam_exp, pct, mass = (float(cells[i]) for i in (1, 3, 4, 5, 6))
        lam_want = mol["lambda_exp_nm"]
        _close(s_out, sigma, 1e-6 if fitted else 1e-9, f"{name}: sigma")
        _close(lam_exp, lam_want, 1e-9, f"{name}: lambda_exp column")
        if fitted:
            # 10 printed digits add up to half a unit in the 10th place
            _require(
                abs(lam_calc - lam_want) <= FIT_TOL_NM + 5e-10 * lam_want,
                f"{name}: |lambda_calc - lambda_exp| = {abs(lam_calc - lam_want):.3g} nm > tol",
            )
        # the model wavelength at the sigma the table reports, from mpmath zeros
        lam_ref = ref.wavelength_nm(s_out, mol["n_pi"], mol["box_length_nm"])
        _close(lam_calc, lam_ref, 1e-8, f"{name}: lambda_calc against mpmath")
        if not fitted:  # a fitted row's error is below the printed digits
            want = 100.0 * abs(float(lam_ref) - lam_want) / lam_want
            _require(abs(pct - want) <= 1e-7 + 1e-9 * want, f"{name}: percent_error {pct!r}, expected {want!r}")
        _close(mass, ref.effective_mass(mol["n_pi"], mol["box_length_nm"], lam_want), 2e-9,
               f"{name}: effective mass h^2(2n+1)/(8 L^2 dE)")


def fit_round(rng: random.Random) -> list[Op]:
    """One cold `fit --effective-mass --svg` of a generated 4-6 row molecule file.

    One row is always the n_pi = 16 chain.  The cold sigma scan computes
    zeros 1..n+1 at every scan point (orders up to 5000) for the largest n in
    the file, and later rows reuse them from the cache, so the largest n sets
    most of the cost: 9 zeros a point at n_pi = 16, 7 at n_pi = 12.
    """
    count = rng.randint(4, 6)
    n_pis = [16] + [rng.randrange(6, 16, 2) for _ in range(count - 1)]
    rng.shuffle(n_pis)
    sigmas = [math.sqrt(rng.uniform(4e-4, 5e-3)) for _ in n_pis]
    rows = []
    for i, (n_pi, sigma) in enumerate(zip(n_pis, sigmas)):
        length = heuristic_box_length(n_pi + 1)
        rows.append(_molecule(i, n_pi, length, float(ref.wavelength_nm(sigma, n_pi, length)),
                              f"perfbench: mpmath zeros at sigma = {sigma!r}"))

    def check(d: Path) -> None:
        _check_fit_table(d / "fit.csv", rows, sigmas, fitted=True)
        _parse_svg(d / "fit.svg")

    argv = ["fit", "--molecules", "mols.json", "--tol", repr(FIT_TOL_NM), "--effective-mass",
            "--svg", "fit.svg", "--output", "fit.csv"]
    return [Op("fit", argv, check, inputs={"mols.json": json.dumps(rows, indent=1)})]


# --- oracle ------------------------------------------------------------------

ORACLE_EFFECTIVE_OPS = 6
ORACLE_LITERAL_OPS = 2
ORACLE_LEVELS = 3


def fd_tolerance(omega: float) -> float:
    """Relative FD-vs-Bessel agreement of the Richardson oracle on grids 2000-10000.

    Two errors add up.  The O(h^4) remainder left by Richardson is largest at
    small omega and small grids (2.2e-8 at omega = 1, grid 2000; 1.2e-10 from
    omega = 1.5 on).  Sturm bisection resolves an eigenvalue only to about
    eps * ||T||, which grows as grid^2: measured up to 6.4e-9 at omega = 1.2
    and 4.8e-9 at omega = 1.7 on grid 10000.  The printed 10 digits add 1e-9.
    """
    return 1e-7 if omega < 1.5 else 2e-8


def _oracle_effective(i: int, omega: float, length: float, grid: int) -> Op:
    out = f"op{i}.csv"

    def check(d: Path) -> None:
        rows = _columns(d / out, "n,analytic_epsilon,fd_epsilon,relative_error", ORACLE_LEVELS)
        for n, (idx, analytic, fd, _) in enumerate(rows, start=1):
            _require(idx == n, f"{out}: level {idx} in row {n}")
            exact = (ref.zero(omega, n) / mp.mpf(length)) ** 2
            _close(analytic, exact, 2e-9, f"{out}: analytic eps_{n}")
            _close(fd, exact, fd_tolerance(omega), f"{out}: fd eps_{n} at omega {omega:.4g}")

    argv = ["oracle", "--omega", repr(omega), "--length", repr(length), "--levels",
            str(ORACLE_LEVELS), "--grid", str(grid), "--output", out]
    return Op("oracle", argv, check, fd_points=2 * grid)


def _oracle_literal(i: int, omega: float, grid: int) -> Op:
    out = f"op{i}.csv"

    def check(d: Path) -> None:
        rows = _columns(d / out, "grid_points,ground_epsilon", 3)
        _require([int(r[0]) for r in rows] == [grid, 2 * grid, 4 * grid], f"{out}: grids {rows}")
        ground = [r[1] for r in rows]
        _require(ground[0] < 0.0, f"{out}: ground level {ground[0]} is not negative")
        _require(ground[0] > ground[1] > ground[2], f"{out}: ground levels {ground} do not fall")

    argv = ["oracle", "--omega", repr(omega), "--mode", "literal", "--grid", str(grid),
            "--output", out]
    return Op("oracle", argv, check, fd_points=4 * grid)


def oracle_round(rng: random.Random) -> list[Op]:
    """Effective-mode solves on grids 2000-10000 plus literal-mode dives."""
    ops = []
    grids = _stratified(rng, 2000, 10000, ORACLE_EFFECTIVE_OPS)
    omegas = _stratified(rng, 1.0, 25.0, ORACLE_EFFECTIVE_OPS)
    for grid, omega in zip(grids, omegas):
        ops.append(_oracle_effective(len(ops), omega, rng.uniform(0.5, 2.0), round(grid)))
    for grid in _stratified(rng, 1000, 3000, ORACLE_LITERAL_OPS):
        ops.append(_oracle_literal(len(ops), rng.uniform(1.0, 25.0), round(grid)))
    return ops


# --- tables ------------------------------------------------------------------

# Operation counts per round, balanced so that no command kind takes most of it.
SPECTRUM_OPS = 48  # half csv, half json
WAVEFUNCTION_OPS = 40
REPORT_OPS = 16
CURVE_SETS = 16  # each: p = 1 svg and csv, p = 1/2, the p = 0 circle, Frenet p = 0.75
HYDROGEN_LEVELS = range(1, 15)
HYDROGEN_FAULTS = {
    30: "closed-form check fails: the Simpson norm on [0, 50 n a0] is too short at n = 30",
    40: "QuadratureError from hydrogen_radial_3d escapes cli.main with no exit code",
}
SPIRAL_SIGMA = (0.03, 3.0)  # omega from about 17 down to 0 (sigma > 1 gives omega < 1/2)


def _spectrum(i: int, sigma: float, length: float, mass: float, levels: int, fmt: str) -> Op:
    out = f"op{i}.{fmt}"

    def check(d: Path) -> None:
        want = ref.levels(sigma, length, mass, levels)
        if fmt == "json":
            payload = json.loads((d / out).read_text(encoding="utf-8"))
            got = [lv["energy_hartree"] for lv in payload["levels"]]
            ev = [lv["energy_ev"] for lv in payload["levels"]]
            rel = 1e-11
        else:
            rows = _columns(d / out, "n,bessel_zero,energy_hartree,energy_ev")
            got = [r[2] for r in rows]
            ev = [r[3] for r in rows]
            rel = 2e-9
        _require(len(got) == levels, f"{out}: {len(got)} levels, expected {levels}")
        for n, (e, e_ev, w) in enumerate(zip(got, ev, want), start=1):
            _close(e, w, rel, f"{out}: E_{n} against j^2/(2 m L^2)")
            _close(e_ev, w * ref.HARTREE_EV, rel, f"{out}: E_{n} in eV")
        _require(all(a < b for a, b in zip(got, got[1:])), f"{out}: levels do not rise strictly")

    argv = ["spectrum", "--sigma", repr(sigma), "--length", repr(length), "--mass", repr(mass),
            "--levels", str(levels), "--format", fmt, "--output", out]
    return Op("spectrum", argv, check)


WAVEFUNCTION_SAMPLES = 2000
WAVEFUNCTION_CHECK_STRIDE = 100  # every 100th sample is compared with mpmath


def _wavefunction(i: int, sigma: float, length: float, level: int) -> Op:
    out = f"op{i}.csv"

    def check(d: Path) -> None:
        rows = _columns(d / out, "s,psi", WAVEFUNCTION_SAMPLES)
        s = [r[0] for r in rows]
        psi = [r[1] for r in rows]
        peak = max(abs(v) for v in psi)
        _require(psi[0] == 0.0, f"{out}: psi(0) = {psi[0]}")
        _require(abs(psi[-1]) <= 1e-9 * peak, f"{out}: psi(L) = {psi[-1]}")
        inner = psi[1:-1]
        changes = sum(1 for a, b in zip(inner, inner[1:]) if (a < 0.0) != (b < 0.0))
        _require(changes == level - 1, f"{out}: {changes} sign changes for level {level}")
        picks = list(range(1, WAVEFUNCTION_SAMPLES - 1, WAVEFUNCTION_CHECK_STRIDE))
        want = ref.box_wavefunction(sigma, length, level, [s[k] for k in picks])
        for k, w in zip(picks, want):
            _require(abs(psi[k] - float(w)) <= 1e-8 * peak,
                     f"{out}: psi({s[k]}) = {psi[k]!r}, mpmath {float(w)!r}")

    argv = ["wavefunction", "--sigma", repr(sigma), "--length", repr(length), "--level",
            str(level), "--samples", str(WAVEFUNCTION_SAMPLES), "--output", out]
    return Op("wavefunction", argv, check)


def _report(i: int, rng: random.Random) -> Op:
    out, svg, mols = f"op{i}.csv", f"op{i}.svg", f"mols{i}.json"
    # measured wavelengths that the fixed sigmas do not reproduce
    rows = []
    for k in range(4):
        n_pi = rng.randrange(6, 18, 2)
        rows.append(_molecule(k, n_pi, heuristic_box_length(n_pi + 1), rng.uniform(300.0, 500.0),
                              "perfbench: drawn wavelength"))
    sigmas = [math.sqrt(rng.uniform(4e-4, 5e-3)) for _ in rows]

    def check(d: Path) -> None:
        _check_fit_table(d / out, rows, sigmas, fitted=False)
        _parse_svg(d / svg)

    argv = ["report", "--molecules", mols, "--sigmas", ",".join(repr(s) for s in sigmas),
            "--effective-mass", "--svg", svg, "--output", out]
    return Op("report", argv, check, inputs={mols: json.dumps(rows, indent=1)})


def _radius_law(out: str, law: Callable[[float], float]) -> Callable[[Path], None]:
    def check(d: Path) -> None:
        for s, x, y in _columns(d / out, "s,x,y"):
            _close(math.hypot(x, y), law(s), 1e-8, f"{out}: radius at s = {s}")

    return check


def _curve_polyene_svg(i: int, sigma: float, s_max: float, samples: int) -> Op:
    out = f"op{i}.svg"

    def check(d: Path) -> None:
        root = _parse_svg(d / out)
        lines = [e for e in root.iter() if e.tag.endswith("polyline")]
        _require(len(lines) == 1, f"{out}: {len(lines)} polylines")
        pts = [tuple(map(float, p.split(","))) for p in lines[0].get("points").split()]
        _require(len(pts) == samples, f"{out}: {len(pts)} points for {samples} samples")
        size = float(root.get("width"))
        _require(all(0.0 <= x <= size and 0.0 <= y <= size for x, y in pts), f"{out}: off canvas")

    argv = ["curve", "--sigma", repr(sigma), "--p", "1", "--s-max", repr(s_max), "--samples",
            str(samples), "--format", "svg", "--output", out]
    return Op("curve", argv, check)


def _curve_polyene_csv(i: int, sigma: float, s_max: float, samples: int) -> Op:
    out = f"op{i}.csv"
    argv = ["curve", "--sigma", repr(sigma), "--p", "1", "--s-max", repr(s_max), "--samples",
            str(samples), "--output", out]
    return Op("curve", argv, _radius_law(out, lambda s: sigma * s / math.sqrt(1.0 + sigma * sigma)))


def _curve_hydrogen(i: int, sigma: float, s_max: float, samples: int) -> Op:
    out = f"op{i}.csv"
    argv = ["curve", "--sigma", repr(sigma), "--p", "0.5", "--s-max", repr(s_max), "--samples",
            str(samples), "--output", out]
    return Op("curve", argv, _radius_law(out, lambda s: sigma * math.sqrt(s + sigma * sigma / 4.0)))


def _curve_circle(i: int, radius: float, samples: int) -> Op:
    """p = 0: a circle of radius sigma, started at the origin heading along +x."""
    out = f"op{i}.csv"

    def check(d: Path) -> None:
        rows = _columns(d / out, "s,x,y", samples)
        for s, x, y in rows:
            _close(math.hypot(x, y - radius), radius, 1e-7, f"{out}: radius at s = {s}")
        gap = math.hypot(rows[-1][1] - rows[0][1], rows[-1][2] - rows[0][2])
        _require(gap <= 1e-6 * radius, f"{out}: circle does not close, gap {gap:.3g}")

    argv = ["curve", "--sigma", repr(radius), "--p", "0", "--s-min", "1e-9", "--s-max",
            repr(2.0 * math.pi * radius), "--samples", str(samples), "--spacing", "linear",
            "--output", out]
    return Op("curve", argv, check)


def _curve_frenet(i: int, sigma: float, s_min: float, s_max: float, samples: int) -> Op:
    """p = 0.75 through the Frenet integrator; checked by length and FD curvature."""
    out, p = f"op{i}.csv", 0.75

    def check(d: Path) -> None:
        rows = _columns(d / out, "s,x,y", samples)
        length = sum(math.hypot(b[1] - a[1], b[2] - a[2]) for a, b in zip(rows, rows[1:]))
        _close(length, s_max - s_min, 1e-3, f"{out}: polyline length")
        # a stencil of about 0.005 in s keeps both the truncation error and the
        # amplified rounding of the 10 printed digits far below the tolerance
        stride = max(1, round(0.005 * (samples - 1) / (s_max - s_min)))
        h = stride * (s_max - s_min) / (samples - 1)
        nodes = rows[::stride]
        for a, b, c in zip(nodes, nodes[1:], nodes[2:]):
            dx, dy = (c[1] - a[1]) / (2 * h), (c[2] - a[2]) / (2 * h)
            ddx, ddy = (c[1] - 2 * b[1] + a[1]) / (h * h), (c[2] - 2 * b[2] + a[2]) / (h * h)
            k = abs(dx * ddy - dy * ddx) / math.hypot(dx, dy) ** 3
            _close(k, 1.0 / (sigma * b[0] ** p), 1e-3, f"{out}: curvature at s = {b[0]}")

    argv = ["curve", "--sigma", repr(sigma), "--p", str(p), "--s-min", repr(s_min), "--s-max",
            repr(s_max), "--samples", str(samples), "--output", out]
    return Op("curve", argv, check)


def _curve_set(i: int, rng: random.Random) -> list[Op]:
    u, r = rng.uniform, rng.randrange
    return [
        _curve_polyene_svg(i, u(0.03, 0.3), u(2.0, 6.0), r(3000, 5000)),
        _curve_polyene_csv(i + 1, u(0.03, 0.3), u(2.0, 6.0), r(3000, 5000)),
        _curve_hydrogen(i + 2, u(0.1, 1.0), u(2.0, 8.0), r(3000, 5000)),
        _curve_circle(i + 3, u(0.5, 2.0), r(3000, 5000)),
        _curve_frenet(i + 4, u(0.3, 1.0), u(0.5, 1.0), u(2.5, 4.0), r(1500, 2500)),
    ]


HYDROGEN_CHECK_STRIDE = 4  # every 4th sample is compared with the mpmath closed form


def _hydrogen(i: int, n: int, a0: float) -> Op:
    out = f"op{i}.csv"

    def check(d: Path) -> None:
        rows = _columns(d / out, "s,psi_1d,prob_1d,prob_3d_radial", 400)
        picks = rows[::HYDROGEN_CHECK_STRIDE]
        want = [float(v) for v in ref.hydrogen_psi(n, a0, [r[0] for r in picks])]
        peak = max(abs(v) for v in want)
        for r, w in zip(picks, want):
            _require(abs(r[1] - w) <= 1e-8 * peak,
                     f"{out}: psi_1d({r[0]}) = {r[1]!r}, closed form {w!r}")
        top = max(r[2] for r in rows)
        for r in rows:
            _require(abs(r[3] - r[2]) <= 1e-8 * top, f"{out}: prob_3d_radial != prob_1d at s = {r[0]}")

    argv = ["hydrogen", "--n-level", str(n), "--a0", repr(a0), "--output", out]
    return Op("hydrogen", argv, check, known_fault=HYDROGEN_FAULTS.get(n))


def tables_round(rng: random.Random) -> list[Op]:
    """The other README commands, each on inputs of its own."""
    ops: list[Op] = []
    sigmas = _log_stratified(rng, *SPIRAL_SIGMA, SPECTRUM_OPS)
    for k, sigma in enumerate(sigmas):
        ops.append(_spectrum(len(ops), sigma, rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0),
                             rng.randint(3, 8), "json" if k % 2 else "csv"))
    for sigma in _log_stratified(rng, *SPIRAL_SIGMA, WAVEFUNCTION_OPS):
        ops.append(_wavefunction(len(ops), sigma, rng.uniform(0.5, 3.0), rng.randint(1, 6)))
    for _ in range(REPORT_OPS):
        ops.append(_report(len(ops), rng))
    for _ in range(CURVE_SETS):
        ops.extend(_curve_set(len(ops), rng))
    for n in HYDROGEN_LEVELS:
        ops.append(_hydrogen(len(ops), n, rng.uniform(0.5, 2.0)))
    for n in HYDROGEN_FAULTS:  # fixed inputs: these fail whatever the seed
        ops.append(_hydrogen(len(ops), n, 1.0))
    return ops


ROUNDS = {"fit": fit_round, "oracle": oracle_round, "tables": tables_round}
