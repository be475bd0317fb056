"""Command-line surface: curve galleries, spectrum tables, wavefunction dumps,
sigma/mass fitting, and analytic-vs-finite-difference oracle comparisons.

Output files are deterministic: identical invocations produce byte-identical
CSV/JSON/SVG (numbers at 10 significant digits, no timestamps).

The argument parser is built once per process, on the first call of `main`,
and reused by every later call.

Exit codes: 0 success, 2 invalid flags (each checked in `main` against its
row of `_FLAG_RANGES` before any command runs, and every number written
must be finite), 3 write failure, 4 fit failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fdsolver, geometry, polyene, quantum, specfun, svgplot

__all__ = ["main", "build_parser"]

# Size caps, refused at once with exit 2.  At the other flags' defaults a
# command at its cap takes about 2 s (Python 3.11, 2 vCPUs): 1.7 s for a
# curve CSV and 2.3 s for wavefunction or hydrogen at 10^6 samples, 1.1-1.8 s
# for a literal-mode oracle, which solves 2x and 4x the grid too, at --grid
# 160 000 (effective mode: 0.3 s), and 0.35 s for hydrogen at --n-level
# 10 000.  The cost grows with products of sizes too, so effective-mode
# --levels x --grid is capped (1.2-1.7 s at 150 x 3200), and so is hydrogen's
# (--n-level + HYDROGEN_ROW_STEPS) x --samples: a table row costs about as
# much as 100 Laguerre steps, and every corner of that cap takes 1.0-2.5 s.
# A wavefunction sample costs the Bessel recurrence from its start order down,
# at most specfun._miller_start(j_n, omega) steps, and its row about as much as
# 150 of them: (start + WAVEFUNCTION_ROW_STEPS) x --samples is capped, at 10^6
# samples up to a start of 100 (--sigma 0.063 --level 3 starts at 74), and
# every corner of that cap takes 1.0-2.3 s.
MAX_SAMPLES = 1_000_000
MAX_GRID = 160_000
MAX_N_LEVEL = 10_000
HYDROGEN_ROW_STEPS = 100
MAX_LEVEL_SAMPLES = (1 + HYDROGEN_ROW_STEPS) * MAX_SAMPLES
WAVEFUNCTION_ROW_STEPS = 150
MAX_RECURRENCE_SAMPLES = (100 + WAVEFUNCTION_ROW_STEPS) * MAX_SAMPLES
MAX_LEVEL_GRID = 3 * MAX_GRID

# [low, high] of each flag on its own; _POSITIVE starts at the least float above 0
_POSITIVE = (math.ulp(0.0), math.inf)
_FLAG_RANGES = {
    **dict.fromkeys(("sigma", "length", "mass", "a0", "tol", "s_min", "s_max"), _POSITIVE),
    "omega": (0.0, math.inf),
    "samples": (2, MAX_SAMPLES),
    "grid": (10, MAX_GRID),
    "n_level": (1, MAX_N_LEVEL),
    "level": (1, quantum.MAX_LEVELS),
    "levels": (0, quantum.MAX_LEVELS),
}


def _num(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"a computed value is {v!r}; the flags leave the floating-point range")
    return f"{v:.10g}"


def _write(path: str, text: str) -> None:
    # encoded first: text that UTF-8 cannot carry leaves no file behind
    Path(path).write_bytes(text.encode("utf-8"))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _table(header: str, columns: list, comments: list[str]) -> str:
    """CSV text with one row per index of the columns.

    Float cells are written at 10 significant digits, integer columns as
    integers and string columns quoted as `csv.writer` quotes them.  A float
    column may hold None, written as an empty cell.  Every float must be
    finite; the error names the first one in row order that is not.
    """
    cols = [np.asarray(c) for c in columns]
    # a float column holding None is an object array; None passes the check
    floats = np.column_stack([
        np.where(np.equal(c, None), 0.0, c).astype(float) if c.dtype.kind == "O" else c
        for c in cols
        if c.dtype.kind in "fO"
    ])
    bad = floats[~np.isfinite(floats)]
    if bad.size:
        _num(bad[0].item())  # raises, naming the value
    formats = ["%d" if c.dtype.kind in "iu" else "%.10g" for c in cols]
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    if all(c.dtype.kind in "fiu" for c in cols):
        row = ",".join(formats)
        lines.extend(map(row.__mod__, zip(*(c.tolist() for c in cols))))
        return "\n".join(lines) + "\n"
    cells = [
        raw if c.dtype.kind == "U" else ["" if v is None else f % v for v in c.tolist()]
        for raw, c, f in zip(columns, cols, formats)
    ]
    out = io.StringIO()
    out.write("\n".join(lines) + "\n")
    csv.writer(out, lineterminator="\n").writerows(zip(*cells))
    return out.getvalue()


# --- curve ----------------------------------------------------------------


def cmd_curve(args: argparse.Namespace) -> int:
    if not args.s_min < args.s_max:
        return _fail("need --s-min < --s-max", 2)
    sigma, p = args.sigma, args.p
    law = geometry.CurvatureLaw(sigma, p)
    if p in (0.5, 1.0):
        # closed forms, centered on the spiral's focal point
        if args.spacing == "log":
            s_vals = np.geomspace(args.s_min, args.s_max, args.samples)
        else:
            s_vals = np.linspace(args.s_min, args.s_max, args.samples)
        closed_form = geometry.polyene_curve if p == 1.0 else geometry.hydrogen_curve
        try:
            points = closed_form(sigma, s_vals)
        except ValueError as exc:
            return _fail(f"--sigma {sigma!r}: {exc}", 2)
        samples = geometry.PlaneCurveSamples(s_vals, points)
    else:
        samples = geometry.frenet_integrate(law.k, args.s_min, args.s_max, args.samples - 1)
    if not np.all(np.isfinite(samples.points)):
        return _fail("the curve leaves the floating-point range for these flags", 2)
    if args.format == "svg":
        _write(args.output, svgplot.curve_svg(samples.points))
    else:
        columns = [samples.s_values, samples.points[:, 0], samples.points[:, 1]]
        comments = [f"sigma = {_num(sigma)}", f"p = {_num(p)}"]
        _write(args.output, _table("s,x,y", columns, comments))
    return 0


# --- spectrum ---------------------------------------------------------------


def cmd_spectrum(args: argparse.Namespace) -> int:
    omega = quantum.omega_from_sigma(args.sigma)
    zeros: tuple[float, ...] = ()
    energies: tuple[float, ...] = ()
    if args.levels > 0:
        spec = quantum.spiral_box_spectrum(args.sigma, args.length, args.mass, args.levels)
        zeros, energies = spec.zeros, spec.energies
    if args.format == "json":
        payload = {
            "sigma": args.sigma,
            "omega": omega,
            "box_length": args.length,
            "mass": args.mass,
            "levels": [
                {
                    "n": n,
                    "bessel_zero": j,
                    "energy_hartree": e,
                    "energy_ev": quantum.hartree_to_ev(e),
                }
                for n, (j, e) in enumerate(zip(zeros, energies), start=1)
            ],
        }
        _write(args.output, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    else:
        e = np.array(energies, dtype=float)
        with np.errstate(over="ignore"):  # the table refuses what is not finite
            columns = [np.arange(1, e.size + 1), zeros, e, quantum.hartree_to_ev(e)]
        _write(
            args.output,
            _table(
                "n,bessel_zero,energy_hartree,energy_ev",
                columns,
                [f"sigma = {_num(args.sigma)}", f"omega = {_num(omega)}"],
            ),
        )
    return 0


# --- wavefunction -----------------------------------------------------------


def cmd_wavefunction(args: argparse.Namespace) -> int:
    # the eigenfunctions do not depend on the mass
    spec = quantum.spiral_box_spectrum(args.sigma, args.length, 1.0, args.level)
    start = specfun._miller_start(spec.zero(args.level), spec.omega)
    if (start + WAVEFUNCTION_ROW_STEPS) * args.samples > MAX_RECURRENCE_SAMPLES:
        got = f"got ({start} + {WAVEFUNCTION_ROW_STEPS}) * {args.samples}"
        cost = f"(recurrence start + {WAVEFUNCTION_ROW_STEPS}) * --samples"
        why = f"--sigma {args.sigma!r} --level {args.level} start it at order {start}"
        return _fail(f"{cost} must be at most {MAX_RECURRENCE_SAMPLES}, {got}: {why}", 2)
    s_vals = np.linspace(0.0, args.length, args.samples)
    psi = quantum.spiral_box_wavefunction(spec, args.level, s_vals)
    _write(
        args.output,
        _table(
            "s,psi",
            [s_vals, psi],
            [
                f"sigma = {_num(args.sigma)}",
                f"omega = {_num(spec.omega)}",
                f"n = {args.level}",
            ],
        ),
    )
    return 0


# --- oracle -----------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.levels < 1:
        return _fail("--levels must be at least 1", 2)
    omega, length = args.omega, args.length
    if args.mode == "effective":
        needed = fdsolver.PILOT_RATIO * args.levels
        if args.grid < needed:
            return _fail(
                f"--levels {args.levels} needs --grid {needed} or more "
                f"({fdsolver.PILOT_RATIO} points a level), got --grid {args.grid}",
                2,
            )
        if args.levels * args.grid > MAX_LEVEL_GRID:
            got = f"got {args.levels} * {args.grid}"
            return _fail(f"--levels * --grid must be at most {MAX_LEVEL_GRID}, {got}", 2)
        coeff = omega * omega - 0.25
        refined = fdsolver.richardson_refine(
            lambda s: coeff / (s * s), length, args.levels, args.grid
        )
        zeros = specfun.bessel_j_zeros(omega, args.levels)
        analytic = np.array([(j / length) ** 2 for j in zeros])
        with np.errstate(all="ignore"):  # the table refuses what is not finite
            error = np.abs(refined / analytic - 1.0)
        _write(
            args.output,
            _table(
                "n,analytic_epsilon,fd_epsilon,relative_error",
                [np.arange(1, args.levels + 1), analytic, refined, error],
                [f"omega = {_num(omega)}", "potential = (omega^2 - 1/4) / s^2"],
            ),
        )
    else:
        # curvature potential taken at face value: attractive 1/s^2, which is
        # supercritical for sigma < 1 -- the ground level dives as the grid
        # refines instead of converging
        sigma = quantum.sigma_from_omega(omega)
        if sigma == 0.0:
            return _fail(f"--omega {omega!r} is too large: sigma underflows to 0", 2)
        law = geometry.CurvatureLaw(sigma, 1.0)
        grids = [args.grid, 2 * args.grid, 4 * args.grid]
        ground = []
        for n_grid in grids:
            # -psi'' + W psi with W = 2 V, V the potential at hbar = m = 1
            op = fdsolver.discretize(
                lambda s: 2.0 * quantum.geometry_induced_potential(law.k(s), 1.0), length, n_grid
            )
            # the operator is K_N / h^2 and K_N leads K_2N, so the last ground
            # level rescaled to this h bounds this one from above and starts
            # its solve
            start = [ground[-1] * (h / op.grid_step) ** 2] if ground else None
            ground.append(float(fdsolver.eigenvalues_lowest(op, 1, start=start)[0]))
            h = op.grid_step
        _write(
            args.output,
            _table(
                "grid_points,ground_epsilon",
                [grids, ground],
                [
                    f"omega = {_num(omega)} sigma = {_num(sigma)}",
                    "potential = -1 / (4 sigma^2 s^2): unbounded below, no grid limit",
                ],
            ),
        )
    return 0


# --- fit / report -----------------------------------------------------------


def _emit_fit_table(
    rows: list[polyene.FitResult],
    mols: list[polyene.Molecule],
    args: argparse.Namespace,
) -> None:
    header = "name,sigma,omega,lambda_calc_nm,lambda_exp_nm,percent_error"
    columns = [
        [r.name for r in rows],
        [r.sigma for r in rows],
        [r.omega for r in rows],
        [r.lambda_calc for r in rows],
        # a JSON integer stays an int; as a float it is written at 10 digits
        [None if r.lambda_exp is None else float(r.lambda_exp) for r in rows],
        [r.percent_error for r in rows],
    ]
    if args.effective_mass:
        header += ",effective_mass_me"
        columns.append(
            [polyene.fit_effective_mass(m) if m.lambda_exp is not None else None for m in mols]
        )
    # both texts first: a chart that refuses a name leaves no table behind
    table = _table(header, columns, [])
    chart = svgplot.report_bar_chart(rows) if args.svg else None
    _write(args.output, table)
    if chart is not None:
        _write(args.svg, chart)


def cmd_fit(args: argparse.Namespace) -> int:
    mols = polyene.load_molecules(args.molecules)
    for mol in mols:
        # a request beyond the level cap is refused at once, not left out as a row
        levels = polyene.homo_index(mol) + 1
        if mol.lambda_exp is not None and levels > quantum.MAX_LEVELS:
            return _fail(
                f"{mol.name}: n_pi = {mol.n_pi} needs {levels} levels; "
                f"at most {quantum.MAX_LEVELS} are computed",
                2,
            )
    rows: list[polyene.FitResult] = []
    kept: list[polyene.Molecule] = []
    all_fitted = True
    for mol in mols:
        if mol.lambda_exp is None:
            print(
                f"warning: {mol.name}: no lambda_exp_nm, fit skipped", file=sys.stderr
            )
            continue
        try:
            result = polyene.fit_sigma(mol, mass=args.mass, tol=args.tol)
        except ValueError as exc:  # out of range, or beyond the float range
            why = exc if isinstance(exc, polyene.FitRangeError) else f"{mol.name}: {exc}"
            print(f"error: {why}; row left out", file=sys.stderr)
            all_fitted = False
            continue
        all_fitted = all_fitted and result.converged
        rows.append(result)
        kept.append(mol)
    _emit_fit_table(rows, kept, args)
    if not all_fitted:
        return _fail("one or more fits were out of range or missed the tolerance", 4)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    mols = polyene.load_molecules(args.molecules)
    try:
        sigmas = [float(tok) for tok in args.sigmas.split(",") if tok.strip()]
    except ValueError:
        return _fail("--sigmas must be a comma-separated list of numbers", 2)
    if not all(math.isfinite(s) for s in sigmas):
        return _fail(f"--sigmas must be finite, got {args.sigmas!r}", 2)
    if len(sigmas) != len(mols):
        return _fail(
            f"got {len(sigmas)} sigma values for {len(mols)} molecules", 2
        )
    rows = polyene.report(mols, sigmas, mass=args.mass)
    _emit_fit_table(rows, mols, args)
    return 0


# --- hydrogen ---------------------------------------------------------------


def cmd_hydrogen(args: argparse.Namespace) -> int:
    n, a0 = args.n_level, args.a0
    if (n + HYDROGEN_ROW_STEPS) * args.samples > MAX_LEVEL_SAMPLES:
        got = f"got ({n} + {HYDROGEN_ROW_STEPS}) * {args.samples}"
        cost = f"(--n-level + {HYDROGEN_ROW_STEPS}) * --samples"
        return _fail(f"{cost} must be at most {MAX_LEVEL_SAMPLES}, {got}", 2)
    s_max = args.s_max if args.s_max is not None else 4.0 * n * n * a0
    if math.isinf(s_max):
        return _fail(f"--n-level {n} and --a0 {a0!r}: the default --s-max 4 n^2 a0 overflows", 2)
    s_vals = np.linspace(s_max / args.samples, s_max, args.samples)
    psi = quantum.hydrogen_wavefunction_1d(n, s_vals, a0)
    density = quantum.hydrogen_radial_density(n, 0, s_vals, a0)
    with np.errstate(all="ignore"):  # the table refuses what is not finite
        columns = [s_vals, psi, psi * psi, density]
    _write(
        args.output,
        _table(
            "s,psi_1d,prob_1d,prob_3d_radial",
            columns,
            [f"n = {n}", f"a0 = {_num(a0)}"],
        ),
    )
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiralbox",
        description="Spiral-curve quantum spectra, curve galleries, and polyene fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", required=True)
    fits = argparse.ArgumentParser(add_help=False, parents=[output])
    fits.add_argument("--molecules", required=True, help="molecule JSON file")
    fits.add_argument("--mass", type=float, default=1.0)
    fits.add_argument("--effective-mass", action="store_true")
    fits.add_argument("--svg", default=None)
    command = functools.partial(sub.add_parser, parents=[output])

    p = command("curve", help="sample a power-law-curvature spiral to CSV or SVG")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--p", type=float, default=1.0, help="curvature exponent (default 1)")
    p.add_argument("--s-min", type=float, default=0.05)
    p.add_argument("--s-max", type=float, default=4.0)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")

    p = command("spectrum", help="spiral-box energy levels (atomic units)")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--length", type=float, default=1.0, help="box length in bohr")
    p.add_argument("--mass", type=float, default=1.0, help="mass in electron masses")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("wavefunction", help="normalized spiral-box eigenfunction dump")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--samples", type=int, default=500)

    p = command("oracle", help="finite-difference check of the Bessel spectrum")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--grid", type=int, default=4000, help="coarse interior grid points")
    p.add_argument("--mode", choices=("effective", "literal"), default="effective")

    p = command("fit", parents=[fits], help="fit sigma per molecule from measured wavelengths")
    p.add_argument("--tol", type=float, default=1e-6, help="wavelength tolerance in nm")

    p = command("report", parents=[fits], help="calculated vs experimental table at fixed sigmas")
    p.add_argument("--sigmas", required=True, help="comma-separated, one per molecule")

    p = command("hydrogen", help="1D bound state vs 3D radial density columns")
    p.add_argument("--n-level", type=int, required=True)
    p.add_argument("--a0", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--s-max", type=float, default=None)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite `--flag -1e-05` as `--flag=-1e-05`.

    argparse reads a separate token that starts with '-' as an option unless
    it looks like a plain negative decimal, so `-1e-05`, `-2E+1`, `-inf` or
    the list `-0.5,0.03` would end in "expected one argument" instead of the
    flag's own check.
    """
    out: list[str] = []
    for tok in argv:
        flag = out[-1] if out else ""
        if tok.startswith("-") and flag.startswith("--") and len(flag) > 2 and "=" not in flag:
            try:
                [float(part) for part in tok.split(",")]
            except ValueError:
                pass
            else:
                out[-1] = f"{flag}={tok}"
                continue
        out.append(tok)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    for name, value in vars(args).items():
        flag = f"--{name.replace('_', '-')}"
        if isinstance(value, float) and not math.isfinite(value):
            return _fail(f"{flag} must be finite, got {value!r}", 2)
        rule = _FLAG_RANGES.get(name)
        if rule is None or value is None:
            continue
        if value > rule[1]:
            return _fail(f"{flag} must be at most {rule[1]}, got {value}", 2)
        if value < rule[0]:
            why = f"positive, got {value!r}" if rule is _POSITIVE else f"at least {rule[0]}"
            return _fail(f"{flag} must be {why}", 2)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", 3)
    except ValueError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    raise SystemExit(main())
