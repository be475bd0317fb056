"""Command-line surface: curve galleries, spectrum tables, wavefunction dumps,
sigma/mass fitting, and analytic-vs-finite-difference oracle comparisons.

Output files are deterministic: identical invocations produce byte-identical
CSV/JSON/SVG (numbers at 10 significant digits, no timestamps).

The argument parser is built once per process, on the first call of `main`,
and reused by every later call.

Exit codes: 0 success, 2 invalid flags (every float flag must be finite, and
so must every number written), 3 write failure, 4 fit failure.
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


def _num(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"a computed value is {v!r}; the flags leave the floating-point range")
    return f"{v:.10g}"


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


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
    if not (0.0 < args.s_min < args.s_max):
        return _fail("need 0 < --s-min < --s-max", 2)
    if args.samples < 2:
        return _fail("--samples must be at least 2", 2)
    sigma, p = args.sigma, args.p
    law = geometry.CurvatureLaw(sigma, p)
    if p in (0.5, 1.0):
        # closed forms, centered on the spiral's focal point
        if args.spacing == "log":
            s_vals = geometry.log_spaced(args.s_min, args.s_max, args.samples)
        else:
            s_vals = np.linspace(args.s_min, args.s_max, args.samples)
        try:
            # the turning angle is largest at an end of the range or at the
            # reference point s = 1
            for s in (args.s_min, args.s_max, 1.0):
                law.turning_angle(s)
        except ValueError as exc:
            return _fail(f"--sigma {sigma!r} is too small: {exc}", 2)
        if p == 1.0:
            samples = geometry.sample_polyene_curve(sigma, s_vals)
        else:
            samples = geometry.sample_hydrogen_curve(sigma, s_vals)
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
    if args.sigma <= 0 or args.length <= 0 or args.mass <= 0 or args.levels < 0:
        return _fail("--sigma, --length, --mass must be positive; --levels >= 0", 2)
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
    if args.sigma <= 0 or args.length <= 0 or args.mass <= 0 or args.level < 1:
        return _fail("--sigma, --length, --mass must be positive; --level >= 1", 2)
    if args.samples < 2:
        return _fail("--samples must be at least 2", 2)
    spec = quantum.spiral_box_spectrum(args.sigma, args.length, args.mass, args.level)
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
    if args.omega < 0 or args.length <= 0 or args.levels < 1 or args.grid < 10:
        return _fail("need --omega >= 0, --length > 0, --levels >= 1, --grid >= 10", 2)
    if args.levels > quantum.MAX_LEVELS:
        return _fail(
            f"--levels {args.levels}: at most {quantum.MAX_LEVELS} levels are computed", 2
        )
    omega, length = args.omega, args.length
    if args.mode == "effective":
        if args.levels > args.grid:
            return _fail(
                f"--levels {args.levels} is more than --grid {args.grid}: "
                "a grid of N points has only N levels",
                2,
            )
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
        sigma = 1.0 / math.sqrt(1.0 + 4.0 * omega * omega)
        if sigma == 0.0:
            return _fail(f"--omega {omega!r} is too large: sigma underflows to 0", 2)
        coeff = -1.0 / (4.0 * sigma * sigma)
        grids = [args.grid, 2 * args.grid, 4 * args.grid]
        ground = []
        for n_grid in grids:
            op = fdsolver.discretize(lambda s: coeff / (s * s), length, n_grid)
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
    _write(args.output, _table(header, columns, []))
    if args.svg:
        _write(args.svg, svgplot.report_bar_chart(rows))


def cmd_fit(args: argparse.Namespace) -> int:
    if not (args.mass > 0.0 and args.tol > 0.0):
        return _fail("--mass and --tol must be positive", 2)
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


# The Laguerre recurrence runs n steps over the grid; at the default 400
# samples --n-level 10000 takes about 0.35 s (Python 3.11, 2 vCPUs).
MAX_N_LEVEL = 10_000


def cmd_hydrogen(args: argparse.Namespace) -> int:
    n = args.n_level
    if not 1 <= n <= MAX_N_LEVEL:
        return _fail(f"--n-level must be at least 1 and at most {MAX_N_LEVEL}, got {n}", 2)
    if args.samples < 2:
        return _fail("--samples must be at least 2", 2)
    a0 = args.a0
    if a0 <= 0.0:
        return _fail(f"--a0 must be positive, got {a0!r}", 2)
    s_max = args.s_max if args.s_max is not None else 4.0 * n * n * a0
    if not (math.isfinite(s_max) and s_max > 0.0):
        return _fail(f"--s-max must be finite and positive, got {s_max!r}", 2)
    s_vals = np.linspace(s_max / args.samples, s_max, args.samples)
    psi = quantum.hydrogen_wavefunction_1d(n, s_vals, a0)
    radial = quantum.hydrogen_radial_3d(n, 0, s_vals, a0)
    with np.errstate(all="ignore"):  # the table refuses what is not finite
        # s^2 R^2 is 0 where R underflows to 0, also where s^2 overflows
        density = np.where(radial == 0.0, 0.0, s_vals * s_vals * radial * radial)
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

    p = sub.add_parser("curve", help="sample a power-law-curvature spiral to CSV or SVG")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--p", type=float, default=1.0, help="curvature exponent (default 1)")
    p.add_argument("--s-min", type=float, default=0.05)
    p.add_argument("--s-max", type=float, default=4.0)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--output", required=True)

    p = sub.add_parser("spectrum", help="spiral-box energy levels (atomic units)")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--length", type=float, default=1.0, help="box length in bohr")
    p.add_argument("--mass", type=float, default=1.0, help="mass in electron masses")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", required=True)

    p = sub.add_parser("wavefunction", help="normalized spiral-box eigenfunction dump")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--output", required=True)

    p = sub.add_parser("oracle", help="finite-difference check of the Bessel spectrum")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--grid", type=int, default=4000, help="coarse interior grid points")
    p.add_argument("--mode", choices=("effective", "literal"), default="effective")
    p.add_argument("--output", required=True)

    p = sub.add_parser("fit", help="fit sigma per molecule from measured wavelengths")
    p.add_argument("--molecules", required=True, help="molecule JSON file")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6, help="wavelength tolerance in nm")
    p.add_argument("--effective-mass", action="store_true")
    p.add_argument("--svg", default=None)
    p.add_argument("--output", required=True)

    p = sub.add_parser("report", help="calculated vs experimental table at fixed sigmas")
    p.add_argument("--molecules", required=True)
    p.add_argument("--sigmas", required=True, help="comma-separated, one per molecule")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--effective-mass", action="store_true")
    p.add_argument("--svg", default=None)
    p.add_argument("--output", required=True)

    p = sub.add_parser("hydrogen", help="1D bound state vs 3D radial density columns")
    p.add_argument("--n-level", type=int, required=True)
    p.add_argument("--a0", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--s-max", type=float, default=None)
    p.add_argument("--output", required=True)

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
        if isinstance(value, float) and not math.isfinite(value):
            return _fail(f"--{name.replace('_', '-')} must be finite, got {value!r}", 2)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", 3)
    except ValueError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    raise SystemExit(main())
