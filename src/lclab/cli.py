"""Command-line interface: one binary, one subcommand per pipeline stage.

Exit codes: 0 on success, 1 on a verification failure or internal numeric
error, 2 on usage errors (argparse reports them and exits itself).
Verdicts and reports are JSON; array data is CSV; files are written
atomically (temp file + rename), ``-`` means stdin/stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import tempfile
from typing import Iterable

from . import dist, mc, shape, specfun, transform, verify
from .errors import NonConvergenceError

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1


def _write_text(path: str, text: str | Iterable[str]) -> None:
    """Write text, or its chunks in turn, to path ('-' = stdout).

    A file is written atomically with the mode a plain ``open(path, "w")``
    leaves: the existing file's, else 0o666 less the umask (``mkstemp``
    alone would make it 0600).
    """
    chunks = (text,) if isinstance(text, str) else text
    if path == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _grid_json(grid: dist.GridDensity) -> str:
    payload = {
        "half_width": grid.half_width,
        "n_cells": grid.n_cells,
        "x": [float(x) for x in grid.nodes],
        "density": [float(v) for v in grid.values],
    }
    if grid.trusted_half_width is not None:
        payload["trusted_half_width"] = grid.trusted_half_width
    if grid.singular_points:
        payload["singular_points"] = list(grid.singular_points)
    return _json_dumps(payload)


def _emit_grid(grid: dist.GridDensity, out: str, fmt: str) -> None:
    _write_text(out, grid.to_csv() if fmt == "csv" else _grid_json(grid))


def _parse_t_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"bad t-list {text!r}: need finite numbers")
    return values


def _checked(convert, ok, what: str):
    """Argument type: ``convert(text)`` when it succeeds and ``ok`` accepts it."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


def _cell_count(text: str) -> int:
    value = _at_least(64)(text)
    if value % 2:
        raise argparse.ArgumentTypeError("cell count must be even")
    return value


_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
_open_unit_float = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_interval = _checked(
    lambda text: tuple(map(float, text.split(","))),
    lambda v: len(v) == 2 and 0.0 < v[0] < v[1] < math.inf,
    "an interval a,b with 0 < a < b",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lclab",
        description=(
            "Numeric checks around products of independent standard normals: "
            "X1*X2 has the non-log-concave density K0(|x|)/pi, yet "
            "X1*X2 - X3*X4 is exactly Laplace(0,1), which is log-concave."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-theorem", help="run the full verification pipeline")
    p.add_argument("--half-width", type=_positive_float, default=verify.HALF_WIDTH)
    p.add_argument("--cells", type=_cell_count, default=verify.N_CELLS)
    p.add_argument("--tol-shape", type=_positive_float, default=verify.TOL_SHAPE)
    p.add_argument("--tol-mgf", type=_positive_float, default=verify.TOL_MGF)
    p.add_argument("--with-mc", action="store_true", help="include the seeded KS step")
    p.add_argument("--n", type=_at_least(1), default=verify.MC_N, help="Monte Carlo sample size")
    p.add_argument("--out", default=None, help="write the JSON report here ('-' = stdout)")

    p = sub.add_parser("density", help="write a discretized density as CSV")
    p.add_argument("--law", choices=dist.builtin_density_names(), required=True)
    p.add_argument("--half-width", type=_positive_float, default=verify.HALF_WIDTH)
    p.add_argument("--cells", type=_cell_count, default=verify.N_CELLS)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("selfdiff", help="self-difference of a grid or built-in law")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--law", choices=dist.builtin_density_names())
    src.add_argument("--in", dest="infile", help="grid CSV path ('-' = stdin)")
    p.add_argument("--half-width", type=_positive_float, default=verify.HALF_WIDTH)
    p.add_argument("--cells", type=_cell_count, default=verify.N_CELLS)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("mgf", help="MGF values by every applicable route")
    p.add_argument("--law", choices=dist.builtin_density_names(), default="normal-product")
    p.add_argument("--t", type=_parse_t_list, required=True, help="comma list, e.g. 0,0.5,0.9")
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--out", default="-")

    p = sub.add_parser("shape", help="log-concavity / log-convexity verdicts")
    p.add_argument(
        "--property",
        choices=("log-concave", "log-convex", "ratio-monotone"),
        required=True,
    )
    p.add_argument("--in", dest="infile", default="-", help="grid CSV for log-concave")
    p.add_argument("--interval", type=_interval, default="0.01,30", help="a,b for interval checks")
    p.add_argument("--probes", type=_at_least(3), default=2048)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.add_argument("--out", default="-")

    p = sub.add_parser("sample", help="seeded Monte Carlo draws, optional KS test")
    p.add_argument(
        "--generator",
        choices=[g.value for g in mc.Generator],
        required=True,
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--out", default="-", help="values CSV")
    p.add_argument("--ks", action="store_true", help="also test against the Laplace CDF")
    p.add_argument("--alpha", type=_open_unit_float, default=mc.KS_ALPHA)
    p.add_argument("--ks-out", default=None, help="KS report JSON path")
    return parser


def _cmd_verify_theorem(args) -> int:
    report = verify.run_verification(
        half_width=args.half_width,
        n_cells=args.cells,
        tol_shape=args.tol_shape,
        tol_mgf=args.tol_mgf,
        with_mc=args.with_mc,
        mc_n=args.n,
    )
    for step in report.steps:
        metrics = ", ".join(f"{k}={v:.6g}" for k, v in sorted(step.metrics.items()))
        print(f"[{step.status.upper():4s}] {step.name}  ({metrics})")
    print(f"OVERALL: {'PASS' if report.overall else 'FAIL'}")
    if not report.overall:
        print(f"first failing step: {report.first_failure}")
    if args.out is not None:
        _write_text(args.out, _json_dumps(report.as_dict()))
    return EXIT_OK if report.overall else EXIT_VERIFICATION_FAILURE


def _cmd_density(args) -> int:
    grid = dist.discretize(dist.builtin_density(args.law), args.half_width, args.cells)
    _emit_grid(grid, args.out, args.format)
    return EXIT_OK


def _cmd_selfdiff(args) -> int:
    if args.law is not None:
        grid = dist.discretize(dist.builtin_density(args.law), args.half_width, args.cells)
    else:
        grid = dist.GridDensity.from_csv(_read_text(args.infile))
    _emit_grid(transform.self_difference(grid), args.out, args.format)
    return EXIT_OK


def _cmd_mgf(args) -> int:
    density = dist.builtin_density(args.law)
    routes = {"density_quadrature": lambda t: transform.mgf_via_density(density, t, args.tol)}
    if args.law == "normal-product":
        routes["gaussian_conditioning"] = lambda t: transform.mgf_via_conditioning(t, args.tol)
    rows = []
    for t in args.t:
        row = {"t": t, "law": args.law}
        for key, route in routes.items():
            m = route(t)
            row[key] = {
                "value": m.value,
                "abs_error_estimate": m.abs_error_estimate,
                "method": key.replace("_", "-"),
            }
        rows.append(row)
    _write_text(args.out, _json_dumps(rows))
    return EXIT_OK


def _cmd_shape(args) -> int:
    if args.property == "log-concave":
        grid = dist.GridDensity.from_csv(_read_text(args.infile))
        verdict = shape.check_log_concavity_grid(grid, args.tol)
    else:
        a, b = args.interval
        if args.property == "log-convex":
            verdict = shape.check_log_convexity_interval(
                specfun.k0_values, a, b, args.probes, args.tol
            )
        else:
            verdict = shape.check_ratio_monotonicity(a, b, args.probes)
    _write_text(args.out, _json_dumps(verdict.as_dict()))
    return EXIT_OK


def _values_csv(values):
    """The values CSV in chunks of ``mc._BLOCK`` rows, so it needs O(block) memory."""
    yield "value\n"
    for a in range(0, values.size, mc._BLOCK):
        yield "".join(f"{v:.17g}\n" for v in values[a : a + mc._BLOCK].tolist())


def _cmd_sample(args) -> int:
    batch = mc.sample(mc.Generator(args.generator), args.seed, args.n)
    _write_text(args.out, _values_csv(batch.values))
    if args.ks or args.ks_out is not None:
        report = mc.ks_statistic(batch, dist.laplace_cdf, args.alpha)
        payload = {"generator": batch.generator.value, "seed": batch.seed}
        payload.update(report.as_dict())
        _write_text(args.ks_out if args.ks_out is not None else "-", _json_dumps(payload))
    return EXIT_OK


_COMMANDS = {
    "verify-theorem": _cmd_verify_theorem,
    "density": _cmd_density,
    "selfdiff": _cmd_selfdiff,
    "mgf": _cmd_mgf,
    "shape": _cmd_shape,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # every lclab error but NonConvergenceError is a ValueError; a MemoryError
    # is an --n whose arrays cannot be allocated
    try:
        return _COMMANDS[args.command](args)
    except (NonConvergenceError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
