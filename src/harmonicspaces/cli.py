"""Command-line interface.

Subcommands: phi-table, verify, quotient, bounds.  Exit codes: 0 success,
1 verification failure, 2 usage error, 141 a closed stdout.  A command
raises where it finds a fault, and ``main`` alone turns the exception into
an exit code and one ``error:`` line on stderr.  A refused argument raises
``UsageError``; any other ``ValueError`` is a fault of the program, and it
propagates instead of reading as bad input.  The one handler inside a
command is phi-table's for ``NonConvergence``: integrals that cannot
converge from the given ``r_ref`` at ``--tol`` are bad input, not a failed
check, and the quadrature knows neither name, so the handler makes it a
usage error naming both.  All angles are radians; CSV is the
single data format and SVG the single figure format, both deterministic
for a fixed configuration.  Each subcommand accepts only the options it
reads, and its parsed arguments are the configuration every output echoes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Iterator
from typing import TextIO

import numpy as np

from . import harmonic, quotients, topology, verify as verify_mod
from .errors import (
    DomainViolation,
    HarmonicSpacesError,
    NonConvergence,
    UnsupportedModel,
    UsageError,
)
from .numerics import DEFAULT_TOL, stencil_nearest
from .spaces import check_radius, domain, parse_model_id, theta
from .svgfig import SvgFigure

USAGE_ERROR = 2
VERIFY_FAIL = 1
#: 128 + SIGPIPE, what a shell reports for a writer whose reader went away.
BROKEN_PIPE = 141
#: A fixed cap on phi-table rows: the grid is built before any row is written.
MAX_TABLE_POINTS = 100_000
#: A fixed cap on quotient raster points per axis.  The raster is held as
#: its two axes and about 2.5 bytes a cell (region codes and run starts),
#: its orbit distances are taken in blocks of rows, and the CSV is written
#: _WRITE_ROWS raster rows at a time: 2000 per axis, 4M cells, peaks near
#: 41 MB (peak RSS of ``quotient torus|klein 0.2,0.1 --resolution 2000
#: --svg``, 31 MB at resolution 1; Python 3.11, numpy 2.4).
MAX_RESOLUTION = 2000
#: Raster rows per string that cmd_quotient hands to writelines.
_WRITE_ROWS = 16


def _run_config(args: argparse.Namespace) -> dict:
    """The parsed arguments: every option the subcommand accepts, as given."""
    return {key: value for key, value in vars(args).items() if key != "func"}


def _config_line(args: argparse.Namespace) -> str:
    return "# config " + json.dumps(_run_config(args), sort_keys=True)


def _fmt(value: float | None, precision: int) -> str:
    if value is None:
        return ""
    return f"{value:.{precision}g}"


def _opened(stack: contextlib.ExitStack, path: str | None) -> TextIO:
    """path opened for writing and closed with stack, or stdout for None."""
    if path is None:
        return sys.stdout
    return stack.enter_context(open(path, "w", encoding="utf-8"))


def _write_text(path: str | None, text: str) -> None:
    """Write text to path, or to stdout."""
    with contextlib.ExitStack() as stack:
        _opened(stack, path).write(text)


# --- phi-table ---------------------------------------------------------------


def cmd_phi_table(args: argparse.Namespace) -> int:
    model = parse_model_id(args.model)
    check_radius(model, args.r_min, args.r_max, args.r_ref)
    if not args.r_min < args.r_max:
        raise UsageError(f"r_min={args.r_min} must be below r_max={args.r_max}")
    if not 1 <= args.n <= MAX_TABLE_POINTS:
        raise UsageError(f"n must be in 1..{MAX_TABLE_POINTS}, got {args.n}")
    if not args.numeric_only and not harmonic.has_closed_form(model):
        raise UsageError(
            f"{model.model_id} has no closed form; numeric only with --numeric-only"
        )
    # the one choice of phi0 for both columns: None is the quadrature phi0
    form = None if args.numeric_only else harmonic.closed_form(model)
    p = args.precision
    grid = (
        [args.r_min + (args.r_max - args.r_min) * i / (args.n - 1) for i in range(args.n)]
        if args.n > 1
        else [args.r_min]
    )
    # (r_max - r_min) * i grows with i, so only the last point can overflow
    if not math.isfinite(grid[-1]):
        raise UsageError(
            f"the grid of {args.n} points on [{args.r_min}, {args.r_max}] would "
            f"overflow float64: (r_max - r_min) * {args.n - 1} is inf"
        )
    # the residual column differentiates at every grid point, with stencils
    # that must stay inside the radial domain
    iv = domain(model)
    for name, r in (("r_min", grid[0]), ("r_max", grid[-1])):
        nearest = stencil_nearest(r, iv)
        if nearest != r:
            raise DomainViolation(
                f"{name}={r!r} is too near an end of the domain (0, {iv.hi}) of "
                f"{model.model_id} for the residual column's finite differences; the "
                f"nearest {name} they accept is {nearest!r}"
            )
    lines = [_config_line(args)]
    lines.append("r,theta,phi1,phi0_closed,phi0_numeric_diff,laplacian_residual")
    try:
        diffs, residuals = harmonic.phi0_table(model, grid, args.r_ref, args.tol, form)
        for r, diff, residual in zip(grid, diffs, residuals):
            lines.append(
                ",".join(
                    (
                        _fmt(r, p),
                        _fmt(theta(model, r), p),
                        _fmt(harmonic.phi1(model, r), p),
                        _fmt(None if form is None else form(r), p),
                        _fmt(diff, p),
                        f"{residual:.3e}",
                    )
                )
            )
    except NonConvergence as exc:
        where = f"{model.model_id} from r_ref={args.r_ref} at --tol={args.tol}"
        raise UsageError(f"the phi0 integrals of {where} do not converge: {exc}") from None
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# --- verify -------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    # only 'verify all' samples, so only it takes a seed and echoes one
    seed = getattr(args, "seed", quotients.DEFAULT_SEED)
    if args.scope == "all":
        args.seed = seed
    elif "seed" in args:
        raise UsageError(
            f"--seed applies only to 'verify all'; {args.scope!r} samples nothing"
        )
    results = verify_mod.run_all(scope=args.scope, seed=seed)
    lines = [_config_line(args)]
    lines += [r.line() for r in results]
    n_fail = sum(1 for r in results if r.status == "FAIL")
    n_warn = sum(1 for r in results if r.status == "WARN")
    lines.append(
        f"# checked={len(results)} fail={n_fail} warn={n_warn}"
    )
    _write_text(args.out, "\n".join(lines) + "\n")
    return VERIFY_FAIL if n_fail else 0


# --- quotient ----------------------------------------------------------------


def _group_and_basepoint(group_id: str, text: str | None):
    """The deck group and the basepoint parsed from `text`, or the group's
    default basepoint.  A curved group sizes itself from the number of
    reals, and its basepoint is scaled to unit norm."""
    if text is None:
        group = quotients.make_group(group_id)
        return group, group.basepoint()
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"basepoint {text!r} is not comma-separated reals") from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"basepoint {text!r} has a non-finite coordinate")
    n = len(values)
    if group_id == "rp":
        if n < 3:
            raise UsageError("rp basepoints live on S^m, m >= 2: give m+1 reals")
        group = quotients.make_group(group_id, m=n - 1)
    elif group_id in ("lens", "cpq"):
        if n < 4 or n % 2 != 0:
            space = "S^(2k+1)" if group_id == "lens" else "CP^(2k+1)"
            raise UsageError(f"{group_id} basepoints live on {space}: give 2k+2 reals")
        group = quotients.make_group(group_id, k=n // 2 - 1)
    else:
        group = quotients.make_group(group_id)
        if n != 2:
            raise UsageError("flat basepoints take 2 coordinates")
        return group, np.asarray(values)
    v = np.asarray(values)
    # scaling by the largest modulus first keeps the norm from overflowing
    scale = np.max(np.abs(v))
    if scale == 0:
        kind = "projective" if group.ambient == "cproj" else "sphere"
        raise UsageError(f"{kind} basepoint must be nonzero")
    v = v / scale
    return group, v / np.linalg.norm(v)


def _quotient_svg(group, base, grid, radius: float, config_line: str) -> str:
    fig = SvgFigure(metadata=config_line)
    if group.ambient == "flat":
        hw = quotients.RASTER_HALFWIDTH
        cx, cy = float(base[0]), float(base[1])
        fig.x_range = (cx - hw, cx + hw)
        fig.y_range = (cy - hw, cy + hw)
        boundary = grid.cells_in(quotients.Region.BOUNDARY)
        stride = max(1, len(boundary) // 4000)
        fig.dots(grid.xs, grid.ys, boundary[::stride], radius=1.0, color="#1f3b70")
        fig.dot((cx, cy), radius=3.0, color="#b02020")
        fig.text((cx + 0.05, cy + 0.05), "P")
    else:
        # schematic slice: unit circle, and the cap of the injectivity
        # radius about the pole with the wedge that bounds it
        fig.x_range = (-1.3, 1.3)
        fig.y_range = (-1.3, 1.3)
        fig.circle((0.0, 0.0), 1.0, color="#888888")
        s, c = math.sin(radius), math.cos(radius)
        fig.line((0.0, 0.0), (s, c), color="#1f3b70", width=1.5)
        fig.line((0.0, 0.0), (-s, c), color="#1f3b70", width=1.5)
        steps = 64
        arc = [
            (math.sin(t), math.cos(t))
            for t in [radius * (2 * i / steps - 1) for i in range(steps + 1)]
        ]
        fig.polyline(arc, color="#b02020", width=2.0)
        fig.dot((0.0, 1.0), radius=3.0, color="#b02020")
        fig.text((0.05, 1.08), "P")
        if group.name == "lens":
            label = f"lens slice: {math.degrees(2 * radius):.0f}-degree wedge"
        else:
            label = f"projective slice: {math.degrees(radius):.0f}-degree cone"
        fig.text((-1.2, -1.15), label)
    return fig.render()


def _raster_rows(grid, p: int) -> Iterator[str]:
    """Yield the CSV lines of the raster, _WRITE_ROWS raster rows a string.

    Cell k of the raster is (xs[k % res], ys[k // res]).  Each x is
    followed by the suffix ",y,class" that its row and region code pick, so
    a run of equal codes along a row is one join of its xs.
    """
    res = len(grid.xs)
    xs = [_fmt(x, p) for x in grid.xs]
    ys = [_fmt(y, p) for y in grid.ys]
    classes = [region.value for region in quotients.REGION_TABLE]
    # a run starts at each row's first cell and wherever the code changes
    starts = np.ones(len(grid.codes), dtype=bool)
    np.not_equal(grid.codes[1:], grid.codes[:-1], out=starts[1:])
    starts[::res] = True
    ks = np.flatnonzero(starts)
    ends = np.append(ks[1:], len(starts))
    block, pieces = _WRITE_ROWS * res, []
    for k, end, code in zip(ks.tolist(), ends.tolist(), grid.codes[ks].tolist()):
        if k % block == 0 and pieces:
            yield "".join(pieces)
            pieces = []
        row, a = divmod(k, res)
        suffix = f",{ys[row]},{classes[code]}\n"
        pieces.append(suffix.join(xs[a : a + end - k]) + suffix)
    yield "".join(pieces)


def cmd_quotient(args: argparse.Namespace) -> int:
    if args.resolution < 1:
        raise UsageError("resolution must be >= 1")
    if args.resolution > MAX_RESOLUTION:
        raise UsageError(f"resolution must be <= {MAX_RESOLUTION}, got {args.resolution}")
    group, base = _group_and_basepoint(args.group, args.basepoint)
    res, p = args.resolution, args.precision
    # the raster first: classify_grid refuses a basepoint too far out for its
    # spacing before the orbit search can overflow on it
    grid = quotients.classify_grid(group, base, res) if group.ambient == "flat" else None
    if grid is None:
        # the curved groups draw no raster: the resolution is validated, not used
        del args.resolution
    report = quotients.injectivity_radius(group, base)
    config_line = _config_line(args)
    lines = [config_line]
    lines.append(f"# iota={report.radius:.{p}g} minimizer={report.minimizer} method=brute_force")
    rows = ()
    if grid is not None:
        lines.append("x,y,class")
        rows = _raster_rows(grid, p)
    with contextlib.ExitStack() as stack:
        # every output is opened before a byte is written, so a path that
        # cannot be written leaves no output that looks like a result
        out = _opened(stack, args.out)
        svg = None
        if args.svg is not None:
            svg = _opened(stack, args.svg or f"quotient_{args.group}.svg")
        out.write("\n".join(lines) + "\n")
        out.writelines(rows)
        if svg is not None:
            svg.write(_quotient_svg(group, base, grid, report.radius, config_line))
    return 0


# --- bounds -------------------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    report = topology.volume_bounds(parse_model_id(args.model), orientable=args.orientable)
    payload = report.to_json_dict()
    payload["config"] = _run_config(args)
    _write_text(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


# --- parser -------------------------------------------------------------------


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not (6 <= value <= 17):
        raise argparse.ArgumentTypeError(f"must be an integer in 6..17, got {text!r}")
    return value


def _true_or_false(text: str) -> bool:
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"must be true or false, got {text!r}")
    return text == "true"


_SHARED_OPTIONS = {
    "tol": dict(type=_tolerance, default=DEFAULT_TOL, help="quadrature tolerance"),
    "precision": dict(type=_precision, default=12, help="CSV decimal digits (6..17)"),
}


def _add_options(sub: argparse.ArgumentParser, *names: str) -> None:
    """Add --out and the named shared options: only those the command reads."""
    for name in names:
        sub.add_argument(f"--{name}", **_SHARED_OPTIONS[name])
    sub.add_argument("--out", default=None, help="output path (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="harmonic-spaces",
        description=(
            "Radial harmonic functions, quotient injectivity radii, and "
            "volume lower bounds on rank-1 symmetric spaces"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    pt = subs.add_parser("phi-table", help="tabulate theta, phi1, phi0 on a grid")
    pt.add_argument("model", help="model id, e.g. S3, CP2, hHP4, E2")
    pt.add_argument("r_min", type=float)
    pt.add_argument("r_max", type=float)
    pt.add_argument("n", type=int, help=f"grid points (1..{MAX_TABLE_POINTS})")
    pt.add_argument("r_ref", type=float)
    pt.add_argument(
        "--numeric-only",
        action="store_true",
        help="phi0 by quadrature on any model: phi0_closed left empty, residual of that phi0",
    )
    _add_options(pt, "tol", "precision")
    pt.set_defaults(func=cmd_phi_table)

    vf = subs.add_parser("verify", help="run the oracle verification suite")
    vf.add_argument("scope", nargs="?", default="all", help="'all' or a model id")
    vf.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help=f"RNG seed for sampling (default {quotients.DEFAULT_SEED}); 'verify all' only",
    )
    _add_options(vf)
    vf.set_defaults(func=cmd_verify)

    qt = subs.add_parser("quotient", help="injectivity radius and cut locus")
    qt.add_argument("group", help="torus | klein | rp | lens | cpq")
    qt.add_argument("basepoint", nargs="?", default=None, help="comma-separated reals")
    qt.add_argument(
        "--resolution", type=int, default=200, help=f"grid points per axis (1..{MAX_RESOLUTION})"
    )
    qt.add_argument(
        "--svg",
        nargs="?",
        const="",
        default=None,
        help="write an SVG figure (optional path)",
    )
    _add_options(qt, "precision")
    qt.set_defaults(func=cmd_quotient)

    bd = subs.add_parser("bounds", help="volume lower bounds for hyperbolic duals")
    bd.add_argument("model", help="negative-curvature model id, e.g. hCP2")
    bd.add_argument(
        "--orientable", type=_true_or_false, default=True, metavar="{true,false}"
    )
    _add_options(bd)
    bd.set_defaults(func=cmd_bounds)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse binds an optional positional with the one before it, so a
    # quotient basepoint after an option, or one starting with '-', is left over
    if args.command == "quotient" and args.basepoint is None:
        rest = extra[1:] if extra[:1] == ["--"] else extra
        if len(rest) == 1 and not rest[0].startswith("--"):
            args.basepoint, extra = rest[0], []
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: end quietly, as a shell reports SIGPIPE
        return BROKEN_PIPE
    except (UnsupportedModel, DomainViolation, UsageError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except HarmonicSpacesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_FAIL


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = BROKEN_PIPE
    if code == BROKEN_PIPE:
        # what stdout still buffers goes nowhere when the interpreter flushes it at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
