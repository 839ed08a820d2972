"""Command-line interface.

Subcommands: phi-table, verify, quotient, bounds.  Exit codes: 0 success,
1 verification failure, 2 usage error.  A command raises where it finds a
fault, and ``main`` alone turns the exception into an exit code and one
``error:`` line on stderr.  All angles are radians; CSV is the
single data format and SVG the single figure format, both deterministic
for a fixed configuration.  Each subcommand accepts only the options it
reads, and its parsed arguments are the configuration every output echoes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import harmonic, quotients, topology, verify as verify_mod
from .errors import DomainViolation, HarmonicSpacesError, UnsupportedModel
from .spaces import check_radius, parse_model_id, theta
from .svgfig import SvgFigure

USAGE_ERROR = 2
VERIFY_FAIL = 1
#: A fixed cap on phi-table rows: the grid is built before any row is written.
MAX_TABLE_POINTS = 100_000
#: A fixed cap on quotient raster points per axis.  The raster, its regions
#: and the CSV lines built from it cost about 180 bytes a cell (measured at
#: 800 per axis), so 2000 per axis, 4M cells, peaks near 0.75 GB.
MAX_RESOLUTION = 2000
VERIFY_SEED = 42


def _run_config(args: argparse.Namespace) -> dict:
    """The parsed arguments: every option the subcommand accepts, as given."""
    return {key: value for key, value in vars(args).items() if key != "func"}


def _config_line(args: argparse.Namespace) -> str:
    return "# config " + json.dumps(_run_config(args), sort_keys=True)


def _fmt(value: float | None, precision: int) -> str:
    if value is None:
        return ""
    return f"{value:.{precision}g}"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# --- phi-table ---------------------------------------------------------------


def cmd_phi_table(args: argparse.Namespace) -> int:
    model = parse_model_id(args.model)
    check_radius(model, args.r_min, args.r_max, args.r_ref)
    if not args.r_min < args.r_max:
        raise ValueError(f"r_min={args.r_min} must be below r_max={args.r_max}")
    if not 1 <= args.n <= MAX_TABLE_POINTS:
        raise ValueError(f"n must be in 1..{MAX_TABLE_POINTS}, got {args.n}")
    closed = harmonic.has_closed_form(model)
    if not closed and not args.numeric_only:
        raise ValueError(
            f"{model.model_id} has no closed form; numeric only with --numeric-only"
        )
    p = args.precision
    grid = (
        [args.r_min + (args.r_max - args.r_min) * i / (args.n - 1) for i in range(args.n)]
        if args.n > 1
        else [args.r_min]
    )
    if closed:
        # the grid was checked above; derivative's guard keeps stencils inside
        phi0_fn = harmonic.closed_form(model)
    else:
        phi0_fn = lambda r: harmonic.phi0_numeric(model, r, args.r_ref, tol=args.tol)
    lines = [_config_line(args)]
    lines.append("r,theta,phi1,phi0_closed,phi0_numeric_diff,laplacian_residual")
    try:
        for r in grid:
            phi0_val = phi0_fn(r) if closed else None
            residual = harmonic.harmonicity_residual(model, phi0_fn, r)
            lines.append(
                ",".join(
                    (
                        _fmt(r, p),
                        _fmt(theta(model, r), p),
                        _fmt(harmonic.phi1(model, r), p),
                        _fmt(phi0_val, p),
                        _fmt(harmonic.phi0_numeric(model, r, args.r_ref, tol=args.tol), p),
                        f"{residual:.3e}",
                    )
                )
            )
    except OverflowError:
        raise OverflowError(
            f"{model.model_id} values overflow float64 on the grid "
            f"[{args.r_min}, {args.r_max}] with r_ref={args.r_ref}"
        ) from None
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# --- verify -------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    # only 'verify all' samples, so only it takes a seed and echoes one
    seed = getattr(args, "seed", VERIFY_SEED)
    if args.scope == "all":
        args.seed = seed
    elif "seed" in args:
        raise ValueError(
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
    default basepoint.  Sphere and projective groups size themselves from
    the number of reals."""
    if text is None:
        group = verify_mod.make_group(group_id)
        return group, group.basepoint()
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"basepoint {text!r} is not comma-separated reals") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"basepoint {text!r} has a non-finite coordinate")
    n = len(values)
    if group_id == "rp":
        if n < 3:
            raise ValueError("rp basepoints live on S^m, m >= 2: give m+1 reals")
        group = verify_mod.make_group(group_id, m=n - 1)
        return group, _normalized(np.asarray(values), "sphere")
    if group_id == "lens":
        if n < 4 or n % 2 != 0:
            raise ValueError("lens basepoints live on S^(2k+1): give 2k+2 reals")
        group = verify_mod.make_group(group_id, k=n // 2 - 1)
        return group, _normalized(np.asarray(values), "sphere")
    if group_id == "cpq":
        # 4k+4 reals are interleaved re,im; 2k+2 reals a real vector
        if n % 4 == 0 and n >= 8:
            v = np.asarray(values[0::2]) + 1j * np.asarray(values[1::2])
        elif n % 2 == 0 and n >= 4:
            v = np.asarray(values, dtype=complex)
        else:
            raise ValueError("cpq basepoints take 2k+2 reals or 4k+4 interleaved re,im")
        group = verify_mod.make_group(group_id, k=len(v) // 2 - 1)
        return group, _normalized(v, "projective")
    group = verify_mod.make_group(group_id)
    if n != 2:
        raise ValueError("flat basepoints take 2 coordinates")
    return group, np.asarray(values)


def _normalized(v: np.ndarray, kind: str) -> np.ndarray:
    # scaling by the largest modulus first keeps the norm from overflowing
    scale = np.max(np.abs(v))
    if scale == 0:
        raise ValueError(f"{kind} basepoint must be nonzero")
    v = v / scale
    return v / np.linalg.norm(v)


def _quotient_svg(group, base, grid, config_line: str) -> str:
    fig = SvgFigure(metadata=config_line)
    if group.ambient == "flat":
        hw = quotients.RASTER_HALFWIDTH
        cx, cy = float(base[0]), float(base[1])
        fig.x_range = (cx - hw, cx + hw)
        fig.y_range = (cy - hw, cy + hw)
        assert grid is not None
        boundary = grid.points[grid.regions == quotients.Region.BOUNDARY]
        stride = max(1, len(boundary) // 4000)
        for pt in boundary[::stride]:
            fig.dot(pt, radius=1.0, color="#1f3b70")
        fig.dot((cx, cy), radius=3.0, color="#b02020")
        fig.text((cx + 0.05, cy + 0.05), "P")
    else:
        # schematic slice: unit circle, fundamental wedge at 45 degrees,
        # cap of radius pi/4 about the pole
        fig.x_range = (-1.3, 1.3)
        fig.y_range = (-1.3, 1.3)
        fig.circle((0.0, 0.0), 1.0, color="#888888")
        s = math.sqrt(0.5)
        fig.line((0.0, 0.0), (s, s), color="#1f3b70", width=1.5)
        fig.line((0.0, 0.0), (-s, s), color="#1f3b70", width=1.5)
        steps = 64
        arc = [
            (math.sin(t), math.cos(t))
            for t in [(-0.25 + 0.5 * i / steps) * math.pi for i in range(steps + 1)]
        ]
        fig.polyline(arc, color="#b02020", width=2.0)
        fig.dot((0.0, 1.0), radius=3.0, color="#b02020")
        fig.text((0.05, 1.08), "P")
        label = "lens slice: 90-degree wedge" if group.name == "lens" else (
            "projective slice: 45-degree cone"
        )
        fig.text((-1.2, -1.15), label)
    return fig.render()


def cmd_quotient(args: argparse.Namespace) -> int:
    if args.resolution < 1:
        raise ValueError("resolution must be >= 1")
    if args.resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution must be <= {MAX_RESOLUTION}, got {args.resolution}")
    group, base = _group_and_basepoint(args.group, args.basepoint)
    res, p = args.resolution, args.precision
    # the raster first: classify_grid refuses a basepoint too far out for its
    # spacing before the orbit search can overflow on it
    grid = quotients.classify_grid(group, base, res) if group.ambient == "flat" else None
    report = quotients.injectivity_radius(group, base)
    config_line = _config_line(args)
    lines = [config_line]
    lines.append(
        f"# iota={report.radius:.{p}g} minimizer={report.minimizer} "
        f"method={report.method}"
    )
    if grid is not None:
        lines.append("x,y,class")
        # the raster is a meshgrid: row k is (xs[k % res], ys[k // res])
        xs = [_fmt(x, p) for x in grid.points[:res, 0]]
        ys = [_fmt(y, p) for y in grid.points[::res, 1]]
        for y, row in zip(ys, grid.regions.reshape(res, res)):
            lines += [f"{x},{y},{region.value}" for x, region in zip(xs, row)]
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.svg is not None:
        path = args.svg if args.svg != "" else f"quotient_{args.group}.svg"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_quotient_svg(group, base, grid, config_line))
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
    "tol": dict(type=_tolerance, default=1e-10, help="quadrature tolerance"),
    "precision": dict(type=_precision, default=12, help="CSV decimal digits (6..17)"),
}


def _add_options(sub: argparse.ArgumentParser, *names: str) -> None:
    """Add --out and the named shared options: only those the command reads."""
    for name in names:
        sub.add_argument(f"--{name}", **_SHARED_OPTIONS[name])
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
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
        help="allow models without a closed form (phi0_closed column left empty)",
    )
    _add_options(pt, "tol", "precision")
    pt.set_defaults(func=cmd_phi_table)

    vf = subs.add_parser("verify", help="run the oracle verification suite")
    vf.add_argument("scope", nargs="?", default="all", help="'all' or a model id")
    vf.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help=f"RNG seed for sampling (default {VERIFY_SEED}); 'verify all' only",
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
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedModel, DomainViolation, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except HarmonicSpacesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_FAIL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
