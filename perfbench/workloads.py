"""Seeded job lists for the three benchmark workloads.

A workload is a sequence of rounds.  Each round runs in one fresh
interpreter, the way a user runs the CLI or one of the scripts, so no
in-process cache carries from one round to the next.  Round ``i`` of a run
with seed ``s`` depends only on ``(s, i)``; every job is one
``harmonicspaces.cli.main(argv)`` call whose argv is the only thing the
program sees.

Job dicts are JSON-serialisable: the worker runs ``argv`` and the parent
checks the files named in ``out``/``svg`` against the fields it recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("verify_all", "phi_tables", "cut_locus")

#: Catalogue rows with a transcribed closed form, plus the flat family.
CLOSED_IDS = (
    "S2", "S3", "S4", "S5", "CP2", "CP3", "CP4", "HP2", "HP3", "HP4", "OP2",
    "hS2", "hS3", "hS4", "hS5", "hCP2", "hCP3", "hCP4",
    "hHP2", "hHP3", "hHP4", "hOP2",
)
FLAT_IDS = ("E2", "E3", "E4", "E5")
#: Models without a closed form, tabulated with --numeric-only.
NUMERIC_IDS = ("S6", "S7", "S8", "S9", "CP1", "HP5", "hS6", "hCP5", "hHP5")
#: Hyperbolic duals of the compact catalogue that have a Gauss-Bonnet bound
#: (odd-dimensional duals have chi = 0 and are a usage error).
BOUNDS_IDS = (
    "hS2", "hS4", "hS6", "hS8", "hCP1", "hCP2", "hCP3", "hCP4",
    "hHP2", "hHP3", "hHP4", "hOP2",
)

#: Half-width of the raster window the CLI draws about the basepoint.
RASTER_HALFWIDTH = 1.5


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark, smaller ones a smoke test."""

    raster: int = 400  # torus and Klein rasters about basepoints with |p| <= 1
    far_raster: int = 200  # torus rasters about basepoints with 3 <= |p| <= 5
    table_points: int = 25  # rows per phi-table


def _rng(seed: int, round_index: int, salt: int) -> np.random.Generator:
    return np.random.default_rng((seed, round_index, salt))


def _end(model_id: str) -> float:
    """min(domain end, 3), the span tabulate.py draws its grids from."""
    if model_id.startswith(("h", "E")):
        return 3.0
    return math.pi if model_id.startswith("S") else 0.5 * math.pi


def _point_arg(values) -> str:
    return ",".join(f"{v:.6f}" for v in values)


def _quotient_job(group, point, resolution, stem, out_dir) -> dict:
    text = _point_arg(point)
    out = str(out_dir / f"{stem}.csv")
    svg = str(out_dir / f"{stem}.svg")
    opts = ["--resolution", str(resolution), "--out", out, "--svg", svg]
    # argparse reads "-3.2,2.5" as an option, so a basepoint starting with
    # "-" can only be passed after "--"
    if text.startswith("-"):
        argv = ["quotient", *opts, group, "--", text]
    else:
        argv = ["quotient", group, text, *opts]
    return {
        "kind": "quotient",
        "argv": argv,
        "group": group,
        "basepoint": [float(tok) for tok in text.split(",")],
        "resolution": resolution,
        "out": out,
        "svg": svg,
    }


def verify_round(seed: int, i: int, out_dir: Path) -> list[dict]:
    out = str(out_dir / "verify.txt")
    # distinct --seed per job; 10**4 rounds never fit in one run
    job_seed = seed * 10_000 + i
    return [{"kind": "verify", "argv": ["verify", "all", "--seed", str(job_seed), "--out", out], "out": out}]


def phi_round(seed: int, i: int, out_dir: Path, sizes: Sizes) -> list[dict]:
    """The scripts/tabulate.py mix with seeded r-grids, plus numeric-only
    tables and the volume bounds of every hyperbolic dual."""
    rng = _rng(seed, i, 1)
    jobs = []
    for mid in CLOSED_IDS + FLAT_IDS + NUMERIC_IDS:
        end = _end(mid)
        r_min, r_max, r_ref = (
            f"{end * rng.uniform(lo, hi):.6f}" for lo, hi in ((0.1, 0.2), (0.8, 0.9), (0.4, 0.6))
        )
        out = str(out_dir / f"phi_{mid}.csv")
        argv = ["phi-table", mid, r_min, r_max, str(sizes.table_points), r_ref, "--out", out]
        numeric_only = mid in NUMERIC_IDS
        if numeric_only:
            argv.append("--numeric-only")
        jobs.append({
            "kind": "phi",
            "argv": argv,
            "model": mid,
            "grid": [float(r_min), float(r_max), sizes.table_points, float(r_ref)],
            "closed": not numeric_only,
            "out": out,
        })
    for mid in BOUNDS_IDS:
        for orientable in ("true", "false"):
            out = str(out_dir / f"bounds_{mid}_{orientable}.json")
            jobs.append({
                "kind": "bounds",
                "argv": ["bounds", mid, "--orientable", orientable, "--out", out],
                "model": mid,
                "orientable": orientable == "true",
                "out": out,
            })
    return jobs


def cut_round(seed: int, i: int, out_dir: Path, sizes: Sizes) -> list[dict]:
    """The scripts/make_figures.py mix about seeded basepoints, with its
    three Klein rasters drawn three times, plus one far torus basepoint.

    Depth-bounded orbit enumeration costs about (8|p| + 19)^2 lattice
    shifts per torus raster cell and 8|p| + 19 per Klein cell.  So the far
    torus radius is tied to the near one, |p_far| = 5 - 2|p_near|, and a
    costly near raster comes with a cheap far one; the Klein basepoints get
    fixed radii and seeded angles.  The work per round, and the Klein job
    that is the median job, then stay within a few percent across seeds;
    nine Klein jobs a round give that median enough samples to be steady,
    and a round short enough that two fit in a run.
    """
    rng = _rng(seed, i, 2)

    def polar(radius):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return radius * math.cos(angle), radius * math.sin(angle)

    near = rng.uniform(0.0, 1.0)
    jobs = [_quotient_job("torus", polar(near), sizes.raster, "torus", out_dir)]
    for k, radius in enumerate((0.25, 0.5, 1.0) * 3):
        jobs.append(_quotient_job("klein", polar(radius), sizes.raster, f"klein{k}", out_dir))
    for group in ("lens", "cpq"):
        jobs.append(_quotient_job(group, rng.standard_normal(4), sizes.raster, group, out_dir))
    jobs.append(_quotient_job("torus", polar(5.0 - 2.0 * near), sizes.far_raster, "torus_far", out_dir))
    return jobs


def round_jobs(workload: str, seed: int, i: int, out_dir: Path, sizes: Sizes) -> list[dict]:
    if workload == "verify_all":
        return verify_round(seed, i, out_dir)
    if workload == "phi_tables":
        return phi_round(seed, i, out_dir, sizes)
    if workload == "cut_locus":
        return cut_round(seed, i, out_dir, sizes)
    raise ValueError(f"unknown workload {workload!r}")
