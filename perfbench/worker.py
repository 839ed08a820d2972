"""One fresh benchmark interpreter.

    python worker.py probe
    python worker.py round SPEC.json REPORT.json

Both modes import ``harmonicspaces.cli``, call ``build_parser()`` and print
``ready``; the parent times set-up up to that line.  ``probe`` then times
``PROBE_SLICES`` calibration slices and prints them as one JSON line.
``round`` runs one round of jobs described by SPEC (workload, seed, round
index, output directory, sizes, trace and calibration flags) and writes
per-job start and wall times, exit codes, tracebacks and output bytes, the
calibration slices, the interpreter's peak RSS and, when traced, the span
summary to REPORT.  Times are ``time.perf_counter()`` readings of this
interpreter, with ``ready`` the reading when set-up ended.

A calibration slice is fixed work that does not touch the package: a
scalar float loop through a Python function, arithmetic on a grid and on
its points as an (n, 2) array, and number formatting, the kinds of work
the CLI does, on arrays small enough to leave the peak RSS to the jobs.
Its time measures how fast the host runs this interpreter at that
moment; the parent scales job and set-up times by the slices timed near
them.  Slices run after set-up and between jobs, as many as keep them at
``CAL_SHARE`` of job time.
"""

import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

CAL_SHARE = 0.15  # calibration time per second of job time
PROBE_SLICES = 3


def calibration_slice() -> list[float]:
    """[start, seconds] of one fixed calibration slice."""
    import numpy as np

    start = time.perf_counter()

    def ratio(x):
        return math.sin(x) / math.sqrt(1.0 + x * x)

    acc = 0.0
    for i in range(1, 40_000):
        acc += ratio(i * 1e-4)
    axis = np.linspace(-1.5, 1.5, 64)
    gx, gy = np.meshgrid(axis, axis)
    points = np.column_stack((gx.ravel(), gy.ravel()))
    lines = []
    for rep in range(8):
        best = np.full(gx.shape, np.inf)
        for k in range(-4, 5):
            best = np.minimum(best, np.hypot(gx - k, gy + 0.5 * k))
        nearest = np.full(len(points), np.inf)
        for k in range(-4, 5):
            np.minimum(nearest, np.linalg.norm(points - (0.3 + k, 0.2 * rep), axis=1), out=nearest)
        lines += [f"{v:.12g},{acc * w:.12g}\n" for v, w in zip(best[rep], nearest[:200])]
    if len(lines) != 8 * 64 or not np.isfinite(nearest).all():
        raise AssertionError("calibration slice went wrong")
    return [start, time.perf_counter() - start]


def _run_job(cli, argv: list[str]) -> tuple[int | None, str, float]:
    stream = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed job, not a failed benchmark
        rc = None
        stream.write(traceback.format_exc())
    return rc, stream.getvalue(), time.perf_counter() - start


def run_round(cli, ready: float, spec_path: str, report_path: str) -> None:
    from workloads import Sizes, round_jobs

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    out_dir = Path(spec["out_dir"])
    jobs = round_jobs(spec["workload"], spec["seed"], spec["round"], out_dir, Sizes(**spec["sizes"]))
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    calibration = []
    owed = 0.0  # calibration seconds still due
    if spec["calibrate"]:
        calibration.append(calibration_slice())
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter()
        rc, messages, seconds = _run_job(cli, job["argv"])
        if spec["calibrate"]:
            owed += CAL_SHARE * seconds
            while owed > 0.0:
                calibration.append(calibration_slice())
                owed -= calibration[-1][1]
        paths = [job[key] for key in ("out", "svg") if key in job]
        records.append({
            "rc": rc,
            "messages": messages[-2000:],
            "start": start,
            "seconds": seconds,
            "out_bytes": sum(os.path.getsize(p) for p in paths if os.path.exists(p)),
        })
    report = {
        "ready": ready,
        "records": records,
        "calibration": calibration,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write(out_dir / "spans.npz")
        report["trace"] = tracer.summary()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def main(argv: list[str]) -> None:
    import harmonicspaces.cli as cli

    cli.build_parser()
    ready = time.perf_counter()
    print("ready", flush=True)
    if argv[0] == "probe":
        slices = [calibration_slice() for _ in range(PROBE_SLICES)]
        print(json.dumps({"ready": ready, "calibration": slices}), flush=True)
    elif argv[0] == "round":
        run_round(cli, ready, argv[1], argv[2])


if __name__ == "__main__":
    main(sys.argv[1:])
