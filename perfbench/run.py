#!/usr/bin/env python3
"""Benchmark of the harmonic-spaces CLI: seeded jobs, timed, checked.

    python3 perfbench/run.py --workload {verify_all,phi_tables,cut_locus}
                             --seed N --seconds S --trace {0,1}

Run from a checkout (the package is imported from its ``src``).  One
process drives the jobs, one at a time; each round of jobs runs in a fresh
interpreter (``worker.py``).  Every output is checked against answers the
benchmark computes itself (``oracles.py``); a job fails on an unexpected
exit code, a traceback or a failed check.

``--trace 0`` runs rounds while the next one is expected to end within
``--seconds`` and reports the end-to-end metrics.  The speed of a shared
host swings by a third within seconds and between minutes, so every
time in them is scaled to a reference host speed: the workers time a
fixed calibration slice after set-up and between jobs (``worker.py``),
and a wall time is multiplied by ``CAL_REF_S`` over the mean time of the
slices that interpreter ran within ``CAL_WINDOW_S`` of it.  The unscaled
medians are printed too.  ``--trace 1`` runs
round 0 twice, untraced and then traced, whatever ``--seconds`` says, and
reports per-layer metrics from the traced pass (``tracer.py``) plus the
tracing overhead; round 0 being fixed by the seed, the counters repeat
exactly for a seed (one ``verify all`` job: 63 checks, 1 WARN).  The last
stdout line is one JSON object; the lines before it give every metric with
its unit and sample count, and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import oracles
from tracer import COUNTERS
from workloads import WORKLOADS, Sizes, round_jobs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

MIN_SETUPS = 10  # set-up samples: one per round, probes for the rest
CAL_REF_S = 0.02  # calibration slice seconds on the reference host
CAL_WINDOW_S = 3.0
DEADLINE_S = 165.0  # every run ends well inside 180 s
MAX_ROUNDS = 1000


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str]) -> tuple[float, subprocess.Popen]:
    """Start worker.py; return the seconds until it is set up and the process."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_child_env(),
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"worker did not start: {err.strip()[-500:]}")
    return setup, proc


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        _, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-500:]}")


def probe(deadline: float) -> tuple[float, dict]:
    """One fresh interpreter: its set-up seconds and its calibration report."""
    setup, proc = spawn(["probe"])
    line = proc.stdout.readline()
    finish(proc, deadline - time.perf_counter())
    return setup, json.loads(line)


def scaled(seconds: float, end: float, slices: list[list[float]]) -> float:
    """Wall seconds ending at ``end`` scaled to the reference host speed by
    the calibration slices (start, seconds) of the same interpreter that
    started within CAL_WINDOW_S of them; all of them if none did."""
    near = [d for t, d in slices if end - seconds - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S]
    return seconds * CAL_REF_S / statistics.fmean(near or [d for _, d in slices])


class Runner:
    def __init__(self, workload: str, seed: int, sizes: Sizes, deadline: float):
        self.workload, self.seed, self.sizes, self.deadline = workload, seed, sizes, deadline
        self.jobs: list[dict] = []  # per job: seconds, items, ok, out_bytes, trace
        self.rounds: list[dict] = []
        self.setups: list[tuple[float, float]] = []  # (wall, scaled) seconds until ready
        self.calibration: list[float] = []  # slice seconds
        self.problems: list[str] = []

    def run_round(self, i: int, trace: bool, calibrate: bool) -> dict:
        """Run round i in a fresh interpreter and check every output."""
        out_dir = WORK / f"round{i}{'t' if trace else ''}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        spec = {
            "workload": self.workload, "seed": self.seed, "round": i,
            "out_dir": str(out_dir), "sizes": asdict(self.sizes), "trace": trace,
            "calibrate": calibrate,
        }
        spec_path, report_path = out_dir / "spec.json", out_dir / "report.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        start = time.perf_counter()
        setup, proc = spawn(["round", str(spec_path), str(report_path)])
        finish(proc, self.deadline - time.perf_counter())
        wall = time.perf_counter() - start
        report = json.loads(report_path.read_text(encoding="utf-8"))
        slices = report["calibration"]
        if calibrate:
            self.add_setup(setup, report)
        jobs = round_jobs(self.workload, self.seed, i, out_dir, self.sizes)
        rng = np.random.default_rng((self.seed, i, 3))
        for job, rec in zip(jobs, report["records"], strict=True):
            problems = []
            items = 0
            if rec["rc"] != 0 or "Traceback" in rec["messages"]:
                problems.append(f"exit {rec['rc']}: {rec['messages'].strip()[-300:]}")
            else:
                try:
                    items, problems = oracles.check(job, rng)
                except Exception as exc:  # malformed output fails the job, not the run
                    problems.append(f"unreadable output: {exc!r}")
            self.problems += [f"round {i} {' '.join(job['argv'])}: {p}" for p in problems]
            self.jobs.append({
                "trace": trace, "seconds": rec["seconds"], "items": items,
                "scaled": scaled(rec["seconds"], rec["start"] + rec["seconds"], slices) if slices else None,
                "ok": not problems, "out_bytes": rec["out_bytes"],
            })
        for path in out_dir.iterdir():
            if path.name not in ("spans.npz", "report.json"):
                path.unlink()
        summary = {"trace": trace, "wall": wall, "maxrss_kb": report["maxrss_kb"],
                   "seconds": sum(r["seconds"] for r in report["records"]),
                   "layers": report.get("trace")}
        self.rounds.append(summary)
        return summary

    def add_setup(self, setup: float, report: dict) -> None:
        slices = report["calibration"]
        self.setups.append((setup, scaled(setup, report["ready"], slices)))
        self.calibration += [d for _, d in slices]

    def probe(self) -> None:
        self.add_setup(*probe(self.deadline))

    def measure(self, seconds: float) -> None:
        """Rounds while the next, taking as long as the last, ends in time;
        then set-up probes until there are MIN_SETUPS set-up samples."""
        probe(self.deadline)  # may compile bytecode; not counted
        start = time.perf_counter()
        last = 0.0
        for i in range(MAX_ROUNDS):
            elapsed = time.perf_counter() - start
            if i and elapsed + last > seconds:
                break
            last = self.run_round(i, trace=False, calibrate=True)["wall"]
        while len(self.setups) < MIN_SETUPS:
            self.probe()

    def measure_traced(self) -> None:
        """Round 0 untraced, then traced; neither runs calibration slices,
        so the difference is the tracing alone."""
        self.run_round(0, trace=False, calibrate=False)
        self.run_round(0, trace=True, calibrate=False)


# --- metrics -----------------------------------------------------------------


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least 10 samples above it (nearest rank)."""
    n = len(values)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(values)[rank - 1]


def end_to_end(runner: Runner) -> dict:
    jobs = runner.jobs
    seconds = [j["scaled"] for j in jobs]
    return {
        "setup_s": (statistics.median(s for _, s in runner.setups), "s"),
        "job_s_p50": (statistics.median(seconds), "s"),
        "items_per_s": (sum(j["items"] for j in jobs) / sum(seconds), "1/s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] / 1024.0 for r in runner.rounds), "MB"),
    }


def per_layer(runner: Runner) -> dict:
    plain, traced = runner.rounds  # round 0 untraced, then traced
    spans, counts = traced["layers"]["spans"], traced["layers"]["counts"]
    m = {
        "cli.main.calls": (spans["cli.main"]["calls"], "count"),
        "cli.main.self_s": (spans["cli.main"]["self_s"], "s"),
        "cli.out_bytes": (sum(j["out_bytes"] for j in runner.jobs if j["trace"]), "bytes"),
    }
    for name in ("run_all", "table_checks", "boundary_checks", "injectivity_checks", "group_checks"):
        m[f"verify.{name}.s"] = (spans[f"verify.{name}"]["s"], "s")
    for name in (
        "harmonic.verify_table_entry", "harmonic.classify_boundary", "harmonic.phi0_numeric",
        "harmonic.laplacian_radial", "numerics.integrate", "spaces.model_volume",
        "quotients.classify_grid", "quotients.injectivity_radius",
        "quotients.group_action_selfcheck", "topology.volume_bounds", "svgfig.render",
    ):
        m[f"{name}.calls"] = (spans[name]["calls"], "count")
        m[f"{name}.s"] = (spans[name]["s"], "s")
    m["numerics.derivative.calls"] = (spans["numerics.derivative"]["calls"], "count")
    m["spaces.theta.s"] = (spans["spaces.theta"]["s"], "s")
    for name in COUNTERS:
        if name != "numerics.integrate.useful_points":
            m[name] = (counts[name], "count")
    theta_points = counts["spaces.theta.points"]
    m["numerics.integrate.useful_frac"] = (
        counts["numerics.integrate.useful_points"] / theta_points if theta_points else 0.0, "fraction",
    )
    grid_s = spans["quotients.classify_grid"]["s"]
    m["quotients.classify_grid.cells_per_s"] = (
        counts["quotients.classify_grid.cells"] / grid_s if grid_s else 0.0, "1/s",
    )
    m["trace.overhead_frac"] = (traced["seconds"] / plain["seconds"] - 1.0, "fraction")
    return m


def environment(load_start) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    if not (ROOT / "src" / "harmonicspaces" / "cli.py").is_file():
        raise BenchError(f"no harmonicspaces sources under {ROOT / 'src'}")
    load_start = list(os.getloadavg())
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    runner = Runner(workload, seed, sizes, deadline)
    if trace:
        runner.measure_traced()
        metrics = per_layer(runner)
    else:
        runner.measure(seconds)
        metrics = end_to_end(runner)
    jobs = runner.jobs
    failed = sum(not j["ok"] for j in jobs)
    lines = [f"# env {json.dumps(environment(load_start), sort_keys=True)}"]
    lines.append(
        f"# workload {workload} seed {seed} trace {int(trace)}: {len(runner.rounds)} fresh interpreters, "
        f"{len(jobs)} jobs, {time.perf_counter() - start:.1f} s"
    )
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value} {unit}")
    if not trace:
        job_tail = tail([j["scaled"] for j in jobs])
        lines.append(
            f"job_s_tail p{job_tail[0]} {job_tail[1]} s ({len(jobs)} jobs)" if job_tail
            else f"job_s_tail omitted: {len(jobs)} jobs, a tail needs more than 10"
        )
        lines.append(
            f"# reference slice {CAL_REF_S} s, this run's mean {statistics.fmean(runner.calibration):.5f} s "
            f"over {len(runner.calibration)} slices; unscaled: setup_s "
            f"{statistics.median(w for w, _ in runner.setups)} s ({len(runner.setups)} set-ups), "
            f"job_s_p50 {statistics.median(j['seconds'] for j in jobs)} s"
        )
    else:
        lines.append(
            f"# useful_frac base: spaces.theta.points = {metrics['spaces.theta.points'][0]}; "
            f"overhead base: {runner.rounds[0]['seconds']:.4f} s of untraced job time"
        )
        lines.append(f"# spans written to {WORK.relative_to(ROOT)}/round*t/spans.npz")
    lines.append(f"failed_frac {failed / len(jobs)} fraction ({failed}/{len(jobs)} jobs)")
    lines += [f"# problem: {p}" for p in runner.problems[:20]]
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
