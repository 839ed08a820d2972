"""Checks of each job's output against answers the benchmark computes itself.

Nothing here imports harmonicspaces: densities, volumes, Euler
characteristics, signatures, injectivity radii and orbit minima come from
the paper's formulas, Gauss-Legendre quadrature and brute-force orbit
search written out below.  Each check returns the job's item count (check
lines, table rows plus bounds reports, or raster cells) and a list of
problems; a job with any problem counts as failed.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

from workloads import RASTER_HALFWIDTH

VERIFY_CHECKS = 63
VERIFY_WARN = "topology hOP2 bound note"

MATCH_TOL = 1e-8  # scaled residual of phi0 differences
# the package's acceptance bound on the scaled radial Laplacian; finite-
# difference noise reaches 3e-6 on the hOP2 closed form near r = 0.8 and
# 2e-6 on numeric HP5 near r = 0.16, inside tabulate.py's grid range
LAPLACIAN_TOL = 1e-5
VALUE_RTOL = 1e-9  # values printed with 12 significant digits
VOLUME_TOL = 1e-9


def scaled_residual(x: float, y: float) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


# --- verify ------------------------------------------------------------------


def check_verify(job: dict) -> tuple[int, list[str]]:
    lines = _lines(job["out"])
    checks = [ln for ln in lines if not ln.startswith("#")]
    problems = []
    if not lines or not lines[0].startswith("# config "):
        problems.append("missing config line")
    fails = [ln for ln in checks if ln.startswith("FAIL")]
    warns = [ln for ln in checks if ln.startswith("WARN")]
    if len(checks) != VERIFY_CHECKS:
        problems.append(f"{len(checks)} check lines, expected {VERIFY_CHECKS}")
    if fails:
        problems.append(f"FAIL lines: {fails[:3]}")
    if [ln.split(":", 1)[0] for ln in warns] != [f"WARN {VERIFY_WARN}"]:
        problems.append(f"WARN lines {warns!r}, expected only the hOP2 note")
    summary = f"# checked={len(checks)} fail={len(fails)} warn={len(warns)}"
    if not lines or lines[-1] != summary:
        problems.append(f"summary {lines[-1] if lines else None!r} != {summary!r}")
    return len(checks), problems


# --- model catalogue ---------------------------------------------------------

_ID = re.compile(r"^(h?)(S|CP|HP|OP|E)(\d+)$")
_FIBRE = {"S": (1, 0), "CP": (2, 1), "HP": (4, 3), "OP": (8, 7), "E": (1, 0)}


def density_exponents(model_id: str) -> tuple[int, int, str]:
    """(sine exponent m-1, cosine exponent b, kind) of theta for a model id."""
    prefix, stem, num = _ID.match(model_id).groups()
    scale, b = _FIBRE[stem]
    dim = 16 if stem == "OP" else scale * int(num)
    kind = "flat" if stem == "E" else ("hyperbolic" if prefix else "circular")
    return dim - 1, b, kind


def density(model_id: str, r):
    a, b, kind = density_exponents(model_id)
    r = np.asarray(r, dtype=float)
    if kind == "circular":
        return np.sin(r) ** a * np.cos(r) ** b
    if kind == "hyperbolic":
        return np.sinh(r) ** a * np.cosh(r) ** b
    return r**a


_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def phi0_differences(model_id: str, r_ref: float, rs) -> np.ndarray:
    """Integral of 1/theta from r_ref to each r, by 20-point Gauss-Legendre
    on panels no wider than 5% of their distance to either singular end
    (and 0.05), accumulated outward from r_ref."""
    _, _, kind = density_exponents(model_id)
    far = math.inf if kind != "circular" else (math.pi if model_id.startswith("S") else 0.5 * math.pi)
    breaks = sorted(set([r_ref, *rs]))
    edges = [breaks[0]]
    for hi in breaks[1:]:
        x = edges[-1]
        while x < hi:
            x = min(hi, x + min(0.05, 0.05 * x, 0.05 * (far - x)))
            edges.append(x)
    edges = np.asarray(edges)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (hi + lo)[:, None] + half[:, None] * _GL_X[None, :]
    panels = half * ((1.0 / density(model_id, nodes)) @ _GL_W)
    k = int(np.searchsorted(edges, r_ref))
    cumulative = np.zeros(len(edges))
    cumulative[k + 1 :] = np.cumsum(panels[k:])
    cumulative[:k] = -np.cumsum(panels[:k][::-1])[::-1]
    return cumulative[np.searchsorted(edges, rs)]


# --- phi-table -----------------------------------------------------------------


def check_phi(job: dict) -> tuple[int, list[str]]:
    r_min, r_max, n, r_ref = job["grid"]
    mid = job["model"]
    lines = _lines(job["out"])
    problems = []
    if len(lines) != n + 2 or lines[1] != "r,theta,phi1,phi0_closed,phi0_numeric_diff,laplacian_residual":
        return 0, [f"{len(lines)} lines, expected config, header and {n} rows"]
    rows = [ln.split(",") for ln in lines[2:]]
    grid = [r_min + (r_max - r_min) * i / (n - 1) for i in range(n)] if n > 1 else [r_min]
    printed = np.array([[float(v) for v in row[:3]] for row in rows])
    theta = density(mid, grid)
    for col, expect, label in ((0, np.asarray(grid), "r"), (1, theta, "theta"), (2, 1.0 / theta, "phi1")):
        err = np.abs(printed[:, col] - expect) / np.abs(expect)
        if np.max(err) > VALUE_RTOL:
            problems.append(f"{label} off by {np.max(err):.2e} relative")
    numeric = [float(row[4]) for row in rows]
    oracle = phi0_differences(mid, r_ref, grid)
    worst = max(scaled_residual(x, y) for x, y in zip(numeric, oracle))
    if worst > MATCH_TOL:
        problems.append(f"phi0_numeric_diff vs quadrature oracle: {worst:.2e}")
    if job["closed"]:
        closed = [float(row[3]) for row in rows]
        anchor = int(np.argmin(np.abs(np.asarray(grid) - r_ref)))
        worst = max(
            scaled_residual(c - closed[anchor], x - numeric[anchor]) for c, x in zip(closed, numeric)
        )
        if worst > MATCH_TOL:
            problems.append(f"closed-form vs numeric differences: {worst:.2e}")
    elif any(row[3] for row in rows):
        problems.append("numeric-only table has phi0_closed values")
    laplacian = max(float(row[5]) for row in rows)
    if not laplacian <= LAPLACIAN_TOL:
        problems.append(f"laplacian residual {laplacian:.2e}")
    return n, problems


# --- bounds --------------------------------------------------------------------


def unit_sphere_volume(n: int) -> float:
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def compact_dual(model_id: str) -> tuple[str, float, int, int | None]:
    """(dual id, volume, Euler characteristic, signature) of the compact dual
    of a hyperbolic model, with theta = sin^(m-1) cos^b and diameter pi or
    pi/2 (so vol CP^k = pi^k/k!, vol HP^k = pi^(2k)/(2k+1)!,
    vol OP2 = 6 pi^8/11!)."""
    dual = model_id[1:]
    _, stem, num = _ID.match(dual).groups()
    k = int(num)
    if stem == "S":
        return dual, unit_sphere_volume(k), 2 if k % 2 == 0 else 0, (0 if k % 4 == 0 else None)
    if stem == "CP":
        return dual, math.pi**k / math.factorial(k), k + 1, 1 if k % 2 == 0 else None
    if stem == "HP":
        return dual, math.pi ** (2 * k) / math.factorial(2 * k + 1), k + 1, 1 if k % 2 == 0 else 0
    return dual, 6.0 * math.pi**8 / math.factorial(11), 3, 1


def check_bounds(job: dict) -> tuple[int, list[str]]:
    with open(job["out"], encoding="utf-8") as fh:
        got = json.load(fh)
    dual, vol, chi, sig = compact_dual(job["model"])
    eps = 1.0 if job["orientable"] else 0.5
    problems = []
    exact = {"model": job["model"], "dual": dual, "euler": chi, "signature": sig, "epsilon": eps}
    for key, value in exact.items():
        if got.get(key) != value:
            problems.append(f"{key}={got.get(key)!r}, expected {value!r}")
    expect = {"dual_volume": vol, "gb_bound": vol / chi, "sig_bound": eps * vol if sig == 1 else None}
    for key, value in expect.items():
        if value is None or got.get(key) is None:
            if got.get(key) != value:
                problems.append(f"{key}={got.get(key)!r}, expected {value!r}")
        elif scaled_residual(got[key], value) > VOLUME_TOL:
            problems.append(f"{key}={got[key]!r}, expected {value!r}")
    return 1, problems


# --- quotient ------------------------------------------------------------------


def expected_iota(group: str, point) -> float:
    if group == "torus":
        return 0.5
    if group == "klein":
        return 0.5 * min(2.0, math.sqrt(1.0 + 4.0 * point[1] ** 2))
    return 0.25 * math.pi  # lens and cpq, at every basepoint


def orbit_gap(group: str, p, q) -> float:
    """d(p, q) minus the least d(p, gamma q) over gamma != id, by brute force
    over the images within a few cells of p (the nearest ones lie there)."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    c = round(dx)
    best = math.inf
    if group == "torus":
        ci = round(dy)
        for i in range(c - 3, c + 4):
            for j in range(ci - 3, ci + 4):
                if (i, j) != (0, 0):
                    best = min(best, math.hypot(dx - i, dy - j))
    else:
        for n in range(c - 4, c + 5):
            if n != 0:
                y = q[1] if n % 2 == 0 else -q[1]
                best = min(best, math.hypot(dx - n, p[1] - y))
    return math.hypot(dx, dy) - best


def check_quotient(job: dict, rng: np.random.Generator, samples: int = 300) -> tuple[int, list[str]]:
    lines = _lines(job["out"])
    group, point, res = job["group"], job["basepoint"], job["resolution"]
    problems = []
    match = re.match(r"# iota=(\S+) ", lines[1]) if len(lines) > 1 else None
    if match is None:
        return 0, ["no '# iota' line"]
    iota = float(match.group(1))
    if abs(iota - expected_iota(group, point)) > VALUE_RTOL:
        problems.append(f"iota={iota!r}, expected {expected_iota(group, point)!r}")
    svg = ET.parse(job["svg"]).getroot()
    meta = svg.find("{http://www.w3.org/2000/svg}metadata")
    if meta is None or meta.text != lines[0]:
        problems.append("SVG metadata differs from the CSV config line")
    if group not in ("torus", "klein"):
        if len(lines) != 2:
            problems.append(f"{len(lines) - 2} raster rows for a non-flat group")
        return 0, problems
    rows = lines[3:]
    if lines[2] != "x,y,class" or len(rows) != res * res:
        return 0, problems + [f"{len(rows)} raster rows, expected {res * res}"]
    classes = np.array([row.rsplit(",", 1)[1] for row in rows])
    if not set(classes) <= {"interior", "boundary", "exterior"}:
        problems.append(f"unknown classes {set(classes)}")
    n_boundary = int(np.sum(classes == "boundary"))
    stride = max(1, n_boundary // 4000)
    dots = len(svg.findall("{http://www.w3.org/2000/svg}circle"))
    if dots != len(range(0, n_boundary, stride)) + 1:
        problems.append(f"{dots} SVG dots for {n_boundary} boundary cells")

    # the CLI's grid arithmetic, so cell centres agree to the last bit
    spacing = 2.0 * RASTER_HALFWIDTH / res
    tol = 2.0 * spacing
    centers = (np.arange(res) + 0.5) * spacing - RASTER_HALFWIDTH
    picks = list(rng.choice(len(rows), size=min(samples, len(rows)), replace=False))
    for label in ("interior", "boundary", "exterior"):
        members = np.flatnonzero(classes == label)
        if len(members):
            picks += list(rng.choice(members, size=min(samples // 3, len(members)), replace=False))
    for k in picks:
        x, y = point[0] + centers[k % res], point[1] + centers[k // res]
        px, py, label = rows[k].split(",")
        if abs(float(px) - x) > VALUE_RTOL * max(1.0, abs(x)) or abs(float(py) - y) > VALUE_RTOL * max(1.0, abs(y)):
            problems.append(f"row {k} at ({px}, {py}), expected ({x!r}, {y!r})")
            break
        gap = orbit_gap(group, point, (x, y))
        if min(abs(gap - tol), abs(gap + tol)) < 1e-9:
            continue  # on a class threshold to rounding; either class is right
        expect = "boundary" if abs(gap) <= tol else ("interior" if gap < -tol else "exterior")
        if label != expect:
            problems.append(f"cell {k} ({x!r}, {y!r}) is {label}, brute force says {expect}")
            break
    return len(rows), problems


def check(job: dict, rng: np.random.Generator) -> tuple[int, list[str]]:
    kind = job["kind"]
    if kind == "verify":
        return check_verify(job)
    if kind == "phi":
        return check_phi(job)
    if kind == "bounds":
        return check_bounds(job)
    return check_quotient(job, rng)
