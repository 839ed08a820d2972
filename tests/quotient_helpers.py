"""Quotient constructions that only the tests use: the analytic Klein
region, a Monte Carlo lens volume, the flat radial extension of
remark-style domains with its harmonicity, radiality and symmetry probes,
and a deck group that fails its self-check.
"""

import math

import numpy as np

from harmonicspaces.errors import DomainViolation
from harmonicspaces.numerics import derivative
from harmonicspaces.quotients import (
    AntipodalGroup,
    LensGroup,
    SeededStream,
    TorusGroup,
    _random_points,
    _row_norm,
    orbit_distances,
)
from harmonicspaces.spaces import unit_sphere_volume


class FixedPointAntipodal(AntipodalGroup):
    """Negative control: -id replaced by the identity, which fixes every point."""

    def apply(self, eid, point):
        return np.asarray(point, float).copy()


def klein_fundamental_region(a: float, q) -> bool:
    """Strict inequalities cutting the smooth radial region about (0, a):
    -1 < x < 1, 1 + 2x + 4ay > 0, 1 - 2x + 4ay > 0."""
    x, y = float(q[0]), float(q[1])
    return (
        -1.0 < x < 1.0
        and 1.0 + 2.0 * x + 4.0 * a * y > 0.0
        and 1.0 - 2.0 * x + 4.0 * a * y > 0.0
    )


def lens_domain_volume_mc(k: int = 1) -> tuple[float, float]:
    """Monte Carlo (estimate, standard error) of the volume of the lens
    fundamental domain on S^(2k+1), exactly vol(S^(2k+1))/4, from 100,000
    points of the seed-42 stream."""
    samples = 100_000
    pts = _random_points(LensGroup(k), SeededStream(42), samples)
    inside = pts[:, 0] > np.abs(pts[:, 1])
    frac = float(np.mean(inside))
    total = unit_sphere_volume(2 * k + 1)
    err = total * math.sqrt(frac * (1.0 - frac) / samples)
    return total * frac, err


# --- the flat radial extension of remark-style domains ------------------------


def flat_extension_domain(delta: float) -> tuple[float, float]:
    """The square window (-delta, 1-delta)^2 on which log(x^2+y^2) extends
    the torus radial harmonic function."""
    if not (0.0 < delta < 1.0):
        raise DomainViolation("delta must lie in (0, 1)")
    return (-delta, 1.0 - delta)


def flat_radial_extension(delta: float, q) -> float:
    """log(x^2 + y^2) on the square window O(delta) minus the origin."""
    lo, hi = flat_extension_domain(delta)
    x, y = float(q[0]), float(q[1])
    if not (lo < x < hi and lo < y < hi):
        raise DomainViolation(f"point {q!r} outside ({lo}, {hi})^2")
    if x == 0.0 and y == 0.0:
        raise DomainViolation("the origin is excluded from the extension domain")
    return math.log(x * x + y * y)


def flat_harmonic_residual(delta: float, q) -> float:
    """|f_xx + f_yy| of the flat extension at q, from ``numerics.derivative``."""
    x, y = float(q[0]), float(q[1])
    f_xx = derivative(lambda u: flat_radial_extension(delta, (u, y)), x, 2)
    f_yy = derivative(lambda v: flat_radial_extension(delta, (x, v)), y, 2)
    return abs(f_xx + f_yy)


def flat_extension_is_radial(delta: float) -> bool:
    """Whether the extension is a function of the quotient distance alone:
    four probes and 400 points of the seed-7 stream each agree to 1e-9 with
    the point at the same quotient distance from the image of the origin on
    the positive x-axis inside the window."""
    lo, hi = flat_extension_domain(delta)
    probes = [[0.96 * hi, 0.02], [0.96 * lo, 0.02], [0.02, 0.96 * hi], [0.02, 0.96 * lo]]
    qs = np.vstack((probes, SeededStream(7).uniform(lo + 1e-3, hi - 1e-3, (400, 2))))
    qs = qs[np.all((lo < qs) & (qs < hi), axis=1) & (_row_norm(qs) >= 0.05)]
    torus, origin = TorusGroup(), np.zeros(2)
    d = np.minimum(*orbit_distances(torus, origin, qs)[:2])
    refs = np.column_stack((d, np.zeros_like(d)))
    d_ref = np.minimum(*orbit_distances(torus, origin, refs)[:2])
    keep = (lo < d) & (d < hi) & (np.abs(d_ref - d) <= 1e-12)
    return all(
        abs(flat_radial_extension(delta, q) - flat_radial_extension(delta, ref)) <= 1e-9
        for q, ref in zip(qs[keep], refs[keep])
    )


def flat_extension_reflection_symmetric(delta: float) -> bool:
    """Invariance of the extension domain and values under (x,y) -> (-x,y)
    and (x,y) -> (x,-y) at 200 seed-11 points; exact when the window is centered."""
    lo, hi = flat_extension_domain(delta)
    if abs(lo + hi) > 1e-12:
        return False
    qs = SeededStream(11).uniform(lo + 1e-3, hi - 1e-3, (200, 2))
    return all(
        abs(flat_radial_extension(delta, image) - flat_radial_extension(delta, q)) <= 1e-12
        for q in qs[_row_norm(qs) >= 0.05]
        for image in ((-q[0], q[1]), (q[0], -q[1]))
    )
