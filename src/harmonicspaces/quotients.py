"""Deck-group actions, quotient distances, and injectivity radii.

Five worked quotients: the square torus R^2/Z^2, the open Klein bottle
R^2/<T> with T(x,y) = (x+1,-y), real projective space S^m/{+-id}, the lens
space S^(2k+1)/Z_4, and CP^(2k+1)/Z_2 by the conjugate-swap involution.

Points are plain numpy arrays: shape (2,) real for the flat plane, unit
vectors in R^(m+1) for spheres, and unit complex vectors (projective
representatives) for complex projective space.  All projective formulas
use moduli only, so the circle gauge of the representative never matters.

Orbit minima on the flat quotients search a fixed ring of elements about
the nearest cell of p - q, whatever the basepoint: the nearest image lies
in that cell, and the next nearest (needed when the identity is excluded)
is one of its immediate neighbours.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DomainViolation,
    InvalidPoint,
    SelfCheckFailed,
    UnsupportedModel,
)

UNIT_NORM_TOL = 1e-12

#: Default tolerance separating interior/boundary/exterior in analytic queries.
ANALYTIC_TOL = 1e-9

#: Half the side of the square raster about the basepoint in cut-locus samples.
RASTER_HALFWIDTH = 1.5


# --- ambient distances ------------------------------------------------------


def _as_vector(p, size: int | None = None, complex_ok: bool = False) -> np.ndarray:
    arr = np.asarray(p, dtype=complex if complex_ok else float)
    if arr.ndim != 1:
        raise InvalidPoint(f"expected a flat vector, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise InvalidPoint(f"expected {size} coordinates, got {arr.shape[0]}")
    return arr


def _check_unit(v: np.ndarray) -> None:
    if abs(np.linalg.norm(v) - 1.0) > UNIT_NORM_TOL:
        raise InvalidPoint(f"point must be unit norm, |v| = {np.linalg.norm(v)!r}")


def flat_distance(p, q) -> float:
    p, q = _as_vector(p, 2), _as_vector(q, 2)
    return float(np.linalg.norm(p - q))


def sphere_distance(p, q) -> float:
    p, q = _as_vector(p), _as_vector(q)
    if p.shape != q.shape:
        raise InvalidPoint("sphere points must share the ambient dimension")
    _check_unit(p)
    _check_unit(q)
    return math.acos(min(1.0, max(-1.0, float(np.dot(p, q)))))


def cproj_distance(p, q) -> float:
    """Fubini-Study distance between projective points given by unit vectors."""
    p, q = _as_vector(p, complex_ok=True), _as_vector(q, complex_ok=True)
    if p.shape != q.shape:
        raise InvalidPoint("projective points must share the ambient dimension")
    _check_unit(p)
    _check_unit(q)
    return math.acos(min(1.0, abs(complex(np.vdot(p, q)))))


def ambient_distance(kind: str, p, q) -> float:
    """Distance in the named ambient geometry: flat | sphere | cproj."""
    if kind == "flat":
        return flat_distance(p, q)
    if kind == "sphere":
        return sphere_distance(p, q)
    if kind == "cproj":
        return cproj_distance(p, q)
    raise InvalidPoint(f"unknown ambient kind {kind!r}")


# --- deck groups -------------------------------------------------------------


class DeckGroup:
    """A finitely enumerable discrete isometry group of a model space.

    Concrete groups provide ``ambient`` ("flat", "sphere" or "cproj"),
    ``element_ids(p, q)`` listing the non-identity elements sufficient for
    distance queries between p and q, and ``apply(eid, point)``; curved
    ones also give ``ambient_dim``, the length of a point vector.  The finite
    groups list all their elements; the flat groups list a fixed ring about
    the nearest cell ``nearest_cell(p, q)``, since the nearest image and the
    next nearest lie within it.
    """

    ambient: str = "flat"
    name: str = "group"

    def element_ids(self, p, q) -> Sequence:
        raise NotImplementedError

    def apply(self, eid, point) -> np.ndarray:
        raise NotImplementedError

    def distance(self, p, q) -> float:
        return ambient_distance(self.ambient, p, q)

    def basepoint(self) -> np.ndarray:
        """The default basepoint: the origin of the plane, or e1."""
        if self.ambient == "flat":
            return np.zeros(2)
        e1 = np.zeros(self.ambient_dim, complex if self.ambient == "cproj" else float)
        e1[0] = 1.0
        return e1


@dataclass(frozen=True)
class TorusGroup(DeckGroup):
    """Integer-lattice translations of the plane: the square torus R^2/Z^2."""

    ambient = "flat"
    name = "torus"
    #: offsets about the nearest cell; ascending lexicographic order fixes
    #: which of several tied minimizers injectivity_radius reports
    ring = tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))

    @staticmethod
    def nearest_cell(p, q) -> np.ndarray:
        """The translation (i, j) taking q nearest to p; q may hold rows."""
        return np.rint(p - q)

    def element_ids(self, p, q):
        cell = self.nearest_cell(np.asarray(p, float), np.asarray(q, float))
        ci, cj = (int(c) for c in cell)
        ids = [(ci + i, cj + j) for i, j in self.ring]
        return [eid for eid in ids if eid != (0, 0)]

    def apply(self, eid, point):
        """Translate by eid = (i, j), or row-wise by an (n, 2) array of them."""
        return np.asarray(point, float) + eid


@dataclass(frozen=True)
class KleinGroup(DeckGroup):
    """The glide group generated by T(x, y) = (x + 1, -y)."""

    ambient = "flat"
    name = "klein"
    #: glide powers about the nearest cell, ascending: they hold the nearest
    #: even and the nearest odd power, and the next ones when 0 is excluded
    ring = (-2, -1, 0, 1, 2)

    @staticmethod
    def nearest_cell(p, q) -> np.ndarray:
        """The glide power n taking q's x nearest to p's; q may hold rows."""
        return np.rint(p[..., 0] - q[..., 0])

    def element_ids(self, p, q):
        c = int(self.nearest_cell(np.asarray(p, float), np.asarray(q, float)))
        return [c + k for k in self.ring if c + k != 0]

    def apply(self, eid, point):
        """T^n for eid = n, or row-wise for an (n,) array of powers."""
        pt = np.asarray(point, float)
        n = np.asarray(eid)
        flipped = np.where(n % 2 == 0, pt[..., 1], -pt[..., 1])
        return np.stack((pt[..., 0] + n, flipped), axis=-1)


@dataclass(frozen=True)
class AntipodalGroup(DeckGroup):
    """{id, -id} on the m-sphere; the quotient is real projective space."""

    m: int = 2

    ambient = "sphere"
    name = "rp"

    @property
    def ambient_dim(self) -> int:
        return self.m + 1

    def element_ids(self, p=None, q=None):
        return ["-id"]

    def apply(self, eid, point):
        return -np.asarray(point, float)


@dataclass(frozen=True)
class LensGroup(DeckGroup):
    """Z_4 on S^(2k+1): T(x1, x2, ...) = (-x2, x1, ..., -x_{2k+2}, x_{2k+1})."""

    k: int = 1

    ambient = "sphere"
    name = "lens"

    @property
    def ambient_dim(self) -> int:
        return 2 * self.k + 2

    def element_ids(self, p=None, q=None):
        return ["T", "T^2", "T^3"]

    def _t(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        out[0::2] = -v[1::2]
        out[1::2] = v[0::2]
        return out

    def apply(self, eid, point):
        v = np.asarray(point, float)
        power = {"T": 1, "T^2": 2, "T^3": 3}[eid]
        for _ in range(power):
            v = self._t(v)
        return v


@dataclass(frozen=True)
class CPInvolutionGroup(DeckGroup):
    """Z_2 on CP^(2k+1): <T> with T(z) = (-conj(z2), conj(z1), ...).

    T itself has order 4 on the sphere but T^2 = -id, so the projective
    action is an involution; it is fixed-point free.
    """

    k: int = 1

    ambient = "cproj"
    name = "cpq"

    @property
    def ambient_dim(self) -> int:
        return 2 * self.k + 2

    def element_ids(self, p=None, q=None):
        return ["T"]

    def apply(self, eid, point):
        z = np.asarray(point, complex)
        out = np.empty_like(z)
        out[0::2] = -np.conj(z[1::2])
        out[1::2] = np.conj(z[0::2])
        return out


def _validate_point(group: DeckGroup, p) -> np.ndarray:
    if group.ambient == "flat":
        return _as_vector(p, 2)
    if group.ambient == "sphere":
        v = _as_vector(p)
        _check_unit(v)
        return v
    v = _as_vector(p, complex_ok=True)
    _check_unit(v)
    return v


# --- quotient metric and domains ---------------------------------------------


def quotient_distance(group: DeckGroup, p, q) -> float:
    """min over enumerated deck transformations gamma of d(p, gamma q)."""
    p = _validate_point(group, p)
    q = _validate_point(group, q)
    best = group.distance(p, q)
    for eid in group.element_ids(p, q):
        best = min(best, group.distance(p, group.apply(eid, q)))
    return best


@dataclass(frozen=True)
class InjectivityReport:
    base: np.ndarray
    radius: float
    minimizer: object
    method: str = "brute_force"


def injectivity_radius(group: DeckGroup, p) -> InjectivityReport:
    """Half the minimal displacement of p under non-identity elements."""
    p = _validate_point(group, p)
    best = math.inf
    best_id = None
    for eid in group.element_ids(p, p):
        d = group.distance(p, group.apply(eid, p))
        if d < best:
            best, best_id = d, eid
    return InjectivityReport(base=p, radius=0.5 * best, minimizer=best_id)


def klein_injectivity_closed(a: float) -> float:
    """Injectivity radius of the open Klein bottle at basepoint (0, a)."""
    return 0.5 * min(2.0, math.sqrt(1.0 + 4.0 * a * a))


def injectivity_radius_closed(group: DeckGroup, p) -> InjectivityReport:
    """Closed-form counterpart of injectivity_radius; agrees within 1e-12."""
    p = _validate_point(group, p)
    return InjectivityReport(
        base=p,
        radius=closed_form_injectivity(group, p),
        minimizer=None,
        method="closed_form",
    )


def closed_form_injectivity(group: DeckGroup, p) -> float:
    """Closed-form injectivity radius at p, where one is known."""
    if isinstance(group, TorusGroup):
        return 0.5
    if isinstance(group, KleinGroup):
        return klein_injectivity_closed(abs(float(np.asarray(p, float)[1])))
    if isinstance(group, AntipodalGroup):
        return 0.5 * math.pi
    if isinstance(group, (LensGroup, CPInvolutionGroup)):
        return 0.25 * math.pi
    raise UnsupportedModel(f"no closed-form injectivity radius for {group.name}")


class Region(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def in_fundamental_domain(group: DeckGroup, p, q, tol: float = ANALYTIC_TOL) -> Region:
    """Locate q relative to the open fundamental domain centered at p.

    Interior when the identity strictly realizes the orbit distance by more
    than tol; Boundary within +-tol of a tie; Exterior otherwise.
    """
    p = _validate_point(group, p)
    q = _validate_point(group, q)
    d_id = group.distance(p, q)
    d_min = math.inf
    for eid in group.element_ids(p, q):
        d_min = min(d_min, group.distance(p, group.apply(eid, q)))
    if d_id < d_min - tol:
        return Region.INTERIOR
    if d_id <= d_min + tol:
        return Region.BOUNDARY
    return Region.EXTERIOR


def klein_fundamental_region(a: float, q) -> bool:
    """Strict inequalities cutting the smooth radial region about (0, a):
    -1 < x < 1, 1 + 2x + 4ay > 0, 1 - 2x + 4ay > 0."""
    x, y = float(q[0]), float(q[1])
    return (
        -1.0 < x < 1.0
        and 1.0 + 2.0 * x + 4.0 * a * y > 0.0
        and 1.0 - 2.0 * x + 4.0 * a * y > 0.0
    )


def lens_domain(q) -> bool:
    """Open fundamental domain of the lens quotient at e1: x1 > |x2|."""
    v = _as_vector(q)
    _check_unit(v)
    return bool(v[0] > abs(v[1]))


def cp_quotient_distance(z) -> float:
    """Distance from the basepoint orbit in CP^(2k+1)/Z_2.

    The orbit of <e1> sees <z> at arccos|z1| (identity) and arccos|z2|
    (the involution), so the quotient distance is the smaller of the two,
    arccos(max(|z1|, |z2|)); a circulated closed form uses the smaller
    modulus instead, which fails the two-element orbit oracle already at
    the basepoint.  Verified against the brute-force orbit minimum.
    """
    v = _as_vector(z, complex_ok=True)
    _check_unit(v)
    return math.acos(min(1.0, max(abs(complex(v[0])), abs(complex(v[1])))))


def cp_domain(z) -> bool:
    """Open fundamental domain of the projective involution at <e1>:
    |z2| < |z1|."""
    v = _as_vector(z, complex_ok=True)
    _check_unit(v)
    return bool(abs(complex(v[1])) < abs(complex(v[0])))


# --- self checks --------------------------------------------------------------


@dataclass(frozen=True)
class SelfCheckReport:
    group: str
    checks: tuple[str, ...]
    min_sampled_displacement: float | None = None


_ISOMETRY_TOL = 1e-12


def _random_points(group: DeckGroup, rng: np.random.Generator, n: int) -> list[np.ndarray]:
    pts = []
    for _ in range(n):
        if group.ambient == "flat":
            pts.append(rng.uniform(-2.0, 2.0, size=2))
        elif group.ambient == "sphere":
            v = rng.standard_normal(group.ambient_dim)
            pts.append(v / np.linalg.norm(v))
        else:
            dim = group.ambient_dim
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            pts.append(v / np.linalg.norm(v))
    return pts


def group_action_selfcheck(
    group: DeckGroup,
    samples: int = 10_000,
    pairs: int = 200,
    seed: int = 42,
    displacement_floor: float = 0.1,
) -> SelfCheckReport:
    """Verify the defining identities of a deck-group action.

    Raises SelfCheckFailed naming the violated identity.  Checks: the group
    law on generators (flat groups), T^4 = id and T^2 = -id (lens), the
    projective involution identity and fixed-point freeness via sampled
    displacements (cp), and the isometry property on random pairs (all).
    """
    rng = np.random.default_rng(seed)
    checks: list[str] = []
    min_disp: float | None = None

    if isinstance(group, (TorusGroup, KleinGroup)):
        # group law closure on generators up to depth 2
        for q in _random_points(group, rng, 20):
            if isinstance(group, TorusGroup):
                ids = [(i, j) for i in (-2, -1, 0, 1, 2) for j in (-2, -1, 0, 1, 2)]
                compose = lambda e1, e2: (e1[0] + e2[0], e1[1] + e2[1])
                apply_ = lambda e, x: x if e == (0, 0) else group.apply(e, x)
            else:
                ids = [-2, -1, 0, 1, 2]
                compose = lambda e1, e2: e1 + e2
                apply_ = lambda e, x: x if e == 0 else group.apply(e, x)
            for e1 in ids:
                for e2 in ids:
                    lhs = apply_(e1, apply_(e2, q))
                    rhs = apply_(compose(e1, e2), q)
                    if np.linalg.norm(lhs - rhs) > _ISOMETRY_TOL:
                        raise SelfCheckFailed(
                            f"{group.name}: group law violated at {e1} o {e2}"
                        )
        checks.append("group_law_depth2")

    if isinstance(group, LensGroup):
        for q in _random_points(group, rng, 20):
            t1 = group.apply("T", q)
            t2 = group.apply("T", t1)
            t4 = group.apply("T^2", t2)
            if np.linalg.norm(t4 - q) > _ISOMETRY_TOL:
                raise SelfCheckFailed("lens: T^4 != id")
            if np.linalg.norm(t2 + q) > _ISOMETRY_TOL:
                raise SelfCheckFailed("lens: T^2 != -id")
        checks.append("T4_identity")
        checks.append("T2_antipodal")

    if isinstance(group, CPInvolutionGroup):
        for q in _random_points(group, rng, 20):
            tt = group.apply("T", group.apply("T", q))
            tt = tt / np.linalg.norm(tt)
            # projectively T^2 = id: representatives differ by a phase, so
            # |<T^2 q, q>| = 1; arccos would amplify rounding here
            if abs(complex(np.vdot(tt, q))) < 1.0 - 1e-12:
                raise SelfCheckFailed("cp involution: <T>^2 != id projectively")
        checks.append("involution_projective")

    if isinstance(group, (AntipodalGroup, LensGroup, CPInvolutionGroup)):
        worst = math.inf
        for q in _random_points(group, rng, samples):
            for eid in group.element_ids(q, q):
                worst = min(worst, group.distance(q, group.apply(eid, q)))
        min_disp = worst
        if worst <= displacement_floor:
            raise SelfCheckFailed(
                f"{group.name}: sampled displacement {worst:.3e} at or below "
                f"floor {displacement_floor}; action may have fixed points"
            )
        checks.append("fixed_point_free_sampled")

    if group.ambient == "flat":
        isometry_ids = (
            [(1, 0), (0, 1), (-1, 1), (2, -2)]
            if isinstance(group, TorusGroup)
            else [-2, -1, 1, 2]
        )
    else:
        isometry_ids = list(group.element_ids(None, None))
    for _ in range(pairs):
        p, q = _random_points(group, rng, 2)
        d = group.distance(p, q)
        for eid in isometry_ids:
            gp, gq = group.apply(eid, p), group.apply(eid, q)
            if group.ambient != "flat":
                gp = gp / np.linalg.norm(gp)
                gq = gq / np.linalg.norm(gq)
            if abs(group.distance(gp, gq) - d) > _ISOMETRY_TOL:
                raise SelfCheckFailed(f"{group.name}: element {eid} is not an isometry")
    checks.append("isometry_random_pairs")

    return SelfCheckReport(group.name, tuple(checks), min_disp)


# --- cut-locus sampling and areas ---------------------------------------------


def _flat_orbit_arrays(
    group: DeckGroup, p: np.ndarray, qs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (d_identity, min over gamma != id) for flat groups."""
    if not isinstance(group, (TorusGroup, KleinGroup)):
        raise UnsupportedModel("grid sampling requires a flat deck group")
    d_id = np.linalg.norm(qs - p, axis=1)
    d_min = np.full(qs.shape[0], np.inf)
    cells = group.nearest_cell(p, qs)
    for offset in group.ring:
        images = group.apply(cells + offset, qs)
        images -= p
        d = np.linalg.norm(images, axis=1)
        # the ring holds the identity on the rows whose nearest cell is -offset
        d[np.all(cells.reshape(len(qs), -1) == np.negative(offset), axis=1)] = np.inf
        np.minimum(d_min, d, out=d_min)
    return d_id, d_min


@dataclass(frozen=True)
class GridClassification:
    points: np.ndarray  # (n, 2)
    regions: np.ndarray  # (n,) of Region
    spacing: float


def classify_points(group: DeckGroup, p, qs, tol: float = ANALYTIC_TOL) -> np.ndarray:
    """Vectorized in_fundamental_domain over an (n, 2) array of points."""
    p = _validate_point(group, p)
    qs = np.atleast_2d(np.asarray(qs, float))
    d_id, d_min = _flat_orbit_arrays(group, p, qs)
    regions = np.full(qs.shape[0], Region.EXTERIOR, dtype=object)
    regions[d_id < d_min - tol] = Region.INTERIOR
    regions[np.abs(d_id - d_min) <= tol] = Region.BOUNDARY
    return regions


def classify_grid(
    group: DeckGroup,
    p,
    resolution: int,
    halfwidth: float = RASTER_HALFWIDTH,
    tol: float | None = None,
) -> GridClassification:
    """Classify a square grid of side 2*halfwidth about p; tol defaults to
    2 * grid spacing (raster band for cut-locus pictures)."""
    p = _validate_point(group, p)
    spacing = 2.0 * halfwidth / resolution
    if tol is None:
        tol = 2.0 * spacing
    centers = (np.arange(resolution) + 0.5) * spacing - halfwidth
    xx, yy = np.meshgrid(p[0] + centers, p[1] + centers)
    qs = np.column_stack((xx.ravel(), yy.ravel()))
    regions = classify_points(group, p, qs, tol=tol)
    return GridClassification(qs, regions, spacing)


def cut_locus_sample(
    group: DeckGroup, p, resolution: int, halfwidth: float = RASTER_HALFWIDTH
) -> np.ndarray:
    """Grid points within the raster band of the cut locus (flat groups)."""
    grid = classify_grid(group, p, resolution, halfwidth)
    return grid.points[grid.regions == Region.BOUNDARY]


def fundamental_domain_area(
    group: DeckGroup, p, resolution: int, halfwidth: float = 1.0
) -> float:
    """Interior cell count times cell area, with the analytic tolerance."""
    grid = classify_grid(group, p, resolution, halfwidth, tol=ANALYTIC_TOL)
    n_interior = int(np.sum(grid.regions == Region.INTERIOR))
    return n_interior * grid.spacing**2


def sample_sphere(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def lens_domain_volume_mc(
    k: int = 1, samples: int = 100_000, seed: int = 42
) -> tuple[float, float]:
    """Monte Carlo volume of the lens fundamental domain on S^(2k+1).

    Returns (estimate, standard error); the exact value is vol(S^(2k+1))/4.
    """
    from .spaces import unit_sphere_volume

    rng = np.random.default_rng(seed)
    pts = sample_sphere(rng, samples, 2 * k + 2)
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


def flat_harmonic_residual(delta: float, q, h: float = 1e-3) -> float:
    """Richardson pair of 5-point Laplacians of the flat extension at q."""

    def lap(step: float) -> float:
        x, y = float(q[0]), float(q[1])
        f = lambda u, v: flat_radial_extension(delta, (u, v))
        return (
            f(x + step, y)
            + f(x - step, y)
            + f(x, y + step)
            + f(x, y - step)
            - 4.0 * f(x, y)
        ) / (step * step)

    return abs((4.0 * lap(h / 2.0) - lap(h)) / 3.0)


def flat_extension_is_radial(
    delta: float, samples: int = 400, seed: int = 7, gap: float = 1e-9
) -> bool:
    """Whether the extension is a function of the quotient distance alone.

    Compares each sample against a reference point at the same quotient
    distance from the image of the origin lying on the positive x-axis
    inside the window; any value disagreement breaks radiality.
    """
    lo, hi = flat_extension_domain(delta)
    torus = TorusGroup()
    origin = np.zeros(2)
    rng = np.random.default_rng(seed)
    probes = [
        np.array([0.96 * hi, 0.02]),
        np.array([0.96 * lo, 0.02]),
        np.array([0.02, 0.96 * hi]),
        np.array([0.02, 0.96 * lo]),
    ]
    candidates = probes + [
        rng.uniform(lo + 1e-3, hi - 1e-3, size=2) for _ in range(samples)
    ]
    for q in candidates:
        if not (lo < q[0] < hi and lo < q[1] < hi) or np.linalg.norm(q) < 0.05:
            continue
        d = quotient_distance(torus, origin, q)
        ref = np.array([d, 0.0])
        if not (lo < d < hi):
            continue
        if abs(quotient_distance(torus, origin, ref) - d) > 1e-12:
            continue
        if abs(flat_radial_extension(delta, q) - flat_radial_extension(delta, ref)) > gap:
            return False
    return True


def flat_extension_reflection_symmetric(delta: float, samples: int = 200, seed: int = 11) -> bool:
    """Invariance of the extension domain and values under (x,y) -> (-x,y)
    and (x,y) -> (x,-y); holds exactly when the window is centered."""
    lo, hi = flat_extension_domain(delta)
    if abs(lo + hi) > 1e-12:
        return False
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        q = rng.uniform(lo + 1e-3, hi - 1e-3, size=2)
        if np.linalg.norm(q) < 0.05:
            continue
        v = flat_radial_extension(delta, q)
        for image in ((-q[0], q[1]), (q[0], -q[1])):
            if abs(flat_radial_extension(delta, image) - v) > 1e-12:
                return False
    return True
