"""Deck-group actions, quotient distances, and injectivity radii.

Five worked quotients: the square torus R^2/Z^2, the open Klein bottle
R^2/<T> with T(x,y) = (x+1,-y), real projective space S^m/{+-id}, the lens
space S^(2k+1)/Z_4, and CP^(2k+1)/Z_2 by the conjugate-swap involution.

Points are plain numpy arrays: shape (2,) real for the flat plane, unit
vectors in R^(m+1) for spheres, and unit complex vectors (projective
representatives) for complex projective space.  All projective formulas
use moduli only, so the circle gauge of the representative never matters.

Every query runs through one kernel, ``orbit_distances``, on (n, d) arrays
of points; the single-point functions are its n = 1 calls and give the
same bits.  Orbit minima on the flat quotients search a fixed ring of
elements about the nearest cell of p - q, whatever the basepoint: the
nearest image lies in that cell, and the next nearest (needed when the
identity is excluded) is one of its immediate neighbours.  Non-finite
coordinates, and a point whose length is not the group's ``ambient_dim``,
raise InvalidPoint.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainViolation,
    InvalidPoint,
    SelfCheckFailed,
    UnsupportedModel,
)
from .numerics import derivative

UNIT_NORM_TOL = 1e-12

#: Default tolerance separating interior/boundary/exterior in analytic queries.
ANALYTIC_TOL = 1e-9

#: Half the side of the square raster about the basepoint in cut-locus samples.
RASTER_HALFWIDTH = 1.5

#: Rows per pass of orbit_distances: it bounds the (ring, rows) temporaries.
_BLOCK_ROWS = 4096


# --- ambient distances ------------------------------------------------------
#
# Every distance works row-wise on (..., d) arrays, and a query on n points
# gives exactly the n single-point answers.  Row dot products go through a
# batched matmul, which equals np.dot on each row bit for bit (norm(axis=1)
# sums in another order); arccosines and complex moduli go through the
# Python builtins, which np.arccos and np.abs may miss in the last bit.


def _row_dot(a, b) -> np.ndarray:
    """Dot products along the last axis, without conjugation."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_norm(v) -> np.ndarray:
    if np.iscomplexobj(v):
        return np.sqrt(_row_dot(v.real, v.real) + _row_dot(v.imag, v.imag))
    return np.sqrt(_row_dot(v, v))


def _each(f, a) -> np.ndarray:
    """The float function f applied to each entry of a."""
    a = np.asarray(a)
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


def flat_distances(a, b) -> np.ndarray:
    return _row_norm(a - b)


def sphere_distances(a, b) -> np.ndarray:
    return _each(math.acos, np.clip(_row_dot(a, b), -1.0, 1.0))


def cproj_distances(a, b) -> np.ndarray:
    """Fubini-Study distances between projective points given by unit vectors."""
    return _each(math.acos, np.minimum(1.0, _each(abs, _row_dot(np.conj(a), b))))


_DISTANCES = {"flat": flat_distances, "sphere": sphere_distances, "cproj": cproj_distances}


def _validate_points(kind: str, p, ndims: tuple[int, ...] = (1,)) -> np.ndarray:
    """p as a point (ndim 1) or rows of points (ndim 2) of the ambient kind:
    finite coordinates, two of them on the plane, unit norm otherwise."""
    arr = np.asarray(p, dtype=complex if kind == "cproj" else float)
    if arr.ndim not in ndims:
        shapes = " or ".join({1: "a flat vector", 2: "rows of points"}[d] for d in ndims)
        raise InvalidPoint(f"expected {shapes}, got shape {arr.shape}")
    if kind == "flat" and arr.shape[-1] != 2:
        raise InvalidPoint(f"expected 2 coordinates, got {arr.shape[-1]}")
    if not np.isfinite(arr).all():
        raise InvalidPoint("point coordinates must be finite")
    if kind != "flat":
        norms = _row_norm(arr)
        off = np.abs(norms - 1.0) > UNIT_NORM_TOL
        if off.any():
            raise InvalidPoint(f"point must be unit norm, |v| = {norms[off].flat[0]!r}")
    return arr


def ambient_distance(kind: str, p, q) -> float:
    """Distance in the named ambient geometry: flat | sphere | cproj."""
    if kind not in _DISTANCES:
        raise InvalidPoint(f"unknown ambient kind {kind!r}")
    p, q = _validate_points(kind, p), _validate_points(kind, q)
    if p.shape != q.shape:
        raise InvalidPoint(f"{kind} points must share the ambient dimension")
    return float(_DISTANCES[kind](p, q))


# --- deck groups -------------------------------------------------------------


class DeckGroup:
    """A finitely enumerable discrete isometry group of a model space.

    Concrete groups provide ``ambient`` ("flat", "sphere" or "cproj"),
    ``ring`` and ``apply(eid, points)``, which acts row-wise on an (n, d)
    array as on one point; ``ambient_dim`` is the length of a point vector,
    2 on the plane.  The finite groups list their non-identity elements
    in ``ring``.  The flat groups list offsets about the nearest cell
    ``nearest_cell(p, q)``, since the nearest image and the next nearest lie
    within them; ``element_ids(p, q)`` gives the elements themselves.  The
    ascending ring order fixes which of several tied minimizers is reported.
    """

    ambient: str = "flat"
    ambient_dim: int = 2
    name: str = "group"
    ring: tuple = ()

    def element_ids(self, p=None, q=None) -> list:
        return list(self.ring)

    def apply(self, eid, point) -> np.ndarray:
        raise NotImplementedError

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
    #: glide powers about the nearest cell: they hold the nearest even and
    #: the nearest odd power, and the next ones when 0 is excluded
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
    ring = ("-id",)

    @property
    def ambient_dim(self) -> int:
        return self.m + 1

    def apply(self, eid, point):
        return -np.asarray(point, float)


@dataclass(frozen=True)
class LensGroup(DeckGroup):
    """Z_4 on S^(2k+1): T(x1, x2, ...) = (-x2, x1, ..., -x_{2k+2}, x_{2k+1})."""

    k: int = 1

    ambient = "sphere"
    name = "lens"
    ring = ("T", "T^2", "T^3")

    @property
    def ambient_dim(self) -> int:
        return 2 * self.k + 2

    def _t(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        out[..., 0::2] = -v[..., 1::2]
        out[..., 1::2] = v[..., 0::2]
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
    ring = ("T",)

    @property
    def ambient_dim(self) -> int:
        return 2 * self.k + 2

    def apply(self, eid, point):
        z = np.asarray(point, complex)
        out = np.empty_like(z)
        out[..., 0::2] = -np.conj(z[..., 1::2])
        out[..., 1::2] = np.conj(z[..., 0::2])
        return out


# --- quotient metric and domains ---------------------------------------------


def _group_points(group: DeckGroup, p, ndims: tuple[int, ...] = (1,)) -> np.ndarray:
    """p validated as in _validate_points, with group.ambient_dim coordinates."""
    arr = _validate_points(group.ambient, p, ndims)
    if arr.shape[-1] != group.ambient_dim:
        raise InvalidPoint(
            f"{group.name} points have {group.ambient_dim} coordinates, got {arr.shape[-1]}"
        )
    return arr


def orbit_distances(group: DeckGroup, p, qs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_identity, min over gamma != id of d(p, gamma q), first) for each
    row q of qs; p is one point, or one point per row of qs.

    first indexes ``group.ring`` at the first element, in ascending order,
    that realizes the minimum; on the flat groups that element is the row's
    nearest cell shifted by the ring offset.
    """
    kind = group.ambient
    p = _group_points(group, p, ndims=(1, 2))
    qs = _group_points(group, qs, ndims=(2,))
    n = len(qs)
    if p.ndim == 2 and len(p) != n:
        raise InvalidPoint(f"points of shape {p.shape} do not pair with rows {qs.shape}")
    distance = _DISTANCES[kind]
    d_id = distance(p, qs)
    d_min, first = np.empty(n), np.empty(n, int)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        pb, qb = (p[rows] if p.ndim == 2 else p), qs[rows]
        # d[k, i]: distance from p to the image of row i under ring element k
        if kind == "flat":
            eids = group.nearest_cell(pb, qb) + np.array(group.ring)[:, None]
            d = distance(pb, group.apply(eids, qb))
            # the ring holds the identity on the rows whose nearest cell is -offset
            d[~eids.reshape(d.shape + (-1,)).any(axis=-1)] = np.inf
        else:
            d = distance(pb, np.stack([group.apply(eid, qb) for eid in group.ring]))
        first[rows] = np.argmin(d, axis=0)
        d_min[rows] = np.min(d, axis=0)
    return d_id, d_min, first


def quotient_distance(group: DeckGroup, p, q) -> float:
    """min over enumerated deck transformations gamma of d(p, gamma q)."""
    d_id, d_min, _ = orbit_distances(group, p, [q])
    return float(min(d_id[0], d_min[0]))


@dataclass(frozen=True)
class InjectivityReport:
    radius: float
    minimizer: object
    method: str = "brute_force"


def injectivity_radius(group: DeckGroup, p) -> InjectivityReport:
    """Half the minimal displacement of p under non-identity elements."""
    p = _group_points(group, p)
    _, d_min, first = orbit_distances(group, p, p[None])
    # p's nearest cell to itself is the origin, so the ring offset is the element
    return InjectivityReport(0.5 * float(d_min[0]), group.ring[first[0]])


def klein_injectivity_closed(a: float) -> float:
    """Injectivity radius of the open Klein bottle at basepoint (0, a)."""
    return 0.5 * min(2.0, math.sqrt(1.0 + 4.0 * a * a))


def injectivity_radius_closed(group: DeckGroup, p) -> InjectivityReport:
    """Closed-form counterpart of injectivity_radius; agrees within 1e-12."""
    p = _group_points(group, p)
    if isinstance(group, TorusGroup):
        radius = 0.5
    elif isinstance(group, KleinGroup):
        radius = klein_injectivity_closed(abs(float(p[1])))
    elif isinstance(group, AntipodalGroup):
        radius = 0.5 * math.pi
    elif isinstance(group, (LensGroup, CPInvolutionGroup)):
        radius = 0.25 * math.pi
    else:
        raise UnsupportedModel(f"no closed-form injectivity radius for {group.name}")
    return InjectivityReport(radius, None, method="closed_form")


class Region(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def in_fundamental_domain(group: DeckGroup, p, q, tol: float = ANALYTIC_TOL) -> Region:
    """Locate q relative to the open fundamental domain centered at p.

    With d_id = d(p, q) and d_min the distance to the nearest other image
    of q: Interior when d_id < d_min - tol, else Boundary when
    d_id <= d_min + tol, else Exterior.
    """
    return classify_points(group, p, [q], tol)[0]


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
    v = _validate_points("sphere", q)
    return bool(v[0] > abs(v[1]))


def cp_quotient_distance(z) -> float:
    """Distance from the basepoint orbit in CP^(2k+1)/Z_2.

    The orbit of <e1> sees <z> at arccos|z1| (identity) and arccos|z2|
    (the involution), so the quotient distance is the smaller of the two,
    arccos(max(|z1|, |z2|)); a circulated closed form uses the smaller
    modulus instead, which fails the two-element orbit oracle already at
    the basepoint.  Verified against the brute-force orbit minimum.
    """
    v = _validate_points("cproj", z)
    return math.acos(min(1.0, max(abs(complex(v[0])), abs(complex(v[1])))))


def cp_domain(z) -> bool:
    """Open fundamental domain of the projective involution at <e1>:
    |z2| < |z1|."""
    v = _validate_points("cproj", z)
    return bool(abs(complex(v[1])) < abs(complex(v[0])))


# --- self checks --------------------------------------------------------------


@dataclass(frozen=True)
class SelfCheckReport:
    checks: tuple[str, ...]
    min_sampled_displacement: float | None = None


_ISOMETRY_TOL = 1e-12


def _random_points(group: DeckGroup, rng: np.random.Generator, n: int) -> np.ndarray:
    """n random points as rows, drawn from rng as n single draws would be."""
    if group.ambient == "flat":
        return rng.uniform(-2.0, 2.0, size=(n, 2))
    if group.ambient == "sphere":
        v = rng.standard_normal((n, group.ambient_dim))
    else:
        x = rng.standard_normal((n, 2, group.ambient_dim))
        v = x[:, 0] + 1j * x[:, 1]
    return v / _row_norm(v)[:, None]


def _first_row(bad: np.ndarray):
    """Index of the first True entry of bad in C order, or None."""
    hits = np.argwhere(bad)
    return tuple(hits[0]) if len(hits) else None


def group_action_selfcheck(
    group: DeckGroup,
    samples: int = 10_000,
    pairs: int = 200,
    seed: int = 42,
    displacement_floor: float = 0.1,
) -> SelfCheckReport:
    """Verify the defining identities of a deck-group action.

    Raises SelfCheckFailed naming the violated identity, at the first
    violation in sample order.  Checks: the group law on generators (flat
    groups), T^4 = id and T^2 = -id (lens), the projective involution
    identity and fixed-point freeness via sampled displacements (cp), and
    the isometry property on random pairs (all).
    """
    rng = np.random.default_rng(seed)
    distance = _DISTANCES[group.ambient]
    checks: list[str] = []
    min_disp: float | None = None

    if isinstance(group, (TorusGroup, KleinGroup)):
        # group law closure on generators up to depth 2, broadcast over
        # 20 points x e1 x e2
        if isinstance(group, TorusGroup):
            ids = [(i, j) for i in (-2, -1, 0, 1, 2) for j in (-2, -1, 0, 1, 2)]
        else:
            ids = [-2, -1, 0, 1, 2]
        e = np.array(ids)
        q = _random_points(group, rng, 20)[:, None, None]
        lhs = group.apply(e[:, None], group.apply(e[None, :], q))
        rhs = group.apply(e[:, None] + e[None, :], q)
        hit = _first_row(_row_norm(lhs - rhs) > _ISOMETRY_TOL)
        if hit is not None:
            raise SelfCheckFailed(
                f"{group.name}: group law violated at {ids[hit[1]]} o {ids[hit[2]]}"
            )
        checks.append("group_law_depth2")

    if isinstance(group, LensGroup):
        q = _random_points(group, rng, 20)
        t2 = group.apply("T", group.apply("T", q))
        t4 = group.apply("T^2", t2)
        not_id = _row_norm(t4 - q) > _ISOMETRY_TOL
        hit = _first_row(not_id | (_row_norm(t2 + q) > _ISOMETRY_TOL))
        if hit is not None:
            raise SelfCheckFailed("lens: T^4 != id" if not_id[hit] else "lens: T^2 != -id")
        checks.append("T4_identity")
        checks.append("T2_antipodal")

    if isinstance(group, CPInvolutionGroup):
        q = _random_points(group, rng, 20)
        tt = group.apply("T", group.apply("T", q))
        tt = tt / _row_norm(tt)[:, None]
        # projectively T^2 = id: representatives differ by a phase, so
        # |<T^2 q, q>| = 1; arccos would amplify rounding here
        if np.any(np.abs(_row_dot(np.conj(tt), q)) < 1.0 - 1e-12):
            raise SelfCheckFailed("cp involution: <T>^2 != id projectively")
        checks.append("involution_projective")

    if isinstance(group, (AntipodalGroup, LensGroup, CPInvolutionGroup)):
        q = _random_points(group, rng, samples)
        worst = min(
            float(np.min(distance(q, group.apply(eid, q)), initial=math.inf))
            for eid in group.ring
        )
        min_disp = worst
        if worst <= displacement_floor:
            raise SelfCheckFailed(
                f"{group.name}: sampled displacement {worst:.3e} at or below "
                f"floor {displacement_floor}; action may have fixed points"
            )
        checks.append("fixed_point_free_sampled")

    if group.ambient != "flat":
        isometry_ids = list(group.ring)
    elif isinstance(group, TorusGroup):
        isometry_ids = [(1, 0), (0, 1), (-1, 1), (2, -2)]
    else:
        isometry_ids = [-2, -1, 1, 2]
    pts = _random_points(group, rng, 2 * pairs)
    p, q = pts.reshape(pairs, 2, pts.shape[-1]).transpose(1, 0, 2)
    d = distance(p, q)
    broken = []
    for eid in isometry_ids:
        gp, gq = group.apply(eid, p), group.apply(eid, q)
        if group.ambient != "flat":
            gp = gp / _row_norm(gp)[:, None]
            gq = gq / _row_norm(gq)[:, None]
        broken.append(np.abs(distance(gp, gq) - d) > _ISOMETRY_TOL)
    hit = _first_row(np.stack(broken, axis=1))
    if hit is not None:
        raise SelfCheckFailed(f"{group.name}: element {isometry_ids[hit[1]]} is not an isometry")
    checks.append("isometry_random_pairs")

    return SelfCheckReport(tuple(checks), min_disp)


# --- cut-locus sampling and areas ---------------------------------------------


@dataclass(frozen=True)
class GridClassification:
    points: np.ndarray  # (n, 2)
    regions: np.ndarray  # (n,) of Region
    spacing: float


def classify_points(group: DeckGroup, p, qs, tol: float = ANALYTIC_TOL) -> np.ndarray:
    """Region of each row of an (n, d) array, by the rule of in_fundamental_domain."""
    d_id, d_min, _ = orbit_distances(group, p, np.atleast_2d(qs))
    regions = np.full(len(d_id), Region.EXTERIOR, dtype=object)
    regions[d_id <= d_min + tol] = Region.BOUNDARY
    regions[d_id < d_min - tol] = Region.INTERIOR
    return regions


def classify_grid(
    group: DeckGroup,
    p,
    resolution: int,
    halfwidth: float = RASTER_HALFWIDTH,
    tol: float | None = None,
) -> GridClassification:
    """Classify a square grid of side 2*halfwidth about p; tol defaults to
    2 * grid spacing (raster band for cut-locus pictures).  DomainViolation
    when p is so far out that neighbouring cells round to the same float."""
    if group.ambient != "flat":
        raise UnsupportedModel("grid sampling requires a flat deck group")
    p = _validate_points("flat", p)
    spacing = 2.0 * halfwidth / resolution
    # the float step near |p| + halfwidth is at most (|p| + halfwidth) * eps
    if (np.max(np.abs(p)) + halfwidth) * np.finfo(float).eps >= spacing:
        raise DomainViolation(
            f"basepoint {tuple(p.tolist())} is too far out for raster spacing "
            f"{spacing:g}: neighbouring cells would round to the same float"
        )
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


def lens_domain_volume_mc(
    k: int = 1, samples: int = 100_000, seed: int = 42
) -> tuple[float, float]:
    """Monte Carlo volume of the lens fundamental domain on S^(2k+1).

    Returns (estimate, standard error); the exact value is vol(S^(2k+1))/4.
    """
    from .spaces import unit_sphere_volume

    rng = np.random.default_rng(seed)
    pts = _random_points(LensGroup(k), rng, samples)
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


def flat_extension_is_radial(
    delta: float, samples: int = 400, seed: int = 7, gap: float = 1e-9
) -> bool:
    """Whether the extension is a function of the quotient distance alone.

    Compares each sample against a reference point at the same quotient
    distance from the image of the origin lying on the positive x-axis
    inside the window; any value disagreement breaks radiality.
    """
    lo, hi = flat_extension_domain(delta)
    rng = np.random.default_rng(seed)
    probes = [[0.96 * hi, 0.02], [0.96 * lo, 0.02], [0.02, 0.96 * hi], [0.02, 0.96 * lo]]
    qs = np.vstack((probes, rng.uniform(lo + 1e-3, hi - 1e-3, size=(samples, 2))))
    qs = qs[np.all((lo < qs) & (qs < hi), axis=1) & (_row_norm(qs) >= 0.05)]
    torus, origin = TorusGroup(), np.zeros(2)
    d = np.minimum(*orbit_distances(torus, origin, qs)[:2])
    refs = np.column_stack((d, np.zeros_like(d)))
    d_ref = np.minimum(*orbit_distances(torus, origin, refs)[:2])
    keep = (lo < d) & (d < hi) & (np.abs(d_ref - d) <= 1e-12)
    return all(
        abs(flat_radial_extension(delta, q) - flat_radial_extension(delta, ref)) <= gap
        for q, ref in zip(qs[keep], refs[keep])
    )


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
