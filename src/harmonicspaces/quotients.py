"""Deck-group actions, quotient distances, and injectivity radii.

Five worked quotients: the square torus R^2/Z^2, the open Klein bottle
R^2/<T> with T(x,y) = (x+1,-y), real projective space S^m/{+-id}, the lens
space S^(2k+1)/Z_4, and CP^(2k+1)/Z_2 by the conjugate-swap involution.

Points are plain numpy arrays: shape (2,) real for the flat plane, unit
vectors in R^(m+1) for spheres, and unit complex vectors (projective
representatives) for complex projective space.  All projective formulas
use moduli only, so the circle gauge of the representative never matters.

Queries on arbitrary points run through one kernel, ``orbit_distances``,
on (n, d) arrays of points; ``quotient_distance`` and
``in_fundamental_domain`` are its n = 1 calls and give the same bits.
``injectivity_radius`` is an n = 1 call at the basepoint moved to 0 along
the group's ``translation_axes``, where tied displacements tie exactly.
The flat rasters of ``classify_grid`` have their own kernel,
``_grid_distances``, on the raster's two 1-D axes.  Orbit minima on the
flat quotients search a fixed ring of elements about the nearest cell of
p - q, whatever the basepoint: the nearest image lies in that cell, and
the next nearest (needed when the identity is excluded) is one of its
immediate neighbours.  Non-finite coordinates, and a point whose length is
not the group's ``ambient_dim``, raise InvalidPoint.
"""

import enum
import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainViolation,
    InvalidPoint,
    SelfCheckFailed,
    UnsupportedModel,
    UsageError,
)

UNIT_NORM_TOL = 1e-12

#: Default tolerance separating interior/boundary/exterior in analytic queries.
ANALYTIC_TOL = 1e-9

#: Half the side of the square raster about the basepoint in cut-locus samples.
RASTER_HALFWIDTH = 1.5

#: Raster cells per pass of classify_grid: it bounds the distance temporaries.
_BLOCK_CELLS = 1 << 16


# --- ambient distances ------------------------------------------------------
#
# Every distance works row-wise on (..., d) arrays, and a query on n points
# gives exactly the n single-point answers.  Row dot products go through a
# batched matmul, which equals np.dot on each row bit for bit (norm(axis=1)
# sums in another order); arccosines go through math.acos, which np.arccos
# may miss in the last bit, and complex moduli through np.hypot of the real
# and imaginary parts, the libm hypot that Python's abs calls too (np.abs
# may miss it in the last bit).
# The raster kernel _grid_distances squares and adds elementwise instead:
# that differs from the matmul in the last bit on some rows (a fused
# multiply-add inside it, probably), so a raster's region code can differ
# from classify_points only where d_id is within an ulp of d_min -+ tol.
# Every point query, and the tests' reference, keeps the matmul.


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


def _sphere_cosines(a, b) -> np.ndarray:
    return np.clip(_row_dot(a, b), -1.0, 1.0)


def _cproj_cosines(a, b) -> np.ndarray:
    z = _row_dot(np.conj(a), b)
    return np.minimum(1.0, np.hypot(z.real, z.imag))


def sphere_distances(a, b) -> np.ndarray:
    return _each(math.acos, _sphere_cosines(a, b))


def cproj_distances(a, b) -> np.ndarray:
    """Fubini-Study distances between projective points given by unit vectors."""
    return _each(math.acos, _cproj_cosines(a, b))


_DISTANCES = {"flat": flat_distances, "sphere": sphere_distances, "cproj": cproj_distances}
#: The clipped cosines whose arccosines are the curved distances.
_COSINES = {"sphere": _sphere_cosines, "cproj": _cproj_cosines}


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
    Every translation along ``translation_axes`` commutes with the group,
    so displacements do not depend on those coordinates.  Groups are
    immutable; they compare and hash by identity.
    """

    __slots__ = ()
    ambient: str = "flat"
    ambient_dim: int = 2
    name: str = "group"
    ring: tuple = ()
    translation_axes: tuple[int, ...] = ()

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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TorusGroup(DeckGroup):
    """Integer-lattice translations of the plane: the square torus R^2/Z^2."""

    __slots__ = ()
    ambient = "flat"
    name = "torus"
    ring = tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))
    translation_axes = (0, 1)

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


class KleinGroup(DeckGroup):
    """The glide group generated by T(x, y) = (x + 1, -y)."""

    __slots__ = ()
    ambient = "flat"
    name = "klein"
    #: glide powers about the nearest cell: they hold the nearest even and
    #: the nearest odd power, and the next ones when 0 is excluded
    ring = (-2, -1, 0, 1, 2)
    translation_axes = (0,)

    @staticmethod
    def nearest_cell(p, q) -> np.ndarray:
        """The glide power n taking q's x nearest to p's; q may hold rows."""
        return np.rint(p[..., 0] - q[..., 0])

    def element_ids(self, p, q):
        c = int(self.nearest_cell(np.asarray(p, float), np.asarray(q, float)))
        return [c + k for k in self.ring if c + k != 0]

    @staticmethod
    def even(n) -> np.ndarray:
        """Whether each glide power in n is even, for float or integer powers."""
        n = np.asarray(n)
        if n.dtype.kind == "f":
            # n is even iff n / 2 is whole: the verdict of n % 2 == 0 on every
            # finite float, at a quarter of the float remainder's cost
            return np.rint(n * 0.5) * 2 == n
        # integer powers keep the exact remainder: n * 0.5 rounds past 2**53
        return n % 2 == 0

    def apply(self, eid, point):
        """T^n for eid = n, or row-wise for an (n,) array of powers."""
        pt = np.asarray(point, float)
        n = np.asarray(eid)
        flipped = np.where(self.even(n), pt[..., 1], -pt[..., 1])
        return np.stack((pt[..., 0] + n, flipped), axis=-1)


def _group_index(name: str, label: str, value, least: int) -> int:
    """value as an int of at least ``least``: the parameter of a curved group."""
    try:
        n = operator.index(value)
    except TypeError:
        raise UnsupportedModel(f"{name}: {label} must be an integer, got {value!r}") from None
    if n < least:
        raise UnsupportedModel(f"{name}: {label} must be >= {least}, got {n}")
    return n


class AntipodalGroup(DeckGroup):
    """{id, -id} on the m-sphere; the quotient is real projective space."""

    __slots__ = ("m",)
    ambient = "sphere"
    name = "rp"
    ring = ("-id",)

    def __init__(self, m: int = 2):
        object.__setattr__(self, "m", _group_index(self.name, "m", m, 1))

    @property
    def ambient_dim(self) -> int:
        return self.m + 1

    def apply(self, eid, point):
        return -np.asarray(point, float)


class LensGroup(DeckGroup):
    """Z_4 on S^(2k+1): T(x1, x2, ...) = (-x2, x1, ..., -x_{2k+2}, x_{2k+1})."""

    __slots__ = ("k",)
    ambient = "sphere"
    name = "lens"
    ring = ("T", "T^2", "T^3")

    def __init__(self, k: int = 1):
        object.__setattr__(self, "k", _group_index(self.name, "k", k, 0))

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


class CPInvolutionGroup(DeckGroup):
    """Z_2 on CP^(2k+1): <T> with T(z) = (-conj(z2), conj(z1), ...).

    T itself has order 4 on the sphere but T^2 = -id, so the projective
    action is an involution; it is fixed-point free.
    """

    __slots__ = ("k",)
    ambient = "cproj"
    name = "cpq"
    ring = ("T",)

    def __init__(self, k: int = 1):
        object.__setattr__(self, "k", _group_index(self.name, "k", k, 0))

    @property
    def ambient_dim(self) -> int:
        return 2 * self.k + 2

    def apply(self, eid, point):
        z = np.asarray(point, complex)
        out = np.empty_like(z)
        out[..., 0::2] = -np.conj(z[..., 1::2])
        out[..., 1::2] = np.conj(z[..., 0::2])
        return out


#: The five deck groups by id, the ``name`` of each class.
GROUPS = {g.name: g for g in (TorusGroup, KleinGroup, AntipodalGroup, LensGroup, CPInvolutionGroup)}


def make_group(group_id: str, **kwargs) -> DeckGroup:
    try:
        return GROUPS[group_id](**kwargs)
    except KeyError:
        raise UsageError(f"unknown group id {group_id!r}") from None


# --- quotient metric and domains ---------------------------------------------


def _group_points(group: DeckGroup, p, ndims: tuple[int, ...] = (1,)) -> np.ndarray:
    """p as a point (ndim 1) or rows of points (ndim 2) of the group's
    ambient space: group.ambient_dim finite coordinates, of unit norm off
    the plane."""
    arr = np.asarray(p, dtype=complex if group.ambient == "cproj" else float)
    if arr.ndim not in ndims:
        shapes = " or ".join({1: "a flat vector", 2: "rows of points"}[d] for d in ndims)
        raise InvalidPoint(f"expected {shapes}, got shape {arr.shape}")
    if arr.shape[-1] != group.ambient_dim:
        raise InvalidPoint(f"expected {group.ambient_dim} coordinates, got {arr.shape[-1]}")
    if not np.isfinite(arr).all():
        raise InvalidPoint("point coordinates must be finite")
    if group.ambient != "flat":
        norms = _row_norm(arr)
        off = np.abs(norms - 1.0) > UNIT_NORM_TOL
        if off.any():
            raise InvalidPoint(f"point must be unit norm, |v| = {norms[off].flat[0]!r}")
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
    if p.ndim == 2 and len(p) != len(qs):
        raise InvalidPoint(f"points of shape {p.shape} do not pair with rows {qs.shape}")
    distance = _DISTANCES[kind]
    # d[k, i]: distance from p to the image of row i under ring element k
    if kind == "flat":
        eids = group.nearest_cell(p, qs) + np.array(group.ring)[:, None]
        d = distance(p, group.apply(eids, qs))
        # the ring holds the identity on the rows whose nearest cell is -offset
        d[~eids.reshape(d.shape + (-1,)).any(axis=-1)] = np.inf
    else:
        d = distance(p, np.stack([group.apply(eid, qs) for eid in group.ring]))
    return distance(p, qs), np.min(d, axis=0), np.argmin(d, axis=0)


def quotient_distance(group: DeckGroup, p, q) -> float:
    """min over enumerated deck transformations gamma of d(p, gamma q)."""
    d_id, d_min, _ = orbit_distances(group, p, [q])
    return float(min(d_id[0], d_min[0]))


class InjectivityReport(NamedTuple):
    radius: float
    minimizer: object


def injectivity_radius(group: DeckGroup, p) -> InjectivityReport:
    """Half the minimal displacement of p under non-identity elements.

    The displacement is taken at p moved to 0 along ``translation_axes``.
    There p - gamma p is exact on the flat groups, so elements that displace
    p equally tie exactly and the first of them in ring order is reported.
    """
    p = _group_points(group, p).copy()
    p[list(group.translation_axes)] = 0.0
    _, d_min, first = orbit_distances(group, p, p[None])
    # p's nearest cell to itself is the origin, so the ring offset is the element
    return InjectivityReport(0.5 * float(d_min[0]), group.ring[first[0]])


def klein_injectivity_closed(a: float) -> float:
    """Injectivity radius of the open Klein bottle at basepoint (0, a)."""
    return 0.5 * min(2.0, math.sqrt(1.0 + 4.0 * a * a))


def injectivity_radius_closed(group: DeckGroup, p) -> float:
    """Closed-form counterpart of injectivity_radius's radius; agrees within 1e-12."""
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
    return radius


class Region(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


#: The Region of each region code: ``REGION_TABLE[codes]`` is an object array.
REGION_TABLE = np.array([Region.INTERIOR, Region.BOUNDARY, Region.EXTERIOR], dtype=object)
_CODE = {region: code for code, region in enumerate(REGION_TABLE)}


def in_fundamental_domain(group: DeckGroup, p, q, tol: float = ANALYTIC_TOL) -> Region:
    """Locate q relative to the open fundamental domain centered at p.

    With d_id = d(p, q) and d_min the distance to the nearest other image
    of q: Interior when d_id < d_min - tol, else Boundary when
    d_id <= d_min + tol, else Exterior.
    """
    return classify_points(group, p, [q], tol)[0]


# --- self checks --------------------------------------------------------------


class SelfCheckReport(NamedTuple):
    checks: tuple[str, ...]
    min_sampled_displacement: float | None = None


_ISOMETRY_TOL = 1e-12
#: Random point pairs of group_action_selfcheck's isometry check.
_SELFCHECK_PAIRS = 200


_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser, in place on a uint64 array (arrays wrap silently)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


#: The seed of every sampled check when none is given: ``verify all`` and
#: ``group_action_selfcheck``.
DEFAULT_SEED = 42


class SeededStream:
    """Counter-based SplitMix64 draws (Steele, Lea and Flood, OOPSLA 2014).

    The i-th value is the finaliser of key + i * gamma, and the counter
    advances by the number of values drawn, so n single draws equal one
    draw of n.  The key folds in every 64-bit word of the seed.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise UsageError(f"seed must be a non-negative integer, got {seed}")
        key = np.zeros(1, dtype=np.uint64)
        for shift in range(0, max(seed.bit_length(), 1), 64):
            key = _splitmix64(key + _GOLDEN_GAMMA + ((seed >> shift) & (2**64 - 1)))
        # a Python int: adding a one-element array would broadcast, 8x slower
        self._key, self._count = int(key[0]), 0

    def _unit(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), the top 53 bits of the next n values."""
        z = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z *= _GOLDEN_GAMMA
        z += self._key
        _splitmix64(z)
        z >>= 11
        # int64 holds the 53 bits, and converts to float64 faster than uint64
        return z.view(np.int64) * 2.0**-53

    def uniform(self, lo: float, hi: float, size) -> np.ndarray:
        return lo + (hi - lo) * self._unit(int(np.prod(size))).reshape(size)

    def standard_normal(self, size) -> np.ndarray:
        """Box-Muller: each normal takes the next two uniforms."""
        u = self._unit(2 * int(np.prod(size))).reshape(-1, 2)
        z = np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1])
        return z.reshape(size)


def _random_points(group: DeckGroup, rng: SeededStream, n: int) -> np.ndarray:
    """n random points as rows, drawn from rng as n single draws would be.

    rng is a SeededStream or anything with its two methods, such as a numpy
    Generator.
    """
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
    seed: int = DEFAULT_SEED,
) -> SelfCheckReport:
    """Verify the defining identities of a deck-group action.

    Raises SelfCheckFailed naming the violated identity, at the first
    violation in sample order.  Checks: the group law on ring x ring (flat
    groups), T^4 = id and T^2 = -id (lens), the projective involution
    identity (cp), a least sampled displacement of twice the closed
    injectivity radius (rp, lens, cp: their maps are Clifford translations,
    which move every point equally), and the isometry property of each ring
    element on _SELFCHECK_PAIRS random pairs (all).
    """
    rng = SeededStream(seed)
    distance = _DISTANCES[group.ambient]
    checks: list[str] = []
    min_disp: float | None = None

    if group.ambient == "flat":
        # group law closure on ring products, which reach depth 2,
        # broadcast over 20 points x e1 x e2
        e = np.array(group.ring)
        q = _random_points(group, rng, 20)[:, None, None]
        lhs = group.apply(e[:, None], group.apply(e[None, :], q))
        rhs = group.apply(e[:, None] + e[None, :], q)
        hit = _first_row(_row_norm(lhs - rhs) > _ISOMETRY_TOL)
        if hit is not None:
            raise SelfCheckFailed(
                f"{group.name}: group law violated at {group.ring[hit[1]]} o {group.ring[hit[2]]}"
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

    if group.ambient != "flat":
        q = _random_points(group, rng, samples)
        cosine = _COSINES[group.ambient]
        # acos decreases, so the least displacement is one acos of the
        # largest cosine, as math.acos would give it for that sample
        largest = max(
            float(np.max(cosine(q, group.apply(eid, q)), initial=-1.0)) for eid in group.ring
        )
        min_disp = math.acos(largest) if len(q) else math.inf
        closed = 2.0 * injectivity_radius_closed(group, group.basepoint())
        if len(q) and abs(largest - math.cos(closed)) > _ISOMETRY_TOL:
            raise SelfCheckFailed(
                f"{group.name}: sampled displacement {min_disp:.3e} is not the closed "
                f"{closed:.3e}; action may have fixed points"
            )
        checks.append("fixed_point_free_sampled")

    pts = _random_points(group, rng, 2 * _SELFCHECK_PAIRS)
    p, q = pts.reshape(_SELFCHECK_PAIRS, 2, pts.shape[-1]).transpose(1, 0, 2)
    d = distance(p, q)
    broken = []
    for eid in group.ring:
        gp, gq = group.apply(eid, p), group.apply(eid, q)
        if group.ambient != "flat":
            gp = gp / _row_norm(gp)[:, None]
            gq = gq / _row_norm(gq)[:, None]
        broken.append(np.abs(distance(gp, gq) - d) > _ISOMETRY_TOL)
    hit = _first_row(np.stack(broken, axis=1))
    if hit is not None:
        raise SelfCheckFailed(f"{group.name}: element {group.ring[hit[1]]} is not an isometry")
    checks.append("isometry_random_pairs")

    return SelfCheckReport(tuple(checks), min_disp)


# --- cut-locus sampling and areas ---------------------------------------------


class GridClassification(NamedTuple):
    """A raster by its axes: cell k is (xs[k % len(xs)], ys[k // len(xs)])."""

    xs: np.ndarray  # (res,) x of each raster column
    ys: np.ndarray  # (res,) y of each raster row
    codes: np.ndarray  # (res * res,) int8 region codes, indices into REGION_TABLE
    spacing: float

    def cells_in(self, region: Region) -> np.ndarray:
        """The indices, ascending, of the cells classified as region."""
        return np.flatnonzero(self.codes == _CODE[region])

    @property
    def points(self) -> np.ndarray:
        """Every cell as an (n, 2) row, built on each call."""
        return np.column_stack((np.tile(self.xs, len(self.ys)), np.repeat(self.ys, len(self.xs))))


def _region_codes(d_id, d_min, tol: float) -> np.ndarray:
    """Region codes from orbit distances, by the rule of in_fundamental_domain."""
    codes = np.full(np.shape(d_id), _CODE[Region.EXTERIOR], dtype=np.int8)
    codes[d_id <= d_min + tol] = _CODE[Region.BOUNDARY]
    codes[d_id < d_min - tol] = _CODE[Region.INTERIOR]
    return codes


def classify_points(group: DeckGroup, p, qs, tol: float = ANALYTIC_TOL) -> np.ndarray:
    """Region of each row of an (n, d) array, by the rule of in_fundamental_domain."""
    d_id, d_min, _ = orbit_distances(group, p, np.atleast_2d(qs))
    return REGION_TABLE[_region_codes(d_id, d_min, tol)]


def _grid_distances(group: DeckGroup, p, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """(d_identity, min over gamma != id of d(p, gamma q)) for the cells
    q = (xs[j], ys[i]) of a raster, as (len(ys), len(xs)) arrays.

    Both flat groups act one axis at a time, so every image distance is
    sqrt(a[j] + b[i]) with a squared 1-D difference a along x and b along
    y, each taken as p - gamma q is in orbit_distances.  The ring, bar the
    identity, splits into two products of x terms by y terms.  Correctly
    rounded addition is monotone in each term, so the least rounded sum
    over a product is the rounded sum of its least x and least y term, and
    sqrt is monotone too: the result is, bit for bit, the least of the
    ring's elementwise image distances.  It can differ from
    orbit_distances in the last bit, whose row dots are a matmul.
    """
    px, py = p
    dx, dy = px - xs, py - ys
    d_id = np.sqrt((dx * dx) + (dy * dy)[:, None])
    if isinstance(group, TorusGroup):
        # the ring is (-1, 0, 1) x (-1, 0, 1) about the nearest cell; the
        # identity is the cell (0, 0), so the ring bar the identity is
        # (others_x x all_y) and (identity_x x others_y)
        offsets = np.array((-1.0, 0.0, 1.0))[:, None]
        terms = []
        for v, vs in ((px, xs), (py, ys)):
            cells = np.rint(v - vs) + offsets
            sq = v - (vs + cells)
            sq *= sq
            at_id = cells == 0
            others = np.where(at_id, np.inf, sq).min(axis=0)
            terms.append((others, np.where(at_id, sq, np.inf).min(axis=0)))
        (others_x, id_x), (others_y, id_y) = terms
        pairs = ((others_x, np.minimum(others_y, id_y)), (id_x, others_y))
    else:
        # glide powers about the nearest cell; their y image is y or -y by
        # parity, so the even powers (bar the identity) pair with py - y
        # and the odd ones with py - (-y)
        powers = np.rint(px - xs) + np.array(group.ring, float)[:, None]
        sq = px - (xs + powers)
        sq *= sq
        even = group.even(powers)
        flip = py - -ys
        pairs = (
            (np.where(even & (powers != 0), sq, np.inf).min(axis=0), dy * dy),
            (np.where(even, np.inf, sq).min(axis=0), flip * flip),
        )
    (a1, b1), (a2, b2) = pairs
    d2 = a1 + b1[:, None]
    np.minimum(d2, a2 + b2[:, None], out=d2)
    return d_id, np.sqrt(d2, out=d2)


def classify_grid(
    group: DeckGroup,
    p,
    resolution: int,
    halfwidth: float = RASTER_HALFWIDTH,
    tol: float | None = None,
) -> GridClassification:
    """Classify a square grid of side 2*halfwidth about p; tol defaults to
    2 * grid spacing (raster band for cut-locus pictures).  UsageError for
    a resolution below 1; DomainViolation when p is so far out that
    neighbouring cells round to the same float.

    Cell k is (p[0] + centers[k % resolution], p[1] + centers[k // resolution]),
    and the orbit distances come from the per-axis kernel _grid_distances,
    on blocks of whole raster rows of about _BLOCK_CELLS cells.
    """
    if group.ambient != "flat":
        raise UnsupportedModel("grid sampling requires a flat deck group")
    p = _group_points(group, p)
    if resolution < 1:
        raise UsageError(f"resolution must be >= 1, got {resolution}")
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
    xs, ys = p[0] + centers, p[1] + centers
    codes = np.empty((resolution, resolution), dtype=np.int8)
    rows = max(1, _BLOCK_CELLS // resolution)
    for i in range(0, resolution, rows):
        codes[i : i + rows] = _region_codes(*_grid_distances(group, p, xs, ys[i : i + rows]), tol)
    return GridClassification(xs, ys, codes.ravel(), spacing)


def fundamental_domain_area(group: DeckGroup, p, resolution: int) -> float:
    """Interior cells times cell area, half-width 1 and the analytic tolerance."""
    grid = classify_grid(group, p, resolution, 1.0, tol=ANALYTIC_TOL)
    return np.count_nonzero(grid.codes == _CODE[Region.INTERIOR]) * grid.spacing**2
