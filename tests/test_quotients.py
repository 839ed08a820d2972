import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonicspaces import cli, quotients
from harmonicspaces.errors import (
    DomainViolation,
    InvalidPoint,
    SelfCheckFailed,
    UnsupportedModel,
    UsageError,
)
from harmonicspaces.quotients import (
    ANALYTIC_TOL,
    AntipodalGroup,
    CPInvolutionGroup,
    KleinGroup,
    LensGroup,
    REGION_TABLE,
    Region,
    SeededStream,
    TorusGroup,
    _grid_distances,
    _group_points,
    _random_points,
    _row_norm,
    classify_grid,
    classify_points,
    cproj_distances,
    flat_distances,
    fundamental_domain_area,
    group_action_selfcheck,
    in_fundamental_domain,
    injectivity_radius,
    injectivity_radius_closed,
    klein_injectivity_closed,
    orbit_distances,
    quotient_distance,
    sphere_distances,
)
from quotient_helpers import (
    FixedPointAntipodal,
    flat_extension_is_radial,
    flat_extension_reflection_symmetric,
    flat_harmonic_residual,
    flat_radial_extension,
    klein_fundamental_region,
    lens_domain_volume_mc,
)

E1_S2 = np.array([1.0, 0.0, 0.0])


# Closed-form fundamental domains and distances, independent of the orbit
# search, that the tests hold classify_points and the orbit distances to.


def lens_domain(q) -> bool:
    """Open fundamental domain of the lens quotient at e1: x1 > |x2|."""
    v = _group_points(LensGroup(k=1), q)
    return bool(v[0] > abs(v[1]))


def cp_quotient_distance(z) -> float:
    """Distance from the basepoint orbit in CP^(2k+1)/Z_2.

    The orbit of <e1> sees <z> at arccos|z1| (identity) and arccos|z2|
    (the involution), so the quotient distance is the smaller of the two,
    arccos(max(|z1|, |z2|)); a circulated closed form uses the smaller
    modulus instead, which fails the two-element orbit oracle already at
    the basepoint.
    """
    v = _group_points(CPInvolutionGroup(k=1), z)
    return math.acos(min(1.0, max(abs(complex(v[0])), abs(complex(v[1])))))


def cp_domain(z) -> bool:
    """Open fundamental domain of the projective involution at <e1>:
    |z2| < |z1|."""
    v = _group_points(CPInvolutionGroup(k=1), z)
    return bool(abs(complex(v[1])) < abs(complex(v[0])))


def unit(v):
    v = np.asarray(v, dtype=complex if np.iscomplexobj(v) else float)
    return v / np.linalg.norm(v)


# --- ambient distances


def test_flat_distance():
    assert flat_distances(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_sphere_distance():
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    assert sphere_distances(e1, e2) == pytest.approx(math.pi / 2, abs=1e-15)


def test_cproj_distance():
    p = unit(np.array([1, 0, 0, 0], dtype=complex))
    q = unit(np.array([1, 1, 0, 0], dtype=complex))
    assert cproj_distances(p, q) == pytest.approx(math.pi / 4, abs=1e-12)


def test_cproj_distances_match_per_sample_abs_and_acos():
    # np.hypot of the parts is the libm hypot that abs(complex) calls, so the
    # array moduli equal the per-sample path bit for bit (np.abs does not)
    group = CPInvolutionGroup()
    a, b = (_random_points(group, SeededStream(seed), 2000) for seed in (7, 8))
    cosines = quotients._row_dot(np.conj(a), b).tolist()
    expected = [math.acos(min(1.0, abs(c))) for c in cosines]
    assert [d.hex() for d in cproj_distances(a, b).tolist()] == [d.hex() for d in expected]


def test_invalid_points_rejected():
    with pytest.raises(InvalidPoint, match="unit norm"):
        quotient_distance(AntipodalGroup(m=2), np.array([1.0, 1.0, 0.0]), E1_S2)
    with pytest.raises(InvalidPoint, match="expected 2 coordinates"):
        quotient_distance(TorusGroup(), (1.0, 2.0, 3.0), (0.0, 0.0))
    with pytest.raises(
        InvalidPoint,
        match=r"^expected a flat vector or rows of points, got shape \(3, 3, 2\)$",
    ):
        orbit_distances(TorusGroup(), np.zeros((3, 3, 2)), np.zeros((3, 2)))
    with pytest.raises(
        InvalidPoint, match=r"^points of shape \(3, 2\) do not pair with rows \(2, 2\)$"
    ):
        orbit_distances(TorusGroup(), np.zeros((3, 2)), np.zeros((2, 2)))


# --- quotient distances


def test_torus_wraparound():
    torus = TorusGroup()
    assert quotient_distance(torus, (0.0, 0.0), (0.9, 0.0)) == pytest.approx(0.1)


def test_klein_two_candidates():
    klein = KleinGroup()
    got = quotient_distance(klein, (0.0, 0.0), (0.6, 0.2))
    assert got == pytest.approx(math.sqrt(0.2), abs=1e-15)


_GLIDE_POWERS = [0.0, 1.0, 2.0, 2.0**53 - 1, 2.0**53, 2.0**54 + 2, 1e300, 5e-324]


def _glide_by_remainder(n, point):
    # T^n with the parity of n taken by the float remainder
    n = np.asarray(n)
    y = np.where(n % 2 == 0, point[..., 1], -point[..., 1])
    return np.stack((point[..., 0] + n, y), axis=-1)


@pytest.mark.parametrize("kind", [float, int])
def test_klein_glide_parity_matches_remainder_rule(kind):
    # bit for bit, and without a warning: a cast of 1e300 to int64 warns
    klein = KleinGroup()
    powers = [kind(n) for n in _GLIDE_POWERS if kind is float or n < 2.0**63]
    if kind is int:
        powers += [2**53 + 1, 2**54 + 3]
    powers += [-n for n in powers]
    rng = np.random.default_rng(23)
    points = np.vstack(([0.0, 0.0], [0.25, -0.0], rng.uniform(-2.0, 2.0, (len(powers) - 2, 2))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, point in zip(powers, points):
            got = klein.apply(n, point)
            assert got.tobytes() == _glide_by_remainder(n, point).tobytes(), n
        # rows of powers against rows of points, as orbit_distances applies them
        grid = np.array([powers, powers[::-1]])
        got = klein.apply(grid, points)
        assert got.tobytes() == _glide_by_remainder(grid, points).tobytes()


def test_lens_same_orbit():
    lens = LensGroup()
    q = lens.apply("T", lens.basepoint())
    assert quotient_distance(lens, lens.basepoint(), q) == 0.0


@pytest.mark.parametrize("group, size", [(TorusGroup(), 8), (KleinGroup(), 4)])
@pytest.mark.parametrize("p", [(0.0, 0.0), (3.0, 4.0), (600.0, -800.0)])
def test_element_ring_size_independent_of_basepoint(group, size, p):
    p = np.asarray(p)
    for q in (p, p + (0.3, -0.2)):
        assert len(group.element_ids(p, q)) == size


def test_ring_finds_far_orbit_images():
    # the nearest cell of p - q is far from the identity
    assert quotient_distance(TorusGroup(), (0.0, 0.0), (3.0, 0.0)) == 0.0
    assert quotient_distance(TorusGroup(), (1000.2, 0.0), (0.0, 0.0)) == pytest.approx(0.2)
    assert quotient_distance(KleinGroup(), (0.0, 0.3), (-7.0, -0.3)) == 0.0


@settings(max_examples=25, deadline=None)
@given(
    px=st.floats(-1, 1), py=st.floats(-1, 1),
    qx=st.floats(-1, 1), qy=st.floats(-1, 1),
    rx=st.floats(-1, 1), ry=st.floats(-1, 1),
)
def test_quotient_metric_axioms(px, py, qx, qy, rx, ry):
    torus = TorusGroup()
    p, q, r = (px, py), (qx, qy), (rx, ry)
    dpq = quotient_distance(torus, p, q)
    assert dpq == pytest.approx(quotient_distance(torus, q, p), abs=1e-12)
    assert dpq <= quotient_distance(torus, p, r) + quotient_distance(torus, r, q) + 1e-12


def _torus_distance_batch(diffs):
    # translation invariance: d(p, q) depends on q - p only
    best = np.full(diffs.shape[0], np.inf)
    for i in range(-9, 10):
        for j in range(-9, 10):
            shifted = diffs + np.array([i, j])
            np.minimum(best, np.linalg.norm(shifted, axis=1), out=best)
    return best


def test_metric_axioms_thousand_triples():
    rng = np.random.default_rng(29)
    n = 1000

    # torus, vectorized over all triples at once
    p, q, r = (rng.uniform(-0.6, 0.6, size=(n, 2)) for _ in range(3))
    dpq = _torus_distance_batch(q - p)
    dqp = _torus_distance_batch(p - q)
    dpr = _torus_distance_batch(r - p)
    drq = _torus_distance_batch(q - r)
    assert np.max(np.abs(dpq - dqp)) <= 1e-12
    assert np.all(dpq <= dpr + drq + 1e-12)

    # the other groups as array calls: one orbit_distances call per pairing
    p, q, r = rng.uniform(-0.6, 0.6, size=(n, 3, 2)).transpose(1, 0, 2)
    _assert_metric_axioms(KleinGroup(), p, q, r)

    for group in (AntipodalGroup(m=2), LensGroup()):
        pts = _random_points(group, rng, 3 * n)
        _assert_metric_axioms(group, pts[0::3], pts[1::3], pts[2::3])

    zs = rng.standard_normal((3 * n, 4)) + 1j * rng.standard_normal((3 * n, 4))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    _assert_metric_axioms(CPInvolutionGroup(), zs[0::3], zs[1::3], zs[2::3])


def _quotient_distances(group, p, q):
    d_id, d_min, _ = orbit_distances(group, p, q)
    return np.minimum(d_id, d_min)


def _assert_metric_axioms(group, p, q, r):
    # symmetry and the triangle inequality on each row's triple
    dpq = _quotient_distances(group, p, q)
    assert np.max(np.abs(dpq - _quotient_distances(group, q, p))) <= 1e-12
    assert np.all(
        dpq <= _quotient_distances(group, p, r) + _quotient_distances(group, r, q) + 1e-12
    )


# --- injectivity radii


def test_torus_injectivity_everywhere():
    torus = TorusGroup()
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.uniform(-1, 1, size=2)
        rep = injectivity_radius(torus, p)
        assert rep.radius == pytest.approx(0.5, abs=1e-12)


def test_klein_injectivity_sweep():
    klein = KleinGroup()
    for i in range(41):
        a = 0.05 * i
        got = injectivity_radius(klein, (0.0, a)).radius
        assert got == pytest.approx(klein_injectivity_closed(a), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    group=st.sampled_from([TorusGroup(), KleinGroup()]),
    x=st.floats(-1e6, 1e6),
    y=st.floats(-1e6, 1e6),
)
@example(group=KleinGroup(), x=-1.6370544387997217, y=0.19709943149766784)
@example(group=TorusGroup(), x=-1.3545299744683168, y=-0.14580048193364958)
def test_injectivity_minimizer_is_first_of_exact_ties(group, x, y):
    # lattice translations, and the glides T^-1 and T, displace p by equal
    # amounts; the first of the tie in ring order is reported, whatever
    # the rounding of x - (x + 1) would favour
    if isinstance(group, KleinGroup):
        y = math.fmod(y, 0.866)  # |y| < sqrt(3)/2, where T^-2 and T^2 are farther
        expected = -1
    else:
        expected = (-1, 0)
    rep = injectivity_radius(group, (x, y))
    assert rep.minimizer == expected
    closed = injectivity_radius_closed(group, (x, y))
    assert rep.radius == pytest.approx(closed, rel=0, abs=1e-12)


def test_klein_picture_values():
    assert klein_injectivity_closed(0.0) == pytest.approx(0.5, abs=1e-15)
    assert klein_injectivity_closed(0.25) == pytest.approx(0.5590169943749475, abs=1e-15)
    assert klein_injectivity_closed(1.0) == pytest.approx(1.0, abs=1e-15)
    # even in a
    assert klein_injectivity_closed(-0.3) == klein_injectivity_closed(0.3)


def test_antipodal_injectivity():
    for m in (2, 3, 4):
        group = AntipodalGroup(m=m)
        e1 = np.zeros(m + 1)
        e1[0] = 1.0
        rep = injectivity_radius(group, e1)
        assert rep.radius == pytest.approx(math.pi / 2, abs=1e-12)
        assert rep.minimizer == "-id"


def test_lens_injectivity():
    lens = LensGroup()
    rep = injectivity_radius(lens, lens.basepoint())
    assert rep.radius == pytest.approx(math.pi / 4, abs=1e-12)
    # the quotient is homogeneous: same radius at random points
    rng = np.random.default_rng(3)
    for p in _random_points(lens, rng, 5):
        assert injectivity_radius(lens, p).radius == pytest.approx(
            math.pi / 4, abs=1e-12
        )


def test_cp_involution_injectivity():
    cpq = CPInvolutionGroup()
    rep = injectivity_radius(cpq, cpq.basepoint())
    assert rep.radius == pytest.approx(math.pi / 4, abs=1e-12)


def test_brute_force_report_agrees_with_closed_form_report():
    cases = [
        (TorusGroup(), np.array([0.2, -0.4])),
        (KleinGroup(), np.array([0.0, 0.7])),
        (AntipodalGroup(m=3), np.array([0.0, 0.0, 1.0, 0.0])),
        (LensGroup(), LensGroup().basepoint()),
        (CPInvolutionGroup(), CPInvolutionGroup().basepoint()),
    ]
    for group, p in cases:
        brute = injectivity_radius(group, p)
        assert abs(brute.radius - injectivity_radius_closed(group, p)) <= 1e-12


# --- fundamental domains


def test_torus_fundamental_domain_regions():
    torus = TorusGroup()
    origin = (0.0, 0.0)
    assert in_fundamental_domain(torus, origin, (0.49, 0.0)) is Region.INTERIOR
    assert in_fundamental_domain(torus, origin, (0.5, 0.3)) is Region.BOUNDARY
    assert in_fundamental_domain(torus, origin, (0.8, 0.0)) is Region.EXTERIOR


def test_klein_boundary_line():
    a = 0.25
    klein = KleinGroup()
    # the segment of 1 + 2x + 4ay = 0 bounding the domain
    for x in (-0.5, -0.25, 0.0):
        y = -(1.0 + 2.0 * x) / (4.0 * a)
        assert in_fundamental_domain(klein, (0.0, a), (x, y)) is Region.BOUNDARY


def test_klein_fundamental_region_inequalities():
    assert klein_fundamental_region(0.5, (0.0, 0.0))
    assert not klein_fundamental_region(0.5, (1.0, 0.3))
    assert not klein_fundamental_region(0.5, (-1.0, -2.0))
    # just below y = -1/(4a) at x = 0
    assert not klein_fundamental_region(0.25, (0.0, -1.0001))


def test_klein_region_matches_brute_force():
    a = 0.6
    klein = KleinGroup()
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(300):
        q = rng.uniform(-1.6, 1.6, size=2)
        region = in_fundamental_domain(klein, (0.0, a), q)
        if region is Region.BOUNDARY:
            continue
        assert klein_fundamental_region(a, q) == (region is Region.INTERIOR)
        checked += 1
    assert checked > 250


def test_interior_iff_identity_realizes_distance():
    torus = TorusGroup()
    p = np.zeros(2)
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = rng.uniform(-1.2, 1.2, size=2)
        region = in_fundamental_domain(torus, p, q)
        if region is Region.BOUNDARY:
            continue
        identity_realizes = flat_distances(p, q) <= quotient_distance(
            torus, p, q
        ) + 1e-15
        assert identity_realizes == (region is Region.INTERIOR)


def test_projection_isometry_on_interior():
    torus = TorusGroup()
    p = np.zeros(2)
    rng = np.random.default_rng(13)
    for _ in range(100):
        q = rng.uniform(-0.49, 0.49, size=2)
        if in_fundamental_domain(torus, p, q) is Region.INTERIOR:
            assert quotient_distance(torus, p, q) == flat_distances(p, q)


def _brute_force_orbit_min(group, p, qs):
    # every element within 4 cells of p - q, a wider window than the ring;
    # near the origin, the whole box |i|, |j| <= ceil(|p|) + 3
    if np.linalg.norm(p) <= 5:
        lo = -(math.ceil(np.linalg.norm(p)) + 3)
        hi = -lo
    else:
        lo = math.floor(np.min(p - qs)) - 4
        hi = math.ceil(np.max(p - qs)) + 4
    powers = range(lo, hi + 1)
    d_min = np.full(len(qs), np.inf)
    if isinstance(group, TorusGroup):
        for i, j in itertools.product(powers, powers):
            if (i, j) != (0, 0):
                images = qs + np.array([i, j])
                np.minimum(d_min, _row_norm(images - p), out=d_min)
    else:
        for n in powers:
            if n != 0:
                images = np.column_stack(
                    (qs[:, 0] + n, qs[:, 1] if n % 2 == 0 else -qs[:, 1])
                )
                np.minimum(d_min, _row_norm(images - p), out=d_min)
    return d_min


def test_classify_points_matches_scalar():
    rng = np.random.default_rng(17)
    for group, p in itertools.product(
        (TorusGroup(), KleinGroup()),
        ((0.0, 0.0), (3.7, -2.2), (-40.3, 17.9), (1000.3, -7.0)),
    ):
        p = np.asarray(p)
        qs = p + rng.uniform(-1.5, 1.5, size=(200, 2))
        case = f"{group.name} at {p}"
        d_id, d_min, _ = orbit_distances(group, p, qs)
        brute_min = _brute_force_orbit_min(group, p, qs)
        assert np.array_equal(d_min, brute_min), case
        expected = np.full(len(qs), Region.EXTERIOR, dtype=object)
        expected[d_id <= brute_min + ANALYTIC_TOL] = Region.BOUNDARY
        expected[d_id < brute_min - ANALYTIC_TOL] = Region.INTERIOR
        regions = classify_points(group, p, qs)
        assert np.array_equal(regions, expected), case
        for q, region in zip(qs, regions):
            assert in_fundamental_domain(group, p, q) is region, case


def test_region_rule_agrees_at_rounding_tie():
    # in float64 d_min - d_id > tol here, yet d_id <= d_min + tol: a test of
    # |d_id - d_min| <= tol called the point exterior although the identity
    # image is strictly nearest, and the scalar path called it boundary
    torus, p = TorusGroup(), (0.0, 0.0)
    q, tol = (0.4244342025161614, 0.0), 0.15113159496767722
    assert classify_points(torus, p, [q], tol)[0] is Region.BOUNDARY
    assert in_fundamental_domain(torus, p, q, tol) is Region.BOUNDARY


def _scalar_distance(kind, p, q):
    # the single-point formulas that the row-wise distances reproduce
    if kind == "flat":
        return float(np.linalg.norm(p - q))
    if kind == "sphere":
        return math.acos(min(1.0, max(-1.0, float(np.dot(p, q)))))
    return math.acos(min(1.0, abs(complex(np.vdot(p, q)))))


def _brute_orbit(group, p, q):
    # every enumerated element in ascending order; the first minimizer wins
    d_min, first = math.inf, None
    for eid in group.element_ids(p, q):
        d = _scalar_distance(group.ambient, p, group.apply(eid, q))
        if d < d_min:
            d_min, first = d, eid
    return _scalar_distance(group.ambient, p, q), d_min, first


def _kernel_element(group, p, q, k):
    offset = group.ring[k]
    if group.ambient != "flat":
        return offset
    cell = group.nearest_cell(p, q)
    if isinstance(group, TorusGroup):
        return tuple(int(c) + o for c, o in zip(cell, offset))
    return int(cell) + offset


def _orbit_sample(group, p, n, rng):
    # random rows about p, then p itself and images of p, where elements tie
    if group.ambient == "flat":
        qs = p + rng.uniform(-1.5, 1.5, size=(n, 2))
    else:
        qs = _random_points(group, rng, n)
    if n > 1:
        qs[0] = p
        qs[1] = group.apply(group.element_ids(p, p)[0], p)
    return qs


@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize(
    "group, p",
    [
        (TorusGroup(), (0.0, 0.0)),
        (TorusGroup(), (1000.3, -7.0)),
        (KleinGroup(), (0.0, 0.0)),
        (KleinGroup(), (-40.3, 17.9)),
        (AntipodalGroup(), None),
        (LensGroup(), None),
        (CPInvolutionGroup(), None),
    ],
    ids=["torus", "torus-far", "klein", "klein-far", "rp", "lens", "cpq"],
)
def test_orbit_distances_match_brute_force(group, p, n):
    rng = np.random.default_rng(31)
    if p is None:
        p = _random_points(group, rng, 1)[0]
    p = np.asarray(p)
    qs = _orbit_sample(group, p, n, rng)
    d_id, d_min, first = orbit_distances(group, p, qs)
    for i, q in enumerate(qs):
        brute_id, brute_min, brute_first = _brute_orbit(group, p, q)
        assert d_id[i] == brute_id and d_min[i] == brute_min, i
        assert _kernel_element(group, p, q, first[i]) == brute_first, i
    # one basepoint per row gives the same answers
    rows = orbit_distances(group, np.broadcast_to(p, qs.shape), qs)
    assert all(np.array_equal(a, b) for a, b in zip(rows, (d_id, d_min, first)))


@pytest.mark.parametrize(
    "group, p, minimizer",
    [
        (TorusGroup(), (0.3, -0.2), (-1, 0)),
        (KleinGroup(), (0.0, 0.0), -1),
        (LensGroup(), None, "T"),
    ],
)
def test_injectivity_reports_first_tied_minimizer(group, p, minimizer):
    # four lattice neighbours, T^-1 and T, and T and T^3 tie at these points
    p = group.basepoint() if p is None else p
    assert injectivity_radius(group, p).minimizer == minimizer


@pytest.mark.parametrize(
    "group", [TorusGroup(), LensGroup(), CPInvolutionGroup()], ids=["flat", "sphere", "cproj"]
)
def test_random_points_match_single_draws(group):
    # the package's stream, and a numpy Generator through the same two methods
    for stream in (SeededStream, np.random.default_rng):
        rows = _random_points(group, stream(37), 50)
        rng = stream(37)
        for row in rows:
            if group.ambient == "flat":
                v = rng.uniform(-2.0, 2.0, size=2)
            else:
                dim = group.ambient_dim
                v = rng.standard_normal(dim)
                if group.ambient == "cproj":
                    v = v + 1j * rng.standard_normal(dim)
                v = v / np.linalg.norm(v)
            assert np.array_equal(row, v), stream


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 2**64, 10**30])
def test_seeded_stream_repeats_its_draws(seed):
    a, b = SeededStream(seed), SeededStream(seed)
    assert np.array_equal(a.uniform(-1.0, 1.0, (7, 3)), b.uniform(-1.0, 1.0, (7, 3)))
    assert np.array_equal(a.standard_normal(5), b.standard_normal(5))


def _splitmix64_reference(seed, n):
    """The first n values of SeededStream(seed), on Python ints mod 2^64."""
    mask, gamma = 2**64 - 1, 0x9E3779B97F4A7C15

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    key = 0
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = mix((key + gamma + (seed >> shift)) & mask)
    return [mix((key + i * gamma) & mask) for i in range(1, n + 1)]


@pytest.mark.parametrize("seed", [0, 42, 2**64, 10**30])
def test_seeded_stream_is_splitmix64_bit_for_bit(seed):
    # two draws, so the counter carries from the first to the second
    stream = SeededStream(seed)
    drawn = stream.uniform(0.0, 1.0, 300).tolist() + stream.uniform(0.0, 1.0, 700).tolist()
    assert drawn == [(z >> 11) * 2.0**-53 for z in _splitmix64_reference(seed, 1000)]


def test_seeded_stream_seeds_give_different_draws():
    # seeds at and above 2^64 fold every 64-bit word into the key, so none
    # of them repeats the draws of its remainder mod 2^64
    seeds = [0, 1, 2, 42, 2**64 - 1, 2**64, 2**64 + 1, 2**65, 10**30, 10**30 % 2**64, 2**128]
    draws = {tuple(SeededStream(s).uniform(0.0, 1.0, 4).tolist()) for s in seeds}
    assert len(draws) == len(seeds)


def test_seeded_stream_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        SeededStream(-1)


def test_seeded_stream_uniform_lies_in_the_half_open_interval():
    u = SeededStream(3).uniform(-2.0, 2.0, 100_000)
    assert u.shape == (100_000,)
    assert ((-2.0 <= u) & (u < 2.0)).all()
    assert u.min() < -1.99 and u.max() > 1.99
    # the top 53 bits of each value: multiples of 2^-53 in [0, 1), odd ones too
    ticks = SeededStream(3).uniform(0.0, 1.0, 1000) * 2.0**53
    assert ((0.0 <= ticks) & (ticks < 2.0**53)).all()
    assert np.array_equal(ticks, np.floor(ticks)) and (ticks % 2 == 1).any()


def test_seeded_stream_normals_have_zero_mean_and_unit_variance():
    n = 100_000
    z = SeededStream(11).standard_normal(n)
    # standard errors: 1/sqrt(n) for the mean, sqrt(2/n) for the variance
    assert abs(z.mean()) <= 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)


def test_seeded_stream_one_value_draws_stay_on_arrays():
    # numpy scalar uint64 products warn on wrap-around, and pytest makes
    # that warning an error; every draw of one value wraps on arrays
    for seed in (0, 2**64 - 1, 10**30):
        stream = SeededStream(seed)
        for _ in range(3):
            assert stream.uniform(0.0, 1.0, 1).shape == (1,)
            assert stream.standard_normal(1).shape == (1,)


NAN4 = [math.nan, 0.0, 0.0, 0.0]
E1_C4 = CPInvolutionGroup().basepoint()


@pytest.mark.parametrize(
    "call",
    [
        lambda: quotient_distance(CPInvolutionGroup(), E1_C4, NAN4),
        lambda: injectivity_radius(LensGroup(), NAN4),
        lambda: injectivity_radius(KleinGroup(), (0.0, math.inf)),
        lambda: quotient_distance(TorusGroup(), (math.nan, 0.0), (0.0, 0.0)),
        lambda: in_fundamental_domain(TorusGroup(), (0.0, 0.0), (math.inf, 0.0)),
        lambda: lens_domain(NAN4),
        lambda: cp_domain(NAN4),
        lambda: quotient_distance(AntipodalGroup(m=2), E1_S2, [0.0, -math.inf, 0.0]),
        lambda: classify_points(TorusGroup(), (0.0, 0.0), [(0.1, 0.2), (math.nan, 0.0)]),
        lambda: classify_points(KleinGroup(), (0.0, -math.inf), [(0.1, 0.2)]),
        lambda: classify_points(LensGroup(), LensGroup().basepoint(), [NAN4]),
    ],
    ids=[
        "cpq-distance", "lens-injectivity", "klein-injectivity-inf", "torus-distance",
        "torus-domain-inf", "lens-domain", "cp-domain", "sphere-distance",
        "classify-row", "classify-base", "classify-lens",
    ],
)
def test_non_finite_points_are_invalid(call):
    with pytest.raises(InvalidPoint, match="finite"):
        call()


E1_R3, E1_R4, E1_R5 = np.eye(3)[0], np.eye(4)[0], np.eye(5)[0]


@pytest.mark.parametrize(
    "call",
    [
        lambda: injectivity_radius(LensGroup(), E1_R3),
        lambda: injectivity_radius(CPInvolutionGroup(), E1_R3),
        lambda: injectivity_radius(AntipodalGroup(m=2), E1_R5),
        lambda: injectivity_radius_closed(AntipodalGroup(m=2), E1_R5),
        lambda: injectivity_radius_closed(LensGroup(k=2), E1_R4),
        lambda: quotient_distance(LensGroup(), E1_R3, E1_R3),
        lambda: in_fundamental_domain(CPInvolutionGroup(), E1_R3, E1_R3),
        lambda: classify_points(AntipodalGroup(m=3), E1_R5, [E1_R5]),
        lambda: orbit_distances(LensGroup(k=2), E1_R4, np.eye(4)[:2]),
    ],
    ids=[
        "lens-injectivity", "cpq-injectivity", "rp-injectivity", "rp-closed",
        "lens-closed", "lens-distance", "cpq-domain", "rp-classify", "lens-rows",
    ],
)
def test_points_of_the_wrong_length_are_invalid(call):
    with pytest.raises(InvalidPoint, match="coordinates"):
        call()


def test_lens_domain_predicate():
    assert lens_domain(np.array([1.0, 0.0, 0.0, 0.0]))
    assert not lens_domain(unit([1.0, 1.0, 0.0, 0.0]))
    assert lens_domain(unit([0.9, 0.1, math.sqrt(1 - 0.81 - 0.01), 0.0]))
    with pytest.raises(InvalidPoint):
        lens_domain(np.array([2.0, 0.0, 0.0, 0.0]))


def test_lens_domain_matches_quotient_interior():
    lens = LensGroup()
    qs = _random_points(lens, np.random.default_rng(19), 2000)
    regions = classify_points(lens, lens.basepoint(), qs)
    checked = regions != Region.BOUNDARY
    assert np.sum(checked) > 1900
    for q, region in zip(qs[checked], regions[checked]):
        assert lens_domain(q) == (region is Region.INTERIOR)


def test_cp_domain_matches_quotient_interior():
    cpq = CPInvolutionGroup()
    rng = np.random.default_rng(19)
    zs = rng.standard_normal((2000, 4)) + 1j * rng.standard_normal((2000, 4))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    regions = classify_points(cpq, cpq.basepoint(), zs)
    checked = regions != Region.BOUNDARY
    assert np.sum(checked) > 1900
    for z, region in zip(zs[checked], regions[checked]):
        assert cp_domain(z) == (region is Region.INTERIOR)


def test_cp_quotient_distance_formula():
    # the basepoint orbit is at distance zero from itself
    z = np.zeros(4, dtype=complex)
    z[0] = 1.0
    assert cp_quotient_distance(z) == 0.0
    # the domain boundary |z1| = |z2| sits at the injectivity radius pi/4
    assert cp_quotient_distance(unit([1.0, 1.0, 0.0, 0.0])) == pytest.approx(
        math.pi / 4, abs=1e-12
    )
    assert cp_quotient_distance(unit([0.0, 1.0, 0.0, 0.0])) == 0.0


def test_cp_quotient_distance_against_orbit_oracle():
    cpq = CPInvolutionGroup()
    base = cpq.basepoint()
    rng = np.random.default_rng(23)
    for _ in range(100):
        z = unit(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        brute = min(
            cproj_distances(base, z),
            cproj_distances(base, cpq.apply("T", z)),
        )
        assert cp_quotient_distance(z) == pytest.approx(brute, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(phase=st.floats(0.0, 2.0 * math.pi))
def test_cp_distance_gauge_invariance(phase):
    z = unit(np.array([0.3 + 0.1j, -0.5 + 0.2j, 0.6, 0.4j]))
    rotated = z * complex(math.cos(phase), math.sin(phase))
    assert cp_quotient_distance(rotated) == pytest.approx(
        cp_quotient_distance(z), abs=1e-12
    )
    assert cp_domain(rotated) == cp_domain(z)


# --- self checks


@pytest.mark.parametrize(
    "group",
    [
        TorusGroup(), KleinGroup(), AntipodalGroup(), LensGroup(), CPInvolutionGroup(),
        # the least parameters: RP^1, the circle turned by a quarter, and
        # CP^1 by its antipodal map
        AntipodalGroup(m=1), LensGroup(k=0), CPInvolutionGroup(k=0),
    ],
)
def test_selfcheck_passes(group):
    report = group_action_selfcheck(group, samples=500)
    assert "isometry_random_pairs" in report.checks


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: AntipodalGroup(m=2.5), "rp: m must be an integer, got 2.5"),
        (lambda: AntipodalGroup(m=0), "rp: m must be >= 1, got 0"),
        (lambda: LensGroup(k=-1), "lens: k must be >= 0, got -1"),
        (lambda: LensGroup(k=None), "lens: k must be an integer, got None"),
        (lambda: CPInvolutionGroup(k="1"), "cpq: k must be an integer, got '1'"),
        (lambda: CPInvolutionGroup(k=-3), "cpq: k must be >= 0, got -3"),
    ],
    ids=["rp-float", "rp-zero", "lens-negative", "lens-none", "cpq-string", "cpq-negative"],
)
def test_curved_groups_refuse_a_bad_parameter(make, message):
    with pytest.raises(UnsupportedModel, match=f"^{re.escape(message)}$"):
        make()


def test_curved_group_parameter_is_stored_as_int():
    # operator.index turns a numpy integer into an int
    assert type(AntipodalGroup(m=np.int64(40)).m) is int
    assert type(LensGroup(k=np.int8(2)).k) is int
    assert type(CPInvolutionGroup(k=np.uint16(2)).k) is int


def test_selfcheck_fixed_point_floor():
    report = group_action_selfcheck(CPInvolutionGroup(), samples=2000)
    assert report.min_sampled_displacement is not None
    # the involution moves every point by twice the closed radius, pi/2
    assert abs(report.min_sampled_displacement - 0.5 * math.pi) <= 1e-12
    # an antipodal map that fixes every point displaces none of them
    with pytest.raises(
        SelfCheckFailed,
        match=r"^rp: sampled displacement 0\.000e\+00 is not the closed 3\.142e\+00;",
    ):
        group_action_selfcheck(FixedPointAntipodal(), samples=100)


@pytest.mark.parametrize("group", [AntipodalGroup(), LensGroup(), CPInvolutionGroup()])
def test_selfcheck_displacement_is_the_least_sampled_distance(group):
    # one arccosine of the largest cosine: the minimum of the per-sample
    # arccosines, bit for bit, since acos decreases
    report = group_action_selfcheck(group, samples=300, seed=5)
    rng = SeededStream(5)
    if isinstance(group, (LensGroup, CPInvolutionGroup)):
        _random_points(group, rng, 20)  # the draws of the lens or involution check
    q = _random_points(group, rng, 300)
    distance = cproj_distances if group.ambient == "cproj" else sphere_distances
    least = min(float(distance(q, group.apply(eid, q)).min()) for eid in group.ring)
    assert report.min_sampled_displacement == least
    assert group_action_selfcheck(group, samples=0).min_sampled_displacement == math.inf


class _CorruptedLens(LensGroup):
    """Negative control: scales the last coordinate, breaking isometry."""

    def apply(self, eid, point):
        out = np.array(super().apply(eid, point))
        out[..., -1] *= 1.5
        return out


class _FixedPointLens(LensGroup):
    """Negative control: the identity in disguise has fixed points."""

    def apply(self, eid, point):
        return np.asarray(point, float).copy()


class _EvenFlipKlein(KleinGroup):
    """Negative control: odd powers keep y and even ones flip it, so that
    T^a T^b and T^(a+b) disagree when a and b are both odd or both even."""

    def apply(self, eid, point):
        pt = np.asarray(point, float)
        n = np.asarray(eid)
        flipped = np.where(n % 2 == 0, -pt[..., 1], pt[..., 1])
        return np.stack((pt[..., 0] + n, flipped), axis=-1)


class _Order2Lens(LensGroup):
    """Negative control: powers of T taken mod 2, as if T had order 2."""

    def apply(self, eid, point):
        v = np.asarray(point, float)
        return self._t(v) if eid in ("T", "T^3") else v.copy()


class _HalfConjCP(CPInvolutionGroup):
    """Negative control: T without conj on its odd slots, so T^2 = -conj is
    no projective identity.  (Dropping both conj gives a unitary T with
    T^2 = -id, which is a projective involution.)"""

    def apply(self, eid, point):
        z = np.asarray(point, complex)
        out = np.empty_like(z)
        out[..., 0::2] = -np.conj(z[..., 1::2])
        out[..., 1::2] = z[..., 0::2]
        return out


class _DilatingTorus(TorusGroup):
    """Negative control: (i, j) scales x by 2^i and shifts y by j.  That is
    an action of Z^2, so the group law holds, but i != 0 is no isometry."""

    def apply(self, eid, point):
        pt, e = np.asarray(point, float), np.asarray(eid, float)
        return np.stack((pt[..., 0] * 2.0 ** e[..., 0], pt[..., 1] + e[..., 1]), axis=-1)


class _LinearCP(CPInvolutionGroup):
    """Negative control: T(z) = (-z2, z1, ...) without conj.  It is unitary
    with T^2 = -id, so a projective involution and an isometry, but it fixes
    the projective points of its eigenvectors (z2 = +-i z1), and it moves
    the points near them less than the conjugate-swap's pi/2."""

    def apply(self, eid, point):
        return _pairs(np.asarray(point, complex), lambda a, b: (-b, a))


def test_selfcheck_catches_corruption():
    with pytest.raises(SelfCheckFailed, match=r"^lens: T\^4 != id$"):
        group_action_selfcheck(_CorruptedLens(), samples=100)
    with pytest.raises(SelfCheckFailed, match=r"^lens: T\^2 != -id$"):
        group_action_selfcheck(_FixedPointLens(), samples=100)


@pytest.mark.parametrize(
    "group, message",
    [
        (_EvenFlipKlein(), r"^klein: group law violated at -2 o -2$"),
        (_Order2Lens(), r"^lens: T\^4 != id$"),
        (_HalfConjCP(), r"^cp involution: <T>\^2 != id projectively$"),
        (_DilatingTorus(), r"^torus: element \(-1, -1\) is not an isometry$"),
        (
            _LinearCP(),
            r"^cpq: sampled displacement 2\.877e-01 is not the closed 1\.571e\+00; ",
        ),
    ],
    ids=["even-flip-klein", "order-2-lens", "half-conj-cp", "dilating-torus", "linear-cp"],
)
def test_selfcheck_names_the_violated_identity(group, message):
    with pytest.raises(SelfCheckFailed, match=message):
        group_action_selfcheck(group, samples=100)


def _pairs(v, f):
    """v with each coordinate pair (a, b) replaced by f(a, b)."""
    out = np.empty_like(v)
    out[..., 0::2], out[..., 1::2] = f(v[..., 0::2], v[..., 1::2])
    return out


def _cp_map(f):
    return lambda self, eid, point: _pairs(np.asarray(point, complex), f)


#: One slip in one deck-group map each: (class, attribute, replacement).
#: The torus's (i, j) -> (j, i) is left out: it is the same lattice, and
#: verify all meets it only at points whose nearest cell is the origin,
#: where the ring about that cell is symmetric under the swap.
DECK_MUTANTS = {
    "klein-glide-keeps-y": (
        KleinGroup,
        "apply",
        lambda self, n, p: np.stack(np.broadcast_arrays(p[..., 0] + n, p[..., 1]), axis=-1),
    ),
    "klein-parity-swapped": (
        KleinGroup,
        "apply",
        lambda self, n, p: np.stack(
            (p[..., 0] + n, np.where(self.even(n), -p[..., 1], p[..., 1])), axis=-1
        ),
    ),
    "lens-sign-dropped": (LensGroup, "_t", lambda self, v: _pairs(v, lambda a, b: (b, a))),
    "lens-pairs-unswapped": (LensGroup, "_t", lambda self, v: _pairs(v, lambda a, b: (a, -b))),
    "cpq-sign-dropped": (
        CPInvolutionGroup, "apply", _cp_map(lambda a, b: (np.conj(b), np.conj(a)))
    ),
    "cpq-conjugate-unswapped": (
        CPInvolutionGroup, "apply", _cp_map(lambda a, b: (-np.conj(a), np.conj(b)))
    ),
    "cpq-swap-unconjugated": (CPInvolutionGroup, "apply", _cp_map(lambda a, b: (-b, a))),
    "torus-half-cell": (
        TorusGroup, "apply", lambda self, eid, p: np.asarray(p, float) + 0.5 * np.asarray(eid)
    ),
    "rp-identity": (AntipodalGroup, "apply", lambda self, eid, p: np.asarray(p, float)),
}


@pytest.mark.parametrize("mutant", DECK_MUTANTS)
def test_deck_group_mutation_gate(capsys, monkeypatch, mutant):
    # mutation gate on the deck-group maps: verify all must report a FAIL
    # line, so exit 1 and not a usage error from a mutant that crashes.
    # cpq's T(z) = (-z2, z1, ...) is a projective involution and an
    # isometry; only its displacements, below the closed pi/2, give it away
    cls, name, replacement = DECK_MUTANTS[mutant]
    monkeypatch.setattr(cls, name, replacement)
    code = cli.main(["verify", "all"])
    out = capsys.readouterr().out
    assert code == cli.VERIFY_FAIL
    assert any(line.startswith("FAIL ") for line in out.splitlines())


# --- cut locus sampling and measures


def test_torus_cut_locus_is_unit_square_boundary():
    torus = TorusGroup()
    grid = classify_grid(torus, (0.0, 0.0), 400)
    pts = grid.points[grid.cells_in(Region.BOUNDARY)]
    assert len(pts) > 0
    tol = 2.0 * (3.0 / 400.0)
    edge = np.max(np.abs(pts), axis=1)
    assert np.all(np.abs(edge - 0.5) <= 3.0 * tol)


def test_klein_cut_locus_origin():
    klein = KleinGroup()
    grid = classify_grid(klein, (0.0, 0.0), 300)
    pts = grid.points[grid.cells_in(Region.BOUNDARY)]
    # the locus converges to the lines x = +-1/2
    assert np.all(np.abs(np.abs(pts[:, 0]) - 0.5) <= 0.05)


def test_klein_cut_locus_shifted_basepoint():
    klein = KleinGroup()
    grid = classify_grid(klein, (0.0, 1.0), 300)
    pts = grid.points[grid.cells_in(Region.BOUNDARY)]
    on_glide_line = [p for p in pts if abs(1.0 + 2.0 * p[0] + 4.0 * p[1]) < 0.1]
    near_vertical = [p for p in pts if abs(p[0] - 1.0) < 0.05]
    assert on_glide_line, "expected samples near 1 + 2x + 4ay = 0"
    assert near_vertical, "expected samples near x = 1"


def test_cut_locus_requires_flat_group():
    with pytest.raises(UnsupportedModel):
        classify_grid(LensGroup(), np.array([1.0, 0, 0, 0]), 50)


def test_closed_injectivity_radius_only_for_the_five_groups():
    class OtherGroup(quotients.DeckGroup):
        __slots__ = ()
        name = "g"

    with pytest.raises(UnsupportedModel, match="^no closed-form injectivity radius for g$"):
        injectivity_radius_closed(OtherGroup(), (0.0, 0.0))


def test_torus_fundamental_domain_area():
    torus = TorusGroup()
    area = fundamental_domain_area(torus, (0.0, 0.0), 400)
    assert abs(area - 1.0) <= 2.0 / 400.0


@pytest.mark.parametrize("p", [(1e14, 0.0), (1e16, 0.0), (0.0, -1e300)])
def test_classify_grid_refuses_a_basepoint_past_float_resolution(p):
    # float steps near 1e14 exceed the cell size 2/400, so the area would
    # come out 0.98 (and 0.0 at 1e16) where the true area is 1
    with pytest.raises(DomainViolation, match="too far out for raster spacing 0.005"):
        fundamental_domain_area(TorusGroup(), p, 400)
    with pytest.raises(DomainViolation, match="too far out"):
        classify_grid(KleinGroup(), p, 400)


@pytest.mark.parametrize(
    "sample, resolution",
    [(classify_grid, 0), (classify_grid, -3), (fundamental_domain_area, 0)],
    ids=["classify_grid-0", "classify_grid-minus3", "fundamental_domain_area-0"],
)
def test_classify_grid_refuses_a_resolution_below_one(sample, resolution):
    # refused before the spacing 2 * halfwidth / resolution is computed
    with pytest.raises(UsageError, match=f"^resolution must be >= 1, got {resolution}$"):
        sample(TorusGroup(), (0.0, 0.0), resolution)


def _grid_reference(group, p, points):
    # the ring's images by group.apply, squared distances summed elementwise
    p = np.asarray(p, float)
    diff = p - points
    d_id = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
    eids = group.nearest_cell(p, points) + np.array(group.ring)[:, None]
    diff = p - group.apply(eids, points)
    d2 = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]
    identity = ~eids.reshape(d2.shape + (-1,)).any(axis=-1)
    return d_id, np.sqrt(np.where(identity, np.inf, d2).min(axis=0))


def _raster_axes(grid, res):
    return grid.points[:res, 0], grid.points[::res, 1]


def _ulps(a, b):
    return np.max(np.abs(a - b) / np.spacing(np.maximum(a, b)), initial=0.0)


@settings(max_examples=60, deadline=None)
@given(
    group=st.sampled_from([TorusGroup(), KleinGroup()]),
    res=st.integers(1, 60),
    x=st.floats(-1e6, 1e6),
    y=st.floats(-1e6, 1e6),
    analytic=st.booleans(),
)
def test_grid_kernel_matches_elementwise_orbit_search(group, res, x, y, analytic):
    p = np.array([x, y])
    tol = ANALYTIC_TOL if analytic else None
    grid = classify_grid(group, p, res, tol=tol)
    tol = ANALYTIC_TOL if analytic else 2.0 * grid.spacing
    d_id, d_min = (d.ravel() for d in _grid_distances(group, p, *_raster_axes(grid, res)))
    ref_id, ref_min = _grid_reference(group, p, grid.points)
    assert np.array_equal(d_id, ref_id) and np.array_equal(d_min, ref_min)
    # orbit_distances sums its row dots by matmul, which may round otherwise
    orb_id, orb_min, _ = orbit_distances(group, p, grid.points)
    assert _ulps(d_id, orb_id) <= 4 and _ulps(d_min, orb_min) <= 4
    on_threshold = np.minimum(
        np.abs(orb_id - (orb_min + tol)), np.abs(orb_id - (orb_min - tol))
    ) <= 1e-12
    regions = classify_points(group, p, grid.points, tol)
    assert np.array_equal(REGION_TABLE[grid.codes][~on_threshold], regions[~on_threshold])


@pytest.mark.parametrize("group", [TorusGroup(), KleinGroup()], ids=["torus", "klein"])
def test_grid_kernel_where_the_ring_holds_the_identity_off_centre(group):
    # a raster of half-width 3 has cells whose nearest cell is 0, +-1 (the
    # identity is a ring offset other than the centre) and +-2 or more (the
    # ring misses the identity)
    p = np.array([0.3, -0.2])
    grid = classify_grid(group, p, 61, halfwidth=3.0)
    xs, ys = _raster_axes(grid, 61)
    cells = np.unique(np.rint(p[0] - xs))
    assert {-2.0, -1.0, 0.0, 1.0, 2.0} <= set(cells.tolist())
    d_id, d_min = (d.ravel() for d in _grid_distances(group, p, xs, ys))
    ref_id, ref_min = _grid_reference(group, p, grid.points)
    assert np.array_equal(d_id, ref_id) and np.array_equal(d_min, ref_min)
    assert _ulps(d_min, _brute_force_orbit_min(group, p, grid.points)) <= 4


def test_classify_grid_runs_without_orbit_distances(monkeypatch):
    groups = (TorusGroup(), KleinGroup())
    grid = classify_grid(TorusGroup(), (0.2, 0.1), 50)
    expected = [
        classify_points(group, (0.2, 0.1), grid.points, 2.0 * grid.spacing) for group in groups
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("classify_grid called orbit_distances")

    monkeypatch.setattr(quotients, "orbit_distances", refuse)
    for group, regions in zip(groups, expected):
        assert np.array_equal(REGION_TABLE[classify_grid(group, (0.2, 0.1), 50).codes], regions)
    with pytest.raises(AssertionError, match="called orbit_distances"):
        classify_points(TorusGroup(), (0.2, 0.1), [(0.0, 0.0)])


@pytest.mark.parametrize("group", [TorusGroup(), KleinGroup()], ids=["torus", "klein"])
def test_classify_grid_blocks_of_rows_give_the_whole_raster(group):
    rows = quotients._BLOCK_CELLS // 700
    assert rows < 700 and 700 % rows  # several blocks, the last one partial
    p = np.array([0.2, -0.1])
    grid = classify_grid(group, p, 700)
    d_id, d_min = _grid_distances(group, p, grid.xs, grid.ys)
    whole = quotients._region_codes(d_id, d_min, 2.0 * grid.spacing).ravel()
    assert np.array_equal(grid.codes, whole)


def test_lens_monte_carlo_volume():
    vol, stderr = lens_domain_volume_mc()
    exact = math.pi**2 / 2.0
    assert abs(vol - exact) <= 3.0 * stderr


# --- flat radial extension


def test_flat_radial_extension_values():
    assert flat_radial_extension(0.3, (0.69, 0.0)) == pytest.approx(
        math.log(0.4761), rel=1e-14
    )
    assert flat_radial_extension(0.5, (0.1, 0.0)) == pytest.approx(
        math.log(0.01), rel=1e-14
    )


def test_flat_radial_extension_domain():
    with pytest.raises(DomainViolation):
        flat_radial_extension(0.3, (0.8, 0.0))
    with pytest.raises(DomainViolation):
        flat_radial_extension(0.3, (0.0, 0.0))
    with pytest.raises(DomainViolation):
        flat_radial_extension(1.5, (0.1, 0.1))


def test_flat_extension_harmonic():
    assert flat_harmonic_residual(0.3, (0.3, 0.2)) <= 1e-6


def test_flat_extension_radial_iff_centered():
    assert flat_extension_is_radial(0.5)
    assert not flat_extension_is_radial(0.3)
    assert flat_extension_reflection_symmetric(0.5)
    assert not flat_extension_reflection_symmetric(0.3)
