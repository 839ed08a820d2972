import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicspaces.errors import (
    DomainViolation,
    InvalidPoint,
    SelfCheckFailed,
    UnsupportedModel,
)
from harmonicspaces.quotients import (
    ANALYTIC_TOL,
    AntipodalGroup,
    CPInvolutionGroup,
    KleinGroup,
    LensGroup,
    Region,
    TorusGroup,
    _random_points,
    _row_norm,
    ambient_distance,
    classify_grid,
    classify_points,
    cp_domain,
    cp_quotient_distance,
    cut_locus_sample,
    flat_extension_is_radial,
    flat_extension_reflection_symmetric,
    flat_harmonic_residual,
    flat_radial_extension,
    fundamental_domain_area,
    group_action_selfcheck,
    in_fundamental_domain,
    injectivity_radius,
    injectivity_radius_closed,
    klein_fundamental_region,
    klein_injectivity_closed,
    lens_domain,
    lens_domain_volume_mc,
    orbit_distances,
    quotient_distance,
)

E1_S2 = np.array([1.0, 0.0, 0.0])


def unit(v):
    v = np.asarray(v, dtype=complex if np.iscomplexobj(v) else float)
    return v / np.linalg.norm(v)


# --- ambient distances


def test_flat_distance():
    assert ambient_distance("flat", (0.0, 0.0), (3.0, 4.0)) == 5.0


def test_sphere_distance():
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    assert ambient_distance("sphere", e1, e2) == pytest.approx(math.pi / 2, abs=1e-15)


def test_cproj_distance():
    p = unit(np.array([1, 0, 0, 0], dtype=complex))
    q = unit(np.array([1, 1, 0, 0], dtype=complex))
    assert ambient_distance("cproj", p, q) == pytest.approx(math.pi / 4, abs=1e-12)


def test_invalid_points_rejected():
    with pytest.raises(InvalidPoint):
        ambient_distance("sphere", np.array([1.0, 1.0, 0.0]), E1_S2)
    with pytest.raises(InvalidPoint):
        ambient_distance("flat", (1.0, 2.0, 3.0), (0.0, 0.0))
    with pytest.raises(InvalidPoint):
        ambient_distance("nope", (0, 0), (1, 1))


# --- quotient distances


def test_torus_wraparound():
    torus = TorusGroup()
    assert quotient_distance(torus, (0.0, 0.0), (0.9, 0.0)) == pytest.approx(0.1)


def test_klein_two_candidates():
    klein = KleinGroup()
    got = quotient_distance(klein, (0.0, 0.0), (0.6, 0.2))
    assert got == pytest.approx(math.sqrt(0.2), abs=1e-15)


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
        closed = injectivity_radius_closed(group, p)
        assert brute.method == "brute_force"
        assert closed.method == "closed_form"
        assert abs(brute.radius - closed.radius) <= 1e-12


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
        identity_realizes = ambient_distance("flat", p, q) <= quotient_distance(
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
            assert quotient_distance(torus, p, q) == ambient_distance("flat", p, q)


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
    rows = _random_points(group, np.random.default_rng(37), 50)
    rng = np.random.default_rng(37)
    for row in rows:
        if group.ambient == "flat":
            v = rng.uniform(-2.0, 2.0, size=2)
        else:
            dim = group.ambient_dim
            v = rng.standard_normal(dim)
            if group.ambient == "cproj":
                v = v + 1j * rng.standard_normal(dim)
            v = v / np.linalg.norm(v)
        assert np.array_equal(row, v)


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
        lambda: ambient_distance("sphere", E1_S2, [0.0, -math.inf, 0.0]),
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
            ambient_distance("cproj", base, z),
            ambient_distance("cproj", base, cpq.apply("T", z)),
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
    [TorusGroup(), KleinGroup(), AntipodalGroup(), LensGroup(), CPInvolutionGroup()],
)
def test_selfcheck_passes(group):
    report = group_action_selfcheck(group, samples=500, pairs=50)
    assert "isometry_random_pairs" in report.checks


def test_selfcheck_fixed_point_floor():
    report = group_action_selfcheck(CPInvolutionGroup(), samples=2000)
    assert report.min_sampled_displacement is not None
    assert report.min_sampled_displacement > 0.1
    # -id displaces every point by pi, which a floor of 4 rejects
    with pytest.raises(SelfCheckFailed, match=r"^rp: sampled displacement 3\.142e\+00 at or below"):
        group_action_selfcheck(AntipodalGroup(), samples=100, pairs=20, displacement_floor=4.0)


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


def test_selfcheck_catches_corruption():
    with pytest.raises(SelfCheckFailed, match=r"^lens: T\^4 != id$"):
        group_action_selfcheck(_CorruptedLens(), samples=100, pairs=20)
    with pytest.raises(SelfCheckFailed, match=r"^lens: T\^2 != -id$"):
        group_action_selfcheck(_FixedPointLens(), samples=100, pairs=20)


@pytest.mark.parametrize(
    "group, message",
    [
        (_EvenFlipKlein(), r"^klein: group law violated at -2 o -2$"),
        (_Order2Lens(), r"^lens: T\^4 != id$"),
        (_HalfConjCP(), r"^cp involution: <T>\^2 != id projectively$"),
        (_DilatingTorus(), r"^torus: element \(1, 0\) is not an isometry$"),
    ],
    ids=["even-flip-klein", "order-2-lens", "half-conj-cp", "dilating-torus"],
)
def test_selfcheck_names_the_violated_identity(group, message):
    with pytest.raises(SelfCheckFailed, match=message):
        group_action_selfcheck(group, samples=100, pairs=20)


# --- cut locus sampling and measures


def test_torus_cut_locus_is_unit_square_boundary():
    torus = TorusGroup()
    pts = cut_locus_sample(torus, (0.0, 0.0), 400)
    assert len(pts) > 0
    tol = 2.0 * (3.0 / 400.0)
    edge = np.max(np.abs(pts), axis=1)
    assert np.all(np.abs(edge - 0.5) <= 3.0 * tol)


def test_klein_cut_locus_origin():
    klein = KleinGroup()
    pts = cut_locus_sample(klein, (0.0, 0.0), 300)
    # the locus converges to the lines x = +-1/2
    assert np.all(np.abs(np.abs(pts[:, 0]) - 0.5) <= 0.05)


def test_klein_cut_locus_shifted_basepoint():
    klein = KleinGroup()
    pts = cut_locus_sample(klein, (0.0, 1.0), 300)
    on_glide_line = [p for p in pts if abs(1.0 + 2.0 * p[0] + 4.0 * p[1]) < 0.1]
    near_vertical = [p for p in pts if abs(p[0] - 1.0) < 0.05]
    assert on_glide_line, "expected samples near 1 + 2x + 4ay = 0"
    assert near_vertical, "expected samples near x = 1"


def test_cut_locus_requires_flat_group():
    with pytest.raises(UnsupportedModel):
        cut_locus_sample(LensGroup(), np.array([1.0, 0, 0, 0]), 50)


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
        cut_locus_sample(KleinGroup(), p, 400)


def test_lens_monte_carlo_volume():
    vol, stderr = lens_domain_volume_mc(samples=100_000, seed=42)
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
    assert flat_harmonic_residual(0.3, (0.3, 0.2), h=1e-3) <= 1e-6


def test_flat_extension_radial_iff_centered():
    assert flat_extension_is_radial(0.5)
    assert not flat_extension_is_radial(0.3)
    assert flat_extension_reflection_symmetric(0.5)
    assert not flat_extension_reflection_symmetric(0.3)
