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
    _flat_orbit_arrays,
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
    klein_fundamental_region,
    klein_injectivity_closed,
    lens_domain,
    lens_domain_volume_mc,
    quotient_distance,
    sample_sphere,
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

    klein = KleinGroup()
    for _ in range(n):
        p, q, r = rng.uniform(-0.6, 0.6, size=(3, 2))
        dpq = quotient_distance(klein, p, q)
        assert abs(dpq - quotient_distance(klein, q, p)) <= 1e-12
        assert dpq <= quotient_distance(klein, p, r) + quotient_distance(klein, r, q) + 1e-12

    for group, dim in ((AntipodalGroup(m=2), 3), (LensGroup(), 4)):
        pts = sample_sphere(rng, 3 * n, dim)
        for i in range(n):
            p, q, r = pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]
            dpq = quotient_distance(group, p, q)
            assert abs(dpq - quotient_distance(group, q, p)) <= 1e-12
            assert (
                dpq
                <= quotient_distance(group, p, r) + quotient_distance(group, r, q) + 1e-12
            )

    cpq = CPInvolutionGroup()
    zs = rng.standard_normal((3 * n, 4)) + 1j * rng.standard_normal((3 * n, 4))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    for i in range(n):
        p, q, r = zs[3 * i], zs[3 * i + 1], zs[3 * i + 2]
        dpq = quotient_distance(cpq, p, q)
        assert abs(dpq - quotient_distance(cpq, q, p)) <= 1e-12
        assert (
            dpq
            <= quotient_distance(cpq, p, r) + quotient_distance(cpq, r, q) + 1e-12
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
    for p in sample_sphere(rng, 5, 4):
        assert injectivity_radius(lens, p).radius == pytest.approx(
            math.pi / 4, abs=1e-12
        )


def test_cp_involution_injectivity():
    cpq = CPInvolutionGroup()
    rep = injectivity_radius(cpq, cpq.basepoint())
    assert rep.radius == pytest.approx(math.pi / 4, abs=1e-12)


def test_brute_force_report_agrees_with_closed_form_report():
    from harmonicspaces.quotients import injectivity_radius_closed

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
                np.minimum(d_min, np.linalg.norm(images - p, axis=1), out=d_min)
    else:
        for n in powers:
            if n != 0:
                images = np.column_stack(
                    (qs[:, 0] + n, qs[:, 1] if n % 2 == 0 else -qs[:, 1])
                )
                np.minimum(d_min, np.linalg.norm(images - p, axis=1), out=d_min)
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
        d_id, d_min = _flat_orbit_arrays(group, p, qs)
        brute_min = _brute_force_orbit_min(group, p, qs)
        assert np.array_equal(d_min, brute_min), case
        expected = np.full(len(qs), Region.EXTERIOR, dtype=object)
        expected[d_id < brute_min - ANALYTIC_TOL] = Region.INTERIOR
        expected[np.abs(d_id - brute_min) <= ANALYTIC_TOL] = Region.BOUNDARY
        regions = classify_points(group, p, qs)
        assert np.array_equal(regions, expected), case
        for q, region in zip(qs, regions):
            assert in_fundamental_domain(group, p, q) is region, case


def test_lens_domain_predicate():
    assert lens_domain(np.array([1.0, 0.0, 0.0, 0.0]))
    assert not lens_domain(unit([1.0, 1.0, 0.0, 0.0]))
    assert lens_domain(unit([0.9, 0.1, math.sqrt(1 - 0.81 - 0.01), 0.0]))
    with pytest.raises(InvalidPoint):
        lens_domain(np.array([2.0, 0.0, 0.0, 0.0]))


def test_lens_domain_matches_quotient_interior():
    lens = LensGroup()
    rng = np.random.default_rng(19)
    for q in sample_sphere(rng, 200, 4):
        region = in_fundamental_domain(lens, lens.basepoint(), q)
        if region is Region.BOUNDARY:
            continue
        assert lens_domain(q) == (region is Region.INTERIOR)


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


class _CorruptedLens(LensGroup):
    """Negative control: scales the last coordinate, breaking isometry."""

    def apply(self, eid, point):
        out = np.array(super().apply(eid, point))
        out[-1] *= 1.5
        return out


class _FixedPointLens(LensGroup):
    """Negative control: the identity in disguise has fixed points."""

    def apply(self, eid, point):
        return np.asarray(point, float).copy()


def test_selfcheck_catches_corruption():
    with pytest.raises(SelfCheckFailed):
        group_action_selfcheck(_CorruptedLens(), samples=100, pairs=20)
    with pytest.raises(SelfCheckFailed):
        group_action_selfcheck(_FixedPointLens(), samples=100, pairs=20)


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
