import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicspaces import spaces
from harmonicspaces.errors import DomainViolation, UnsupportedModel
from harmonicspaces.numerics import derivative
from harmonicspaces.spaces import (
    CutLocusKind,
    Family,
    SpaceModel,
    ball_volume,
    complex_projective,
    cut_locus,
    domain_end,
    euclidean,
    gamma_half_integer,
    hyperbolic_dual,
    hyperbolic_space,
    log_derivative_theta,
    model_volume,
    octonion_plane,
    parse_model_id,
    positive_curvature_catalogue,
    positive_dual,
    quaternion_hyperbolic,
    sphere,
    theta,
    theta_tilde,
    unit_sphere_volume,
)

# sinh(1)^7 cosh(1)^3 evaluated with mpmath at 30 digits
SINH7_COSH3_AT_1 = 11.375000655318738
# sin(0.5) cos(0.5) / 0.5
THETA_TILDE_CP1_AT_HALF = 0.8414709848078965


def test_theta_sphere_equator():
    assert theta(sphere(2), math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_theta_cp2():
    # sin^3(pi/4) cos(pi/4) = (sqrt(2)/2)^4 = 1/4
    assert theta(complex_projective(2), math.pi / 4) == pytest.approx(0.25, abs=1e-15)


def test_theta_quaternion_hyperbolic():
    assert theta(quaternion_hyperbolic(2), 1.0) == pytest.approx(
        SINH7_COSH3_AT_1, rel=1e-14
    )


def test_theta_domain_violation():
    with pytest.raises(DomainViolation):
        theta(sphere(3), math.pi)
    with pytest.raises(DomainViolation):
        theta(sphere(3), 0.0)
    with pytest.raises(DomainViolation):
        theta(complex_projective(2), 2.0)


def test_theta_tilde_limits():
    # sin^2(r)/r^2 -> 1 like O(r^2)
    assert abs(theta_tilde(sphere(3), 1e-3) - 1.0) < 1e-5
    assert theta_tilde(euclidean(5), 2.0) == 1.0
    assert theta_tilde(complex_projective(1), 0.5) == pytest.approx(
        THETA_TILDE_CP1_AT_HALF, rel=1e-15
    )


@pytest.mark.parametrize("model", positive_curvature_catalogue() + [
    hyperbolic_space(3), quaternion_hyperbolic(2), euclidean(4),
])
def test_theta_tilde_normalization(model):
    # |theta_tilde - 1| <= C r^2 with C fitted at r = 1e-2; the quartic
    # correction makes the literal fitted bound marginal, hence the headroom
    c = abs(theta_tilde(model, 1e-2) - 1.0) / 1e-4
    assert abs(theta_tilde(model, 1e-3) - 1.0) <= max(c, 1e-3) * 1e-6 * 1.25


@pytest.mark.parametrize("model", positive_curvature_catalogue())
def test_theta_positive(model):
    end = domain_end(model)
    for i in range(1, 200):
        assert theta(model, end * i / 200.0) > 0.0


def test_log_derivative_closed_forms():
    assert log_derivative_theta(sphere(4), math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    # 3 cot(pi/4) - tan(pi/4) = 2
    assert log_derivative_theta(complex_projective(2), math.pi / 4) == pytest.approx(
        2.0, abs=1e-12
    )


@pytest.mark.parametrize(
    "model,r",
    [
        (sphere(2), 0.8),
        (sphere(6), 2.2),
        (complex_projective(3), 0.9),
        (quaternion_hyperbolic(2), 1.3),
        (hyperbolic_space(4), 0.7),
        (euclidean(5), 1.9),
        (octonion_plane(), 1.1),
    ],
)
def test_log_derivative_matches_finite_difference(model, r):
    fd = derivative(lambda s: math.log(theta(model, s)), r, 1)
    assert log_derivative_theta(model, r) == pytest.approx(fd, abs=1e-6)


def test_gamma_half_integer_against_math_gamma():
    for two_x in range(1, 30):
        assert gamma_half_integer(two_x) == pytest.approx(
            math.gamma(two_x / 2.0), rel=1e-14
        )


@pytest.mark.parametrize("m", range(2, 9))
def test_sphere_volumes(m):
    exact = 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)
    assert model_volume(sphere(m)) == pytest.approx(exact, rel=1e-9)


def test_cp1_volume_is_pi():
    # 2 pi * int_0^(pi/2) sin cos dr = pi; CP^1 is the radius-1/2 sphere
    assert model_volume(complex_projective(1)) == pytest.approx(math.pi, rel=1e-9)


def test_projective_volumes_closed_forms():
    # vol(S^m) = unit_sphere_volume(m), vol(CP^k) = pi^k / k!,
    # vol(HP^k) = pi^(2k) / (2k+1)!, vol(OP2) = 6 pi^8 / 11! (Besse 1978);
    # the quadrature must reach them to the last few ulps
    def textbook(model):
        k = model.projective_index
        if model.family is Family.SPHERE:
            return unit_sphere_volume(model.dimension)
        if model.family is Family.COMPLEX_PROJECTIVE:
            return math.pi**k / math.factorial(k)
        if model.family is Family.QUATERNION_PROJECTIVE:
            return math.pi ** (2 * k) / math.factorial(2 * k + 1)
        assert model.family is Family.OCTONION_PLANE
        return 6.0 * math.pi**8 / math.factorial(11)

    models = positive_curvature_catalogue() + [complex_projective(5), parse_model_id("HP5")]
    for model in models:
        exact = textbook(model)
        assert abs(model_volume(model) - exact) <= 1e-15 * exact, model


def test_model_volume_theta_calls_bounded(monkeypatch):
    # the volume integrals of the whole catalogue take 9,675 theta calls
    # (80,145 when open ends were approached by a geometric march)
    calls = 0
    real_theta = spaces.theta

    def counted(model, r):
        nonlocal calls
        calls += 1
        return real_theta(model, r)

    monkeypatch.setattr(spaces, "theta", counted)
    for model in positive_curvature_catalogue():
        model_volume(model)
    assert 0 < calls < 15_000


def test_model_volume_rejects_noncompact():
    with pytest.raises(UnsupportedModel):
        model_volume(hyperbolic_space(3))
    with pytest.raises(UnsupportedModel):
        model_volume(euclidean(2))


def test_ball_volume_flat():
    # vol(B_R) in E^3 is 4/3 pi R^3
    assert ball_volume(euclidean(3), 1.5) == pytest.approx(
        4.0 / 3.0 * math.pi * 1.5**3, rel=1e-9
    )


def test_ball_volume_large_radius():
    # theta is large at these radii but regular, so the radius is a closed
    # end: vol(B_R) in H^3 is pi (sinh 2R - 2R), in E^4 pi^2 R^4 / 2
    assert ball_volume(hyperbolic_space(3), 3.0) == pytest.approx(
        math.pi * (math.sinh(6.0) - 6.0), rel=1e-12
    )
    assert ball_volume(euclidean(4), 10.0) == pytest.approx(
        math.pi**2 / 2.0 * 1e4, rel=1e-12
    )


def test_ball_volume_rejects_non_finite_radius():
    for model in (hyperbolic_space(3), euclidean(3)):
        for radius in (math.inf, math.nan):
            with pytest.raises(DomainViolation, match=r"outside \(0, inf\)"):
                ball_volume(model, radius)


def test_ball_volume_hyperbolic_small_radius():
    # tiny hyperbolic balls are nearly Euclidean
    assert ball_volume(hyperbolic_space(3), 1e-2) == pytest.approx(
        4.0 / 3.0 * math.pi * 1e-6, rel=1e-3
    )


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.01, 1.0))
def test_duality_substitution(r):
    # independent evaluation of the sinh/cosh substitution via exponentials
    for pos in positive_curvature_catalogue(max_sphere_dim=5):
        neg = hyperbolic_dual(pos)
        a = pos.dimension - 1
        b = pos.density.cosine_exponent
        sh = (math.exp(r) - math.exp(-r)) / 2.0
        ch = (math.exp(r) + math.exp(-r)) / 2.0
        assert theta(neg, r) == pytest.approx(sh**a * ch**b, rel=1e-12)


def test_model_id_round_trip():
    ids = ["S2", "S7", "CP1", "CP4", "HP2", "HP4", "OP2",
           "hS3", "hCP2", "hHP4", "hOP2", "E2", "E6"]
    for mid in ids:
        assert parse_model_id(mid).model_id == mid


def test_parse_rejects_bad_ids():
    messages = {
        "X3": "unrecognized model id 'X3'",
        "s3": "unrecognized model id 's3'",
        "CP0": "dimension must be >= 2, got 0",
        "HP0": "dimension must be >= 2, got 0",
        "OP3": "only the projective plane OP2 exists in the catalogue",
        "S1": "dimension must be >= 2, got 1",
        "E1": "dimension must be >= 2, got 1",
        "hE2": "flat space has no hyperbolic dual id",
        "cp2": "unrecognized model id 'cp2'",
        # ids are canonical: ASCII digits without leading zeros
        "S\u0664": "unrecognized model id 'S\u0664'",
        "hS04": "unrecognized model id 'hS04'",
        "S3\n": "unrecognized model id 'S3\\n'",
    }
    for bad, message in messages.items():
        with pytest.raises(UnsupportedModel) as exc:
            parse_model_id(bad)
        assert str(exc.value) == message, bad


def test_dual_of_wrong_sign_rejected():
    with pytest.raises(UnsupportedModel) as exc:
        hyperbolic_dual(euclidean(2))
    assert str(exc.value) == "E2 has no hyperbolic dual"
    with pytest.raises(UnsupportedModel) as exc:
        positive_dual(sphere(2))
    assert str(exc.value) == "S2 has no positive-curvature dual"


def test_model_invariants():
    with pytest.raises(UnsupportedModel):
        SpaceModel(Family.COMPLEX_PROJECTIVE, 5, 2)  # m != 2k
    with pytest.raises(UnsupportedModel):
        SpaceModel(Family.OCTONION_PLANE, 8)
    with pytest.raises(UnsupportedModel):
        SpaceModel(Family.SPHERE, 1)
    # one OP2: the octonion plane and its dual exist only with k = 2
    for family in (Family.OCTONION_PLANE, Family.OCTONION_HYPERBOLIC):
        for k in (None, 1, 3):
            with pytest.raises(UnsupportedModel, match="only the projective plane OP2"):
                SpaceModel(family, 16, k)


def test_domain_ends():
    assert domain_end(sphere(4)) == math.pi
    assert domain_end(complex_projective(2)) == math.pi / 2
    assert domain_end(octonion_plane()) == math.pi / 2
    assert domain_end(hyperbolic_space(3)) == math.inf
    assert domain_end(euclidean(2)) == math.inf


def test_cut_locus_descriptors():
    assert cut_locus(sphere(5)).kind is CutLocusKind.ANTIPODAL_POINT
    cp = cut_locus(complex_projective(3))
    assert cp.kind is CutLocusKind.PROJECTIVE_HYPERPLANE and cp.index == 2
    assert cut_locus(octonion_plane()).kind is CutLocusKind.SPHERE_7
    assert cut_locus(hyperbolic_space(3)).kind is CutLocusKind.EMPTY


def test_unit_sphere_volume_raises_where_gamma_overflows():
    # below n = 343 the bits are the formula's; from there Gamma((n+1)/2)
    # overflows and the quotient would read 0.0 (then nan, then a pow overflow)
    for n in range(343):
        expected = 2.0 * math.pi ** ((n + 1) / 2.0) / gamma_half_integer(n + 1)
        assert unit_sphere_volume(n) == expected > 0.0
    for n in (343, 1238, 1239, 1240, 10**6, 10**20):
        with pytest.raises(OverflowError, match=f"unit {n}-sphere is outside float64"):
            unit_sphere_volume(n)


def test_unit_sphere_volume_low_dims():
    assert unit_sphere_volume(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert unit_sphere_volume(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert unit_sphere_volume(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


def test_density_profiles():
    prof = octonion_plane().density
    assert (prof.sine_exponent, prof.cosine_exponent) == (15, 7)
    assert sphere(9).density.cosine_exponent == 0
    assert parse_model_id("hCP3").density.cosine_exponent == 1
    for mid, sign in (("S3", 1), ("CP2", 1), ("OP2", 1), ("hHP3", -1), ("E3", 0)):
        assert parse_model_id(mid).density.curvature_sign == sign


#: theta and log_derivative_theta as float.hex, captured before the
#: density profile carried the curvature sign
_DENSITY_BITS = [
    ("S3", 0.3, "0x1.65b670ede93acp-4", "0x1.9dca092b2aa04p+2"),
    ("S3", 1.7, "0x1.f780161af5f01p-1", "-0x1.0a1769117a8a8p-2"),
    ("S3", 3.0, "0x1.4648f687dd0a8p-6", "-0x1.c0f9e5d665e16p+3"),
    ("CP2", 0.2, "0x1.f7a6266b689dcp-8", "0x1.d3189d15a5497p+3"),
    ("CP2", 0.9, "0x1.31f29695ca536p-2", "0x1.1ed8c66ee4c82p+0"),
    ("CP2", 1.5, "0x1.1f914fc33bc0ep-4", "-0x1.bc70076c20b52p+3"),
    ("hHP3", 0.4, "0x1.29949f719204ep-14", "0x1.e1752933d9039p+4"),
    ("hHP3", 2.5, "0x1.5595bb2113339p+36", "0x1.c37d9c440a296p+3"),
    ("hHP3", 9.0, "0x1.b774bda719592p+167", "0x1.c0000082d314ap+3"),
    ("E3", 0.5, "0x1.0000000000000p-2", "0x1.0000000000000p+2"),
    ("E3", 2.0, "0x1.0000000000000p+2", "0x1.0000000000000p+0"),
    ("E3", 17.0, "0x1.2100000000000p+8", "0x1.e1e1e1e1e1e1ep-4"),
]


@pytest.mark.parametrize("mid,r,theta_hex,log_derivative_hex", _DENSITY_BITS)
def test_density_bits_pinned(mid, r, theta_hex, log_derivative_hex):
    model = parse_model_id(mid)
    assert theta(model, r).hex() == theta_hex
    assert log_derivative_theta(model, r).hex() == log_derivative_hex


def test_density_resolved_once_per_model():
    model = complex_projective(2)
    assert model.density is model.density
    assert model.density.domain_end == domain_end(model) == math.pi / 2
    # the cached profile is not part of the model's identity
    fresh = complex_projective(2)
    assert model == fresh and hash(model) == hash(fresh)
    assert repr(model) == (
        "SpaceModel(family=<Family.COMPLEX_PROJECTIVE: 'complex_projective'>, "
        "dimension=4, projective_index=2)"
    )
    assert {model: 1}[fresh] == 1


def test_model_volume_is_ball_of_diameter():
    for model in (sphere(3), complex_projective(2), octonion_plane()):
        assert model_volume(model) == ball_volume(model, domain_end(model))
