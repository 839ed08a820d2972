import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicspaces import cli, spaces
from harmonicspaces.errors import DomainViolation, UnsupportedModel
from harmonicspaces.numerics import derivative
from harmonicspaces.spaces import (
    Family,
    SpaceModel,
    ball_volume,
    domain_end,
    gamma_half_integer,
    log_derivative_theta,
    model_volume,
    parse_model_id,
    positive_curvature_catalogue,
    positive_dual,
    theta,
    unit_sphere_volume,
)

# sinh(1)^7 cosh(1)^3 evaluated with mpmath at 30 digits
SINH7_COSH3_AT_1 = 11.375000655318738
# sin(0.5) cos(0.5) / 0.5
THETA_TILDE_CP1_AT_HALF = 0.8414709848078965


def test_theta_sphere_equator():
    assert theta(parse_model_id("S2"), math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_theta_cp2():
    # sin^3(pi/4) cos(pi/4) = (sqrt(2)/2)^4 = 1/4
    assert theta(parse_model_id("CP2"), math.pi / 4) == pytest.approx(0.25, abs=1e-15)


def test_theta_quaternion_hyperbolic():
    assert theta(parse_model_id("hHP2"), 1.0) == pytest.approx(
        SINH7_COSH3_AT_1, rel=1e-14
    )


def test_theta_domain_violation():
    with pytest.raises(DomainViolation):
        theta(parse_model_id("S3"), math.pi)
    with pytest.raises(DomainViolation):
        theta(parse_model_id("S3"), 0.0)
    with pytest.raises(DomainViolation):
        theta(parse_model_id("CP2"), 2.0)


def _theta_tilde(model, r):
    # theta with the flat factor removed, which tends to 1 as r -> 0
    return theta(model, r) / r ** (model.dimension - 1)


def test_theta_tilde_limits():
    # sin^2(r)/r^2 -> 1 like O(r^2)
    assert abs(_theta_tilde(parse_model_id("S3"), 1e-3) - 1.0) < 1e-5
    assert _theta_tilde(parse_model_id("E5"), 2.0) == 1.0
    assert _theta_tilde(parse_model_id("CP1"), 0.5) == pytest.approx(
        THETA_TILDE_CP1_AT_HALF, rel=1e-15
    )


@pytest.mark.parametrize("model", positive_curvature_catalogue() + [
    parse_model_id("hS3"), parse_model_id("hHP2"), parse_model_id("E4"),
])
def test_theta_tilde_normalization(model):
    # |theta_tilde - 1| <= C r^2 with C fitted at r = 1e-2; the quartic
    # correction makes the literal fitted bound marginal, hence the headroom
    c = abs(_theta_tilde(model, 1e-2) - 1.0) / 1e-4
    assert abs(_theta_tilde(model, 1e-3) - 1.0) <= max(c, 1e-3) * 1e-6 * 1.25


@pytest.mark.parametrize("model", positive_curvature_catalogue())
def test_theta_positive(model):
    end = domain_end(model)
    for i in range(1, 200):
        assert theta(model, end * i / 200.0) > 0.0


def test_log_derivative_closed_forms():
    assert log_derivative_theta(parse_model_id("S4"), math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    # 3 cot(pi/4) - tan(pi/4) = 2
    assert log_derivative_theta(parse_model_id("CP2"), math.pi / 4) == pytest.approx(
        2.0, abs=1e-12
    )


@pytest.mark.parametrize(
    "model,r",
    [
        (parse_model_id("S2"), 0.8),
        (parse_model_id("S6"), 2.2),
        (parse_model_id("CP3"), 0.9),
        (parse_model_id("hHP2"), 1.3),
        (parse_model_id("hS4"), 0.7),
        (parse_model_id("E5"), 1.9),
        (parse_model_id("OP2"), 1.1),
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
    with pytest.raises(ValueError, match="positive half-integer"):
        gamma_half_integer(0)


@pytest.mark.parametrize("m", range(2, 9))
def test_sphere_volumes(m):
    exact = 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)
    assert model_volume(parse_model_id(f"S{m}")) == pytest.approx(exact, rel=1e-9)


def test_cp1_volume_is_pi():
    # 2 pi * int_0^(pi/2) sin cos dr = pi; CP^1 is the radius-1/2 sphere
    assert model_volume(parse_model_id("CP1")) == pytest.approx(math.pi, rel=1e-9)


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

    models = positive_curvature_catalogue() + [parse_model_id("CP5"), parse_model_id("HP5")]
    for model in models:
        exact = textbook(model)
        assert abs(model_volume(model) - exact) <= 1e-15 * exact, model


def test_model_volume_theta_calls_bounded(monkeypatch):
    # the volumes are Beta functions and evaluate no density; the ball
    # quadrature of the whole catalogue to the diameter takes 9,675 theta
    # calls (80,145 when open ends were approached by a geometric march)
    calls = 0
    real_theta = spaces.theta

    def counted(model, r):
        nonlocal calls
        calls += 1
        return real_theta(model, r)

    monkeypatch.setattr(spaces, "theta", counted)
    for model in positive_curvature_catalogue():
        model_volume(model)
    assert calls == 0
    for model in positive_curvature_catalogue():
        ball_volume(model, domain_end(model))
    assert 0 < calls < 15_000


def test_model_volume_rejects_noncompact():
    with pytest.raises(UnsupportedModel):
        model_volume(parse_model_id("hS3"))
    with pytest.raises(UnsupportedModel):
        model_volume(parse_model_id("E2"))


def test_ball_volume_flat():
    # vol(B_R) in E^3 is 4/3 pi R^3
    assert ball_volume(parse_model_id("E3"), 1.5) == pytest.approx(
        4.0 / 3.0 * math.pi * 1.5**3, rel=1e-9
    )


def test_ball_volume_large_radius():
    # theta is large at these radii but regular, so the radius is a closed
    # end: vol(B_R) in H^3 is pi (sinh 2R - 2R), in E^4 pi^2 R^4 / 2
    assert ball_volume(parse_model_id("hS3"), 3.0) == pytest.approx(
        math.pi * (math.sinh(6.0) - 6.0), rel=1e-12
    )
    assert ball_volume(parse_model_id("E4"), 10.0) == pytest.approx(
        math.pi**2 / 2.0 * 1e4, rel=1e-12
    )


def test_ball_volume_rejects_non_finite_radius():
    for model in (parse_model_id("hS3"), parse_model_id("E3")):
        for radius in (math.inf, math.nan):
            with pytest.raises(DomainViolation, match=r"outside \(0, inf\)"):
                ball_volume(model, radius)


def test_ball_volume_hyperbolic_small_radius():
    # tiny hyperbolic balls are nearly Euclidean
    assert ball_volume(parse_model_id("hS3"), 1e-2) == pytest.approx(
        4.0 / 3.0 * math.pi * 1e-6, rel=1e-3
    )


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.01, 1.0))
def test_duality_substitution(r):
    # independent evaluation of the sinh/cosh substitution via exponentials
    for pos in positive_curvature_catalogue():
        neg = parse_model_id("h" + pos.model_id)
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


#: (id, family, m, k) written out, not derived from spaces._ROWS: the one
#: check that sees a wrong d in the flat row (see test_rows_mutation_gate)
ID_TABLE = [
    ("S3", Family.SPHERE, 3, None),
    ("CP2", Family.COMPLEX_PROJECTIVE, 4, 2),
    ("HP3", Family.QUATERNION_PROJECTIVE, 12, 3),
    ("OP2", Family.OCTONION_PLANE, 16, 2),
    ("hS4", Family.HYPERBOLIC_SPACE, 4, None),
    ("hCP3", Family.COMPLEX_HYPERBOLIC, 6, 3),
    ("hHP2", Family.QUATERNION_HYPERBOLIC, 8, 2),
    ("hOP2", Family.OCTONION_HYPERBOLIC, 16, 2),
    ("E5", Family.EUCLIDEAN, 5, None),
]


def _model_key(model_id):
    model = parse_model_id(model_id)
    return model.family, model.dimension, model.projective_index


@pytest.mark.parametrize("model_id, family, m, k", ID_TABLE, ids=[e[0] for e in ID_TABLE])
def test_model_id_names_family_dimension_and_index(model_id, family, m, k):
    assert _model_key(model_id) == (family, m, k)


#: the hyperbolic duals with a Gauss-Bonnet bound (even dimension)
BOUNDS_IDS = [
    "hS2", "hS4", "hS6", "hS8", "hCP1", "hCP2", "hCP3", "hCP4", "hHP2", "hHP3", "hHP4", "hOP2",
]
ROW_MUTANTS = [(family, field) for family in Family for field in ("sign", "d")]


def _run(capsys, *argv):
    # an exception out of main is a traceback and exit status 1 in a shell
    try:
        code = cli.main(list(argv))
    except Exception as exc:
        code = type(exc).__name__
    return (code, *capsys.readouterr())


def _bounds_outputs(capsys):
    return [_run(capsys, "bounds", model_id) for model_id in BOUNDS_IDS]


# a mutant puts closed forms outside their domain (the log of a negative tan),
# where numpy warns; the exit code and the bounds are the verdict
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "family, field",
    ROW_MUTANTS,
    ids=[f"{spaces._ROWS[family][0]}-{field}" for family, field in ROW_MUTANTS],
)
def test_rows_mutation_gate(capsys, monkeypatch, family, field):
    # mutation gate on spaces._ROWS, the one home of each family's curvature
    # sign and d: the sign flips (flat becomes 1), d steps 1 -> 2 -> 4 -> 8 -> 1,
    # and verify all must fail or a bound must move.  The flat family's d
    # survives: E<n> becomes a 2n-dimensional flat model that is consistent
    # in itself, so only the written-out ID_TABLE sees it
    stem, sign, d = spaces._ROWS[family]
    row = (stem, -sign or 1, d) if field == "sign" else (stem, sign, {1: 2, 2: 4, 4: 8, 8: 1}[d])
    before = _bounds_outputs(capsys)
    monkeypatch.setitem(spaces._ROWS, family, row)
    caught = _run(capsys, "verify", "all")[0] != 0 or _bounds_outputs(capsys) != before
    if (stem, field) == ("E", "d"):
        assert not caught
        assert [mid for mid, *key in ID_TABLE if _model_key(mid) != tuple(key)] == ["E5"]
    else:
        assert caught


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
        positive_dual(parse_model_id("S2"))
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
    assert domain_end(parse_model_id("S4")) == math.pi
    assert domain_end(parse_model_id("CP2")) == math.pi / 2
    assert domain_end(parse_model_id("OP2")) == math.pi / 2
    assert domain_end(parse_model_id("hS3")) == math.inf
    assert domain_end(parse_model_id("E2")) == math.inf


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
    with pytest.raises(ValueError, match="n must be >= 0"):
        unit_sphere_volume(-1)


def test_density_profiles():
    prof = parse_model_id("OP2").density
    assert (prof.sine_exponent, prof.cosine_exponent) == (15, 7)
    assert parse_model_id("S9").density.cosine_exponent == 0
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
    model = parse_model_id("CP2")
    assert model.density is model.density
    assert model.density.domain_end == domain_end(model) == math.pi / 2
    # the cached profile is not part of the model's identity
    fresh = parse_model_id("CP2")
    assert model == fresh and hash(model) == hash(fresh)
    assert repr(model) == (
        "SpaceModel(family=<Family.COMPLEX_PROJECTIVE: 'complex_projective'>, "
        "dimension=4, projective_index=2)"
    )
    assert {model: 1}[fresh] == 1


def test_model_volume_is_ball_of_diameter():
    # the Beta-function volume against the quadrature of theta over (0, D)
    for model in positive_curvature_catalogue():
        exact = model_volume(model)
        assert abs(exact - ball_volume(model, domain_end(model))) <= 1e-12 * exact, model


@pytest.mark.parametrize("model_id", ["S343", "CP171", "HP85"])
def test_model_volume_gamma_overflow_raises(model_id):
    # Gamma((a+b+2)/2) is beyond float64 here, so a plain ratio would read 0.0
    model = parse_model_id(model_id)
    with pytest.raises(OverflowError, match=f"^the volume of {model_id} has a Gamma factor"):
        model_volume(model)


def test_only_parse_model_id_builds_a_model():
    # one construction path in the package, so a family's d is read from its
    # spaces._ROWS row alone and no helper restates it in a SpaceModel call
    calls = []
    for path in sorted(Path(spaces.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> name of the innermost function around it
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                owner[child] = node.name if isinstance(node, ast.FunctionDef) else owner.get(node)
        calls += [
            (path.name, owner.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "SpaceModel"
        ]
    assert calls == [("spaces.py", "parse_model_id")]
