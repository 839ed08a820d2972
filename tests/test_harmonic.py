import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicspaces import harmonic
from harmonicspaces.cli import main
from harmonicspaces.errors import DomainViolation, UnsupportedModel
from harmonicspaces.harmonic import (
    BoundaryBehavior,
    CLOSED_FORMS,
    classify_boundary,
    closed_form,
    closed_form_models,
    harmonicity_residual,
    laplacian_radial,
    phi0_closed,
    phi0_numeric,
    phi0_numeric_grid,
    phi1,
    scaled_residual,
    verification_grid,
    verify_table_entry,
)
from harmonicspaces.numerics import Interval, _gk15, integrate
from harmonicspaces.spaces import (
    complex_hyperbolic,
    complex_projective,
    euclidean,
    hyperbolic_space,
    log_derivative_theta,
    parse_model_id,
    sphere,
    theta,
    theta_array,
)

# 1/(sinh(1)^3 cosh(1)), mpmath 30 digits
PHI1_HCP2_AT_1 = 0.39927738018245308
# -coth(1)
NEG_COTH_1 = -1.3130352854993313
# -(2 + cot(pi/3) * 2 * pi/3): the radial Laplacian of r^2 on the 2-sphere
LAPLACIAN_S2_R_SQUARED = -3.2091995761561452


def test_phi1_values():
    assert phi1(sphere(3), math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert phi1(euclidean(4), 2.0) == pytest.approx(0.125, abs=1e-15)
    assert phi1(complex_hyperbolic(2), 1.0) == pytest.approx(PHI1_HCP2_AT_1, rel=1e-14)


def test_phi0_closed_values():
    assert phi0_closed(sphere(3), math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert phi0_closed(sphere(2), math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert phi0_closed(hyperbolic_space(3), 1.0) == pytest.approx(NEG_COTH_1, rel=1e-14)


def test_phi0_closed_flat():
    assert phi0_closed(euclidean(2), math.e) == pytest.approx(1.0, rel=1e-14)
    assert phi0_closed(euclidean(4), 2.0) == pytest.approx(-1.0 / 8.0, rel=1e-14)


def test_phi0_closed_gates():
    with pytest.raises(UnsupportedModel):
        phi0_closed(sphere(6), 1.0)
    with pytest.raises(DomainViolation):
        phi0_closed(sphere(3), -0.5)


def test_phi0_numeric_examples():
    # -cot(pi/2) + cot(pi/4) = 1
    assert phi0_numeric(sphere(3), math.pi / 2, math.pi / 4) == pytest.approx(
        1.0, abs=1e-8
    )
    assert phi0_numeric(sphere(3), 1.0, 1.0) == 0.0
    assert phi0_numeric(euclidean(2), math.e, 1.0) == pytest.approx(1.0, abs=1e-8)


def test_phi0_numeric_antisymmetric():
    a = phi0_numeric(complex_projective(2), 1.1, 0.4)
    b = phi0_numeric(complex_projective(2), 0.4, 1.1)
    assert a == pytest.approx(-b, rel=1e-12)


def test_closed_form_is_resolved_once():
    assert closed_form(sphere(3)) is CLOSED_FORMS["S3"]
    assert closed_form(euclidean(2)) is closed_form(euclidean(2))
    assert closed_form(euclidean(2))(math.e) == math.log(math.e)
    assert closed_form(euclidean(4))(2.0) == phi0_closed(euclidean(4), 2.0)
    with pytest.raises(UnsupportedModel):
        closed_form(sphere(6))


_TABLE_IDS = [*CLOSED_FORMS, "E2", "E3", "E4", "E5"]


@pytest.mark.parametrize("mid", _TABLE_IDS)
def test_phi0_numeric_grid_matches_per_point_integrals(mid):
    # one integral per grid gap, summed outward, against one integral per point
    model = parse_model_id(mid)
    grid = verification_grid(model)
    r_ref = grid[len(grid) // 2]
    summed = phi0_numeric_grid(model, grid, r_ref)
    for r, value in zip(grid, summed):
        assert scaled_residual(value, phi0_numeric(model, r, r_ref)) <= 1e-13


@pytest.mark.parametrize("mid", _TABLE_IDS)
def test_array_closed_forms_match_scalar_forms(mid):
    # numpy's elementary functions may round apart from libm's by a few ulps
    model = parse_model_id(mid)
    form = closed_form(model)
    grid = verification_grid(model)
    got = form(np.array(grid), np)
    assert isinstance(got, np.ndarray) and got.shape == (len(grid),)
    assert float(np.max(scaled_residual(got, [form(r) for r in grid]))) <= 1e-12


def test_array_flat_form_overflow_names_the_model():
    # 2.0^-998 is finite; 0.3 is the first radius where r^(2-m) leaves float64
    form = closed_form(euclidean(1000))
    with pytest.raises(OverflowError, match=r"^phi0 of E1000 at r=0\.3 overflows float64$"):
        form(np.array([2.0, 0.3, 0.2]), np)


@pytest.mark.parametrize("mid", _TABLE_IDS)
def test_theta_array_matches_theta_on_verification_grid(mid):
    model = parse_model_id(mid)
    grid = verification_grid(model)
    got = theta_array(model, np.array(grid))
    for r, value in zip(grid, got.tolist()):
        assert value == pytest.approx(theta(model, r), rel=1e-14, abs=0.0)


def test_phi0_numeric_grid_first_panels_are_gk15_panels_bit_for_bit(monkeypatch):
    # one density call on all nodes, then _gk15's sums: every gap of this
    # grid keeps its first panel, and the running sums are those of _gk15
    # applied to each gap alone
    def no_fallback(*args, **kwargs):
        raise AssertionError("a gap fell back to integrate")

    monkeypatch.setattr(harmonic, "integrate", no_fallback)
    model = parse_model_id("S3")
    grid = verification_grid(model)[:12]
    f = lambda s: float(1.0 / theta_array(model, np.array([s]))[0])
    panels = [_gk15(f, a, b)[0] for a, b in zip(grid, grid[1:])]
    assert phi0_numeric_grid(model, grid, grid[0]) == list(accumulate(panels, initial=0.0))


def test_phi0_numeric_grid_overflow_raises_through_the_scalar_path():
    # sinh(100.5)^15 is inf, so 1/theta would read 0.0 on the array path
    with pytest.raises(OverflowError) as exc:
        phi0_numeric_grid(parse_model_id("hOP2"), [100.0, 101.0], 100.0)
    assert str(exc.value) == "theta of hOP2 at r=100.5 overflows float64"


def test_phi0_numeric_grid_gaps_that_fall_back(monkeypatch):
    # three gaps of hOP2's verification grid miss tolerance on their first
    # array panel and go to the scalar integrate
    model = parse_model_id("hOP2")
    grid = verification_grid(model)
    r_ref = grid[len(grid) // 2]
    scalar_gaps = []

    def recording_integrate(f, iv, tol):
        scalar_gaps.append(iv)
        return integrate(f, iv, tol=tol)

    monkeypatch.setattr(harmonic, "integrate", recording_integrate)
    summed = phi0_numeric_grid(model, grid, r_ref)
    assert len(scalar_gaps) == 3
    assert all(iv.lo in grid and iv.hi in grid for iv in scalar_gaps)
    monkeypatch.undo()
    for r, value in zip(grid, summed):
        assert scaled_residual(value, phi0_numeric(model, r, r_ref)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    mid=st.sampled_from(["S3", "CP2", "hS4", "E3"]),
    r=st.floats(0.1, 1.5),
    r_ref=st.floats(0.1, 1.5),
)
def test_phi0_numeric_is_one_integral_bit_for_bit(mid, r, r_ref):
    model = parse_model_id(mid)
    got = phi0_numeric(model, r, r_ref)
    if r == r_ref:
        assert got == 0.0
        return
    iv = Interval(min(r, r_ref), max(r, r_ref))
    value = integrate(lambda s: phi1(model, s), iv).value
    assert got == (value if r > r_ref else -value)


def test_phi0_numeric_grid_order_duplicates_and_reference():
    model = sphere(3)
    rs = [2.0, 0.5, 1.2, 0.5, 1.0, 2.0]
    got = phi0_numeric_grid(model, rs, 1.0)
    # -cot(r) + cot(1)
    for r, value in zip(rs, got):
        assert value == pytest.approx(-1.0 / math.tan(r) + 1.0 / math.tan(1.0), abs=1e-9)
    assert got[4] == 0.0
    assert got[1] == got[3] and got[0] == got[5]
    # a reference off the grid, below and above every point
    assert phi0_numeric_grid(model, [0.5, 0.9], 0.3)[1] == pytest.approx(
        -1.0 / math.tan(0.9) + 1.0 / math.tan(0.3), abs=1e-9
    )
    assert phi0_numeric_grid(model, [0.9, 0.5], 2.5)[1] == pytest.approx(
        -1.0 / math.tan(0.5) + 1.0 / math.tan(2.5), abs=1e-9
    )
    assert phi0_numeric_grid(model, [1.0, 1.0], 1.0) == [0.0, 0.0]


def test_phi0_numeric_grid_domain():
    with pytest.raises(DomainViolation):
        phi0_numeric_grid(sphere(3), [0.5, math.pi, 1.0], 1.0)
    with pytest.raises(DomainViolation):
        phi0_numeric_grid(sphere(3), [0.5, 1.0], 0.0)
    with pytest.raises(DomainViolation):
        phi0_numeric(euclidean(3), -1.0, 1.0)


_OUTSIDE = [
    (mid, end, r)
    for mid, end in (("S3", math.pi), ("CP2", math.pi / 2), ("hS3", math.inf), ("E3", math.inf))
    for r in (0.0, -1.0, math.nan) + ((end,) if end < math.inf else ())
]


@pytest.mark.parametrize("mid,end,r", _OUTSIDE)
def test_one_open_domain_rule(capsys, mid, end, r):
    # every radial entry point and phi-table reject r with one message
    model = parse_model_id(mid)
    message = f"r={r!r} outside the open domain (0, {end}) of {mid}"
    calls = [
        lambda: theta(model, r),
        lambda: log_derivative_theta(model, r),
        lambda: phi1(model, r),
        lambda: phi0_closed(model, r),
        lambda: phi0_numeric(model, r, 0.7),
        lambda: phi0_numeric(model, 0.7, r),
        lambda: phi0_numeric_grid(model, [0.5, r, 0.9], 0.7),
    ]
    for call in calls:
        with pytest.raises(DomainViolation) as exc:
            call()
        assert str(exc.value) == message
    for argv in ([repr(r), "0.9", "3", "0.7"], ["0.3", "0.9", "3", repr(r)]):
        assert main(["phi-table", mid, *argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "mid,r",
    [
        ("E1000", 2.7),  # r ** 999 raises
        ("hS3", 800.0),  # sinh(800) raises
        ("hCP3", 140.0),  # sinh^5 is finite, the product with cosh is not
    ],
)
def test_theta_overflow_names_the_model(mid, r):
    model = parse_model_id(mid)
    for f in (theta, phi1):
        with pytest.raises(OverflowError, match=f"^theta of {mid} at r={r!r} overflows float64$"):
            f(model, r)


def test_laplacian_closed_form_is_harmonic():
    model = sphere(3)
    assert abs(laplacian_radial(model, lambda r: phi0_closed(model, r), 1.0)) <= 1e-5


def test_laplacian_constant_function():
    assert laplacian_radial(sphere(4), lambda r: 7.5, 1.2) == 0.0


def test_laplacian_hand_value():
    got = laplacian_radial(sphere(2), lambda r: r * r, math.pi / 3)
    assert got == pytest.approx(LAPLACIAN_S2_R_SQUARED, abs=1e-7)


def test_classify_boundary():
    assert classify_boundary(sphere(4)).at_far_end is BoundaryBehavior.DIVERGENT
    assert (
        classify_boundary(complex_projective(2)).at_far_end
        is BoundaryBehavior.DIVERGENT
    )
    hs3 = classify_boundary(hyperbolic_space(3))
    assert hs3.at_far_end is BoundaryBehavior.NO_BOUNDARY
    assert hs3.at_origin is BoundaryBehavior.DIVERGENT


@pytest.mark.parametrize("mid", ["S3", "CP2", "hS2", "hS5", "hHP3"])
def test_verify_table_entry_spot_checks(mid):
    res = verify_table_entry(parse_model_id(mid))
    assert res.max_ode_residual < 1e-8
    assert res.max_match_residual < 1e-8
    assert res.passed


def test_verify_flags_wrong_entry(monkeypatch):
    # a corrupted transcription must fail both oracles
    monkeypatch.setitem(CLOSED_FORMS, "S3", lambda r, m=math: +1.0 / m.tan(r))
    res = verify_table_entry(sphere(3))
    assert not res.passed
    assert res.max_ode_residual > 1e-6
    assert res.max_match_residual > 1e-8


def test_non_finite_array_phi1_is_taken_from_the_scalar_phi1(monkeypatch):
    # theta_array reading 0.0 at one grid point would make 1/theta inf there;
    # the ODE check then asks the scalar phi1, which gives the finite value
    model = parse_model_id("hS3")
    grid = verification_grid(model)
    exact = verify_table_entry(model)

    def zero_at_one_point(model, r):
        values = theta_array(model, r)
        return np.where(r == grid[7], 0.0, values) if r.shape == (len(grid),) else values

    monkeypatch.setattr(harmonic, "theta_array", zero_at_one_point)
    res = verify_table_entry(model)
    assert res.passed
    assert res.max_ode_residual == pytest.approx(exact.max_ode_residual, rel=0.5)
    monkeypatch.setattr(harmonic, "phi1", lambda model, r: math.nan)
    assert math.isnan(verify_table_entry(model).max_ode_residual)


def test_closed_form_catalogue_size():
    assert len(CLOSED_FORMS) == 22
    assert len(closed_form_models()) == 22


@settings(max_examples=20, deadline=None)
@given(
    # a 1e-6 grid: phi0 of two adjacent doubles can round to the same value
    rs=st.lists(st.integers(200_000, 1_300_000).map(lambda k: k * 1e-6),
                min_size=2, max_size=6, unique=True),
    mid=st.sampled_from(["S3", "CP2", "hS3", "E2", "E4"]),
)
def test_phi0_monotone_increasing(rs, mid):
    model = parse_model_id(mid)
    rs = sorted(rs)
    closed = [phi0_closed(model, r) for r in rs]
    assert all(a < b for a, b in zip(closed, closed[1:]))
    numeric = [phi0_numeric(model, r, 0.7) for r in rs]
    assert all(a < b for a, b in zip(numeric, numeric[1:]))


@pytest.mark.parametrize("mid", ["S500", "hS500", "CP400", "HP200"])
def test_phi1_overflow_where_theta_underflows(mid):
    # theta of these models underflows to 0.0 at r = 0.2, inside the domain
    with pytest.raises(OverflowError, match=f"phi1 of {mid} at r=0.2 overflows float64"):
        phi1(parse_model_id(mid), 0.2)


def test_phi1_overflow_where_theta_is_subnormal():
    # sin(0.2)^444 is about 3e-312: 1/theta is inf without a ZeroDivisionError
    with pytest.raises(OverflowError, match="phi1 of S445 at r=0.2 overflows float64"):
        phi1(parse_model_id("S445"), 0.2)


def test_phi0_closed_flat_overflow_names_the_model():
    with pytest.raises(OverflowError, match="phi0 of E1000 at r=0.3 overflows float64"):
        phi0_closed(euclidean(1000), 0.3)


@pytest.mark.parametrize("m", [2, 20, 150, 342])
def test_flat_ode_residual_is_small_for_large_dimensions(m):
    # r^(2-m)/(2-m) is exact, and a plain central difference would lose
    # O(h^2 m^2 / r^2) here: the ODE check must not grow with the dimension
    assert verify_table_entry(euclidean(m)).max_ode_residual <= 1e-9


@pytest.mark.parametrize("mid", ["S2", "S3", "CP2", "hS3", "E2", "E3"])
def test_phi0_diverges_at_origin(mid):
    model = parse_model_id(mid)
    assert phi0_numeric(model, 1e-6, 0.5) < phi0_numeric(model, 1e-3, 0.5) - 1.0


def test_consistency_numeric_vs_closed_difference():
    model = parse_model_id("CP3")
    r, r_ref = 1.2, 0.5
    closed_diff = phi0_closed(model, r) - phi0_closed(model, r_ref)
    assert phi0_numeric(model, r, r_ref) == pytest.approx(closed_diff, abs=1e-8)


def test_verification_grid_bounds():
    # the span is min(domain_end, 3), so the sphere grid ends at 2.7
    grid = verification_grid(sphere(3))
    assert len(grid) == 50
    assert grid[0] == pytest.approx(0.3)
    assert grid[-1] == pytest.approx(2.7)
    grid_cp = verification_grid(complex_projective(2))
    assert grid_cp[0] == pytest.approx(0.05 * math.pi)
    assert grid_cp[-1] == pytest.approx(0.45 * math.pi)
    grid_inf = verification_grid(hyperbolic_space(3))
    assert grid_inf[-1] == pytest.approx(2.7)


def test_harmonicity_residual_scaled():
    model = parse_model_id("OP2")
    f = lambda r: phi0_closed(model, r)
    for r in (0.2, 0.8, 1.3):
        assert harmonicity_residual(model, f, r) <= 1e-5
