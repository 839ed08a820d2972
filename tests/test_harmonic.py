import hashlib
import math
import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicspaces import harmonic
from harmonicspaces.cli import main
from harmonicspaces.errors import DomainViolation, NonConvergence, UnsupportedModel
from harmonicspaces.harmonic import (
    BoundaryBehavior,
    CLOSED_FORMS,
    classify_boundary,
    closed_form,
    harmonicity_residual,
    laplacian_radial,
    phi0_closed,
    phi0_numeric,
    phi0_numeric_grid,
    phi0_numeric_grids,
    phi0_table,
    phi1,
    scaled_residual,
    verification_grid,
    verify_table_entry,
    verify_table_entries,
)
from harmonicspaces.numerics import DEFAULT_TOL, Interval, _gk15, integrate
from harmonicspaces.spaces import (
    complex_hyperbolic,
    complex_projective,
    euclidean,
    hyperbolic_space,
    log_derivative_theta,
    parse_model_id,
    positive_curvature_catalogue,
    sphere,
    theta,
)
from harmonicspaces.verify import TABLE_IDS

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


@pytest.mark.parametrize("mid", TABLE_IDS)
def test_phi0_numeric_grid_matches_per_point_integrals(mid):
    # one integral per grid gap, summed outward, against one integral per point
    model = parse_model_id(mid)
    grid = verification_grid(model)
    r_ref = grid[len(grid) // 2]
    summed = phi0_numeric_grid(model, grid, r_ref)
    for r, value in zip(grid, summed):
        assert scaled_residual(value, phi0_numeric(model, r, r_ref)) <= 1e-13


@pytest.mark.parametrize("mid", TABLE_IDS)
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


@pytest.mark.parametrize("mid", TABLE_IDS)
def test_theta_array_matches_theta_on_verification_grid(mid):
    # theta on an array of radii against theta on each float
    model = parse_model_id(mid)
    grid = verification_grid(model)
    got = theta(model, np.array(grid))
    for r, value in zip(grid, got.tolist()):
        assert value == pytest.approx(theta(model, r), rel=1e-14, abs=0.0)


def test_phi0_numeric_grid_first_panels_are_gk15_panels_bit_for_bit(monkeypatch):
    # one density call on all nodes, then _gk15's sums: every gap of this
    # grid keeps its first panel, and the running sums are those of _gk15
    # applied to each gap alone, added outward from r_ref = grid[k]
    def no_fallback(*args, **kwargs):
        raise AssertionError("a gap fell back to integrate")

    monkeypatch.setattr(harmonic, "integrate", no_fallback)
    model = parse_model_id("S3")
    grid = verification_grid(model)[:12]
    f = lambda s: float(1.0 / theta(model, np.array([s]))[0])
    panels = [_gk15(f, a, b)[0] for a, b in zip(grid, grid[1:])]
    for k in (0, 5, 11):
        left = [-s for s in accumulate(reversed(panels[:k]), initial=0.0)][:0:-1]
        right = list(accumulate(panels[k:], initial=0.0))
        assert phi0_numeric_grid(model, grid, grid[k]) == left + right, k


def test_phi0_numeric_grid_overflow_raises_through_the_scalar_path():
    # sinh(100.5)^15 is inf: the array call on the Kronrod nodes raises the
    # float's error for the gap centre, the first node in C order
    with pytest.raises(OverflowError) as exc:
        phi0_numeric_grid(parse_model_id("hOP2"), [100.0, 101.0], 100.0)
    assert str(exc.value) == "theta of hOP2 at r=100.5 overflows float64"


def _recording_integrate(monkeypatch):
    """Patch harmonic.integrate to record each interval it is called on."""
    intervals = []

    def recording_integrate(f, iv, tol):
        intervals.append(iv)
        return integrate(f, iv, tol=tol)

    monkeypatch.setattr(harmonic, "integrate", recording_integrate)
    return intervals


def test_phi0_numeric_grid_gaps_that_fall_back(monkeypatch):
    # every gap of hOP2's verification grid converges on its first array
    # panel or on its array split, so none reaches the scalar integrate
    model = parse_model_id("hOP2")
    grid = verification_grid(model)
    r_ref = grid[len(grid) // 2]
    scalar_gaps = _recording_integrate(monkeypatch)
    summed = phi0_numeric_grid(model, grid, r_ref)
    # one wide gap still misses tolerance after its split, and bisects on
    # in array passes rather than restarting in the scalar integrate
    wide = phi0_numeric_grid(model, [0.3, 1.0], 0.3)
    assert scalar_gaps == []
    monkeypatch.undo()
    assert wide[0] == 0.0
    assert scaled_residual(wide[1], phi0_numeric(model, 1.0, 0.3)) <= 1e-13
    for r, value in zip(grid, summed):
        assert scaled_residual(value, phi0_numeric(model, r, r_ref)) <= 1e-13


def test_phi0_numeric_grid_split_is_integrates_first_split_bit_for_bit(monkeypatch):
    # 1 / r^3 rounds the same on a float and on an array, so a gap that
    # integrate settles in one split, or in four, must read integrate's
    # value exactly
    f = lambda r: 1.0 / (r * r * r)
    monkeypatch.setattr(harmonic, "phi1", lambda model, r: f(r))
    scalar_gaps = _recording_integrate(monkeypatch)
    model = parse_model_id("E4")
    points = [0.01, 0.03, 0.1, 0.16, 0.25, 0.4, 0.64, 1.0, 1.6]
    gap_tol = DEFAULT_TOL / (len(points) - 1)
    results = [integrate(f, Interval(a, b), tol=gap_tol) for a, b in zip(points, points[1:])]
    # 45 evaluations are the first panel and its two halves, 135 four splits
    assert [res.evaluations for res in results] == [135, 135, 45, 45, 45, 45, 15, 15]
    right = list(accumulate((res.value for res in results), initial=0.0))
    assert phi0_numeric_grid(model, points, points[0]) == right
    assert scalar_gaps == []


def test_phi0_numeric_grids_nonconvergence_names_the_first_failing_gap(monkeypatch):
    # 1e307 / r + 1e307 / (3 - r) overflows near 0 and near 3, so three gaps
    # sum to inf; the error names the first of them in row order, gaps
    # ascending, not the first outward from r_ref (which was [2.0, 3 - 1e-10])
    f = lambda r: 1e307 / r + 1e307 / (3.0 - r)
    monkeypatch.setattr(harmonic, "phi1", lambda model, r: f(r))
    e3 = parse_model_id("E3")
    rows = [
        (e3, [1.0, 2.0], 1.0),
        (e3, [1e-10, 1.0, 2.0, 3.0 - 1e-10], 1.0),
        (e3, [1e-11, 1.0], 1.0),
    ]
    with pytest.raises(NonConvergence) as exc:
        phi0_numeric_grids(rows)
    assert str(exc.value) == "integral over [1e-10, 1.0] is not finite: inf"


@pytest.mark.parametrize(
    "argv, work, digest",
    [
        (
            ["HP5", "0.15", "1.4", "25", "0.7854"],
            (0, 12, 4_645),
            "137964b24ded887ceba5bc8dd3b04c56d5b403316c9cd84dc15caed506b6680a",
        ),
        (
            ["hHP5", "0.3", "2.5", "25", "1.6"],
            (0, 12, 4_495),
            "989f2f73c34e68f3e7f993b07f9ec78867980812f47da525e170553d1bf08a71",
        ),
    ],
    ids=["HP5", "hHP5"],
)
def test_numeric_only_tables_bisect_without_restarting(capsys, monkeypatch, argv, work, digest):
    # deterministic work gate: the gaps of these tables that miss after
    # their first split bisect on in array passes, one gk15_panels pass per
    # split of each of the table's three grids, so no scalar integrate runs
    # and no density point of a first panel or split is evaluated twice
    # (6 integrate calls, 6 passes and 4,915 / 4,765 points when each such
    # gap restarted in integrate), with the same output bytes
    calls = passes = points = 0
    gk15_panels, theta = harmonic.gk15_panels, harmonic.theta

    def counting_integrate(f, iv, tol):
        nonlocal calls
        calls += 1
        return integrate(f, iv, tol=tol)

    def counting_gk15_panels(f, a, b):
        nonlocal passes
        passes += 1
        return gk15_panels(f, a, b)

    def counting_theta(model, r):
        nonlocal points
        points += np.size(r)
        return theta(model, r)

    monkeypatch.setattr(harmonic, "integrate", counting_integrate)
    monkeypatch.setattr(harmonic, "gk15_panels", counting_gk15_panels)
    monkeypatch.setattr(harmonic, "theta", counting_theta)
    assert main(["phi-table", *argv, "--numeric-only"]) == 0
    out = capsys.readouterr().out
    assert (calls, passes, points) == work
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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


def _batch_rows():
    """Rows for the batched quadrature: the table rows and three models
    without a closed form, each in four rows, with r_ref in the middle of
    the grid, at both ends and off it, and with unsorted radii that repeat;
    then gaps that bisect past their first split, and a row without gaps."""
    rows = []
    for mid in [*TABLE_IDS, "S9", "hS9", "CP5"]:
        model = parse_model_id(mid)
        grid = verification_grid(model)
        rows.append((model, grid, grid[len(grid) // 2]))
        rows.append((model, grid[::7], grid[0]))
        rows.append((model, grid[:9], grid[-1]))
        rows.append((model, [grid[3], grid[1], grid[3], grid[2], grid[1]], 0.5 * (grid[1] + grid[2])))
    hp5 = parse_model_id("HP5")
    rows.append((hp5, [0.15 + 1.25 * i / 24 for i in range(25)], 0.7854))  # 2 bisect past a split
    rows.append((parse_model_id("hOP2"), [1.0, 0.3], 0.3))  # misses after its split
    rows.append((parse_model_id("S3"), [1.0, 1.0], 1.0))  # no gap at all
    return rows


def test_phi0_numeric_grids_equal_the_one_row_calls_bit_for_bit():
    rows = _batch_rows()
    batch = phi0_numeric_grids(rows)
    singles = [phi0_numeric_grid(*row) for row in rows]
    assert [[v.hex() for v in values] for values in batch] == [
        [v.hex() for v in values] for values in singles
    ]
    assert phi0_numeric_grids([]) == []


def test_verify_table_entries_equal_the_one_row_calls():
    models = [parse_model_id(mid) for mid in TABLE_IDS]
    assert verify_table_entries(models) == [verify_table_entry(m) for m in models]


def test_phi0_numeric_grids_raise_domain_errors_before_any_density(monkeypatch):
    # the third row's first bad radius, in its rs order, before the fourth
    # row's error and before theta runs on any row
    calls = []
    density = harmonic.theta
    monkeypatch.setattr(harmonic, "theta", lambda model, r: calls.append(r) or density(model, r))
    rows = [
        (sphere(3), [0.5, 1.0], 0.7),
        (parse_model_id("hS4"), [0.5, 1.0], 2.0),
        (parse_model_id("CP2"), [0.5, 2.0, 1.7], 0.7),
        (sphere(3), [-1.0], 0.7),
    ]
    with pytest.raises(DomainViolation) as exc:
        phi0_numeric_grids(rows)
    assert str(exc.value) == f"r=2.0 outside the open domain (0, {math.pi / 2}) of CP2"
    assert calls == []


def test_phi0_numeric_grids_overflow_names_its_row():
    rows = [
        (sphere(3), [0.5, 1.0], 0.7),
        (parse_model_id("hOP2"), [100.0, 101.0], 100.0),
        (parse_model_id("hS3"), [0.5, 1.0], 0.7),
    ]
    with pytest.raises(OverflowError) as exc:
        phi0_numeric_grids(rows)
    assert str(exc.value) == "theta of hOP2 at r=100.5 overflows float64"


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
    # the first bad radius of rs, then r_ref; not the least one
    with pytest.raises(DomainViolation, match=r"^r=4\.0 outside"):
        phi0_numeric_grid(sphere(3), [0.5, 4.0, -1.0], -2.0)


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


@pytest.mark.parametrize(
    "mid,rs,bad,error",
    [
        # pi is outside S3's domain, and -0.5 comes after it in C order
        ("S3", [[1.0, 4.0], [-0.5, 1.0]], 4.0, DomainViolation),
        # sinh(800) and sinh(900) overflow, 800 first in C order
        ("hOP2", [[1.0, 800.0], [900.0, 2.0]], 800.0, OverflowError),
    ],
)
def test_array_density_raises_the_float_error_of_the_first_bad_radius(mid, rs, bad, error):
    model = parse_model_id(mid)
    for f in (theta, phi1):
        with pytest.raises(error) as want:
            f(model, bad)
        with pytest.raises(error) as got:
            f(model, np.array(rs))
        assert str(got.value) == str(want.value)


def test_array_phi1_raises_the_float_error_where_theta_reads_zero():
    # 0.3^999 and 0.2^999 underflow to 0.0, 0.3 first in C order; 2^999 is finite
    model = parse_model_id("E1000")
    with pytest.raises(OverflowError) as got:
        phi1(model, np.array([[2.0, 0.3], [0.2, 1.0]]))
    assert str(got.value) == "phi1 of E1000 at r=0.3 overflows float64: theta is 0.0"
    with pytest.raises(OverflowError, match=f"^{re.escape(str(got.value))}$"):
        phi1(model, 0.3)


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


#: Real dimension of the cut locus of a point, by id stem and projective
#: index k (Besse, 1978): the antipode on S^m, CP^(k-1) in CP^k, HP^(k-1)
#: in HP^k, and OP^1 = S^8 in the Cayley plane OP2.
CUT_LOCUS_DIMENSION = {
    "S": lambda k: 0,
    "CP": lambda k: 2 * (k - 1),
    "HP": lambda k: 4 * (k - 1),
    "OP": lambda k: 8,
}


@pytest.mark.parametrize("model", positive_curvature_catalogue(), ids=str)
def test_far_end_order_is_cut_locus_codimension_minus_one(model):
    # the geodesic spheres about the basepoint collapse onto the cut locus,
    # so theta vanishes there like (D - r)^(codim - 1)
    stem = model.model_id.rstrip("0123456789")
    codim = model.dimension - CUT_LOCUS_DIMENSION[stem](model.projective_index)
    prof = model.density
    end = prof.domain_end
    order = prof.sine_exponent if end == math.pi else prof.cosine_exponent
    assert order == codim - 1
    # the same order, measured on theta itself one and two decades from D
    slope = math.log10(theta(model, end - 1e-3) / theta(model, end - 1e-4))
    assert abs(slope - order) < 1e-3
    assert classify_boundary(model).at_far_end is BoundaryBehavior.DIVERGENT


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
    # theta reading 0.0 at one grid point makes 1/theta inf there: the ODE
    # check's one phi1 call on the grid raises, naming the model and radius
    model = parse_model_id("hS3")
    grid = verification_grid(model)

    def zero_at_one_point(model, r):
        values = theta(model, r)
        return np.where(r == grid[7], 0.0, values) if r.shape == (len(grid),) else values

    monkeypatch.setattr(harmonic, "theta", zero_at_one_point)
    with pytest.raises(OverflowError) as exc:
        verify_table_entry(model)
    assert str(exc.value) == f"phi1 of hS3 at r={grid[7]!r} overflows float64: theta is 0.0"
    monkeypatch.undo()

    def nan_on_the_grid(model, r):
        return np.full(r.shape, math.nan) if r.shape == (len(grid),) else phi1(model, r)

    monkeypatch.setattr(harmonic, "phi1", nan_on_the_grid)
    assert math.isnan(verify_table_entry(model).max_ode_residual)


def test_closed_form_catalogue_size():
    assert len(CLOSED_FORMS) == 22


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


def test_phi0_table_non_finite_residual_names_the_model_and_radius():
    # -coth r is finite at 900, but its array form is inf / inf there
    with pytest.raises(OverflowError, match=r"\bhS3 at r=900\.0 is not finite"):
        model = parse_model_id("hS3")
        phi0_table(model, [0.5, 900.0], 1.0, DEFAULT_TOL, closed_form(model))
