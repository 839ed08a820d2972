import math

import numpy as np
import pytest

from harmonicspaces import harmonic, numerics, quotients
from harmonicspaces.cli import main
from harmonicspaces.numerics import EPS
from harmonicspaces.spaces import euclidean, parse_model_id
from harmonicspaces.verify import (
    _radius_gaps,
    make_group,
    run_all,
    table_checks,
)
from quotient_helpers import FixedPointAntipodal


def test_check_table_row_pass():
    res = table_checks([parse_model_id("S3")])[0]
    assert res.status == "PASS"
    assert "ode_residual" in res.details


def test_check_table_row_fails_silent_disagreement(monkeypatch):
    # a corrupted row must FAIL, never WARN
    monkeypatch.setitem(harmonic.CLOSED_FORMS, "S3", lambda r, m=math: m.tan(r))
    res = table_checks([parse_model_id("S3")])[0]
    assert res.status == "FAIL"


def test_cli_verify_propagates_failure(monkeypatch, capsys):
    monkeypatch.setitem(harmonic.CLOSED_FORMS, "S3", lambda r, m=math: m.tan(r))
    code = main(["verify", "S3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL table S3" in out


def test_nan_residual_fails_the_row(monkeypatch):
    # max(x, nan) is x, so a NaN at r_ref must be kept by hand to fail the row
    model = parse_model_id("S3")
    grid = harmonic.verification_grid(model)
    r_ref = grid[len(grid) // 2]
    exact = harmonic.CLOSED_FORMS["S3"]
    monkeypatch.setitem(
        harmonic.CLOSED_FORMS,
        "S3",
        lambda r, m=math: np.where(r == r_ref, math.nan, exact(r, m)),
    )
    res = table_checks([model])[0]
    assert res.status == "FAIL"
    assert "match_residual=nan" in res.details


def test_nan_at_one_stencil_point_fails_the_row(monkeypatch):
    # the ODE check evaluates the form once on every stencil; r + h at one
    # grid point is NaN there, and the NaN must reach the residual
    model = parse_model_id("S3")
    r = harmonic.verification_grid(model)[10]
    sample = r + EPS ** (1.0 / 3.0) * max(1.0, r)
    exact = harmonic.CLOSED_FORMS["S3"]
    monkeypatch.setitem(
        harmonic.CLOSED_FORMS,
        "S3",
        lambda x, m=math: np.where(x == sample, math.nan, exact(x, m)),
    )
    res = table_checks([model])[0]
    assert res.status == "FAIL"
    assert "ode_residual=nan" in res.details
    assert "match_residual=nan" not in res.details


@pytest.mark.parametrize("mid", ["E150", "E342", "E580"])
def test_exact_flat_rows_pass_in_high_dimension(mid):
    [res] = run_all(scope=mid)
    assert res.status == "PASS", res.line()


def test_overflowing_difference_is_usage_error(capsys):
    # the closed form of E590 is exact and finite on the grid, but its
    # difference quotient at r = 0.3 overflows: a float64 limit, not a FAIL
    assert main(["verify", "E590"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert "E590" in captured.err and "overflows float64" in captured.err
    [res] = run_all(scope="E589")
    assert res.status == "PASS", res.line()


@pytest.mark.parametrize(
    "mid, message, array_calls",
    [
        # every sample is finite, the difference quotient is not: derivative's
        # own message, with the model of the batch row in front
        (
            "E590",
            "E590: derivative at r=0.30000000000000004 overflows float64 from finite samples: inf",
            1,
        ),
        # r^(2-m) itself overflows on the grid, before any derivative
        ("E600", "phi0 of E600 at r=0.30000000000000004 overflows float64", 0),
        ("E1000", "phi0 of E1000 at r=0.30000000000000004 overflows float64", 0),
    ],
    ids=["E590", "E600", "E1000"],
)
def test_flat_overflow_names_the_first_grid_point(capsys, monkeypatch, mid, message, array_calls):
    # the overflow is reported by the code that finds it, with no second
    # derivative pass over the grid one float at a time
    calls = {"array": 0, "float": 0}

    def counting_derivative(f, r, *args, **kwargs):
        calls["array" if isinstance(r, np.ndarray) else "float"] += 1
        return numerics.derivative(f, r, *args, **kwargs)

    monkeypatch.setattr(harmonic, "derivative", counting_derivative)
    assert main(["verify", mid]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == {"array": array_calls, "float": 0}


@pytest.mark.parametrize("seed", [3, 7, 42])
def test_batched_injectivity_gaps_equal_per_point_gaps(seed):
    def radius_gap(group, p):
        # one injectivity_radius call per basepoint, moved to 0 along the
        # group's translation axes
        brute = quotients.injectivity_radius(group, p).radius
        return abs(brute - quotients.injectivity_radius_closed(group, p))

    # the basepoints injectivity_checks draws for this seed
    torus_points = quotients.SeededStream(seed).uniform(-1.0, 1.0, (20, 2))
    klein_points = [(0.0, 0.05 * i) for i in range(41)]
    torus, klein = quotients.TorusGroup(), quotients.KleinGroup()
    assert _radius_gaps(torus, torus_points).max() == max(
        radius_gap(torus, p) for p in torus_points
    )
    assert _radius_gaps(klein, klein_points).tolist() == [
        radius_gap(klein, p) for p in klein_points
    ]


def test_verify_all_reports_a_failed_group_selfcheck(monkeypatch, capsys):
    # a group action that fixes points fails its self-check line and its
    # injectivity line, and the run exits 1 without an error message
    monkeypatch.setitem(quotients.GROUPS, "rp", FixedPointAntipodal)
    code = main(["verify", "all"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    lines = captured.out.splitlines()
    assert any(
        line.startswith("FAIL group rp: rp: sampled displacement 0.000e+00 at or below floor 0.1; ")
        for line in lines
    )
    assert any(line.startswith("FAIL injectivity rp: brute=0.0 ") for line in lines)
    assert lines[-1] == "# checked=63 fail=2 warn=1"


def test_run_all_scope_flat_model():
    results = run_all(scope="E7")
    assert len(results) == 1
    assert results[0].status == "PASS"


def test_run_all_bad_scope():
    from harmonicspaces.errors import UnsupportedModel

    with pytest.raises(UnsupportedModel):
        run_all(scope="torus")  # groups are not verify scopes


def test_table_checks_default_row_count():
    assert len(table_checks()) == 26


def test_make_group_and_basepoints():
    import numpy as np

    expected = {
        "torus": [0.0, 0.0],
        "klein": [0.0, 0.0],
        "rp": [1.0, 0.0, 0.0],
        "lens": [1.0, 0.0, 0.0, 0.0],
        "cpq": [1.0, 0.0, 0.0, 0.0],
    }
    for gid, coords in expected.items():
        group = make_group(gid)
        base = group.basepoint()
        assert np.array_equal(base, coords)
        assert np.iscomplexobj(base) == (group.ambient == "cproj")
        if group.ambient != "flat":
            assert len(base) == group.ambient_dim
    with pytest.raises(ValueError):
        make_group("mobius")


def test_verify_all_theta_calls_bounded(monkeypatch):
    # deterministic work gate on density points evaluated: one per float
    # theta call and the size of each array.  The boundary verdicts evaluate
    # no integrand, and each table row integrates each grid gap once, in
    # array passes through the first split, so no scalar GK15 panel is
    # summed, and no scalar integrate runs, since each sums at least one
    # (20,770 points; 20,950 when 12 gaps fell back to integrate, 62,440
    # with one integral per grid point)
    points = 0
    panels = 0
    theta = harmonic.theta
    gk15 = numerics._gk15

    def counting_theta(model, r):
        nonlocal points
        points += np.size(r)
        return theta(model, r)

    def counting_gk15(f, a, b):
        nonlocal panels
        panels += 1
        return gk15(f, a, b)

    monkeypatch.setattr(harmonic, "theta", counting_theta)
    monkeypatch.setattr(numerics, "_gk15", counting_gk15)
    run_all(seed=42)
    assert (points, panels) == (20_770, 0)


def test_verify_all_sums_every_table_row_in_two_gk15_passes(monkeypatch):
    # deterministic work gate on the batched quadrature: one gk15_panels
    # pass takes the first panels of the 1,274 gaps of all 26 table rows,
    # and one more the halves of every gap that needs them (32 passes when
    # each row ran its own), on the same density points and with no scalar
    # GK15 panel
    passes = points = panels = 0
    gk15_panels, theta, gk15 = harmonic.gk15_panels, harmonic.theta, numerics._gk15

    def counting_gk15_panels(f, a, b):
        nonlocal passes
        passes += 1
        return gk15_panels(f, a, b)

    def counting_theta(model, r):
        nonlocal points
        points += np.size(r)
        return theta(model, r)

    def counting_gk15(f, a, b):
        nonlocal panels
        panels += 1
        return gk15(f, a, b)

    monkeypatch.setattr(harmonic, "gk15_panels", counting_gk15_panels)
    monkeypatch.setattr(harmonic, "theta", counting_theta)
    monkeypatch.setattr(numerics, "_gk15", counting_gk15)
    run_all(seed=42)
    assert (passes, points, panels) == (2, 20_770, 0)


def test_check_result_line_format():
    res = table_checks([euclidean(2)])[0]
    assert res.line().startswith("PASS table E2: ")
