import math

import numpy as np
import pytest

from harmonicspaces import harmonic, quotients
from harmonicspaces.cli import main
from harmonicspaces.numerics import EPS
from harmonicspaces.spaces import euclidean, parse_model_id
from harmonicspaces.verify import (
    _radius_gaps,
    check_table_row,
    make_group,
    run_all,
    table_checks,
)

def test_check_table_row_pass():
    res = check_table_row(parse_model_id("S3"))
    assert res.status == "PASS"
    assert "ode_residual" in res.details


def test_check_table_row_fails_silent_disagreement(monkeypatch):
    # a corrupted row must FAIL, never WARN
    monkeypatch.setitem(harmonic.CLOSED_FORMS, "S3", lambda r, m=math: m.tan(r))
    res = check_table_row(parse_model_id("S3"))
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
    res = check_table_row(model)
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
    res = check_table_row(model)
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


@pytest.mark.parametrize("mid", ["E590", "E600", "E1000"])
def test_flat_overflow_names_the_first_grid_point(capsys, mid):
    # the array pass overflows (E590 in the difference, E600 and E1000 in
    # r^(2-m) itself); the grid is then taken one point at a time, so the
    # message names the model and the first grid point, as it always has
    assert main(["verify", mid]) == 2
    assert capsys.readouterr().err == (
        f"error: derivative of phi0 of {mid} at r=0.30000000000000004 overflows float64\n"
    )


@pytest.mark.parametrize("seed", [3, 7, 42])
def test_batched_injectivity_gaps_equal_per_point_gaps(seed):
    def radius_gap(group, p):
        # one injectivity_radius call per basepoint, moved to 0 along the
        # group's translation axes
        brute = quotients.injectivity_radius(group, p).radius
        return abs(brute - quotients.injectivity_radius_closed(group, p).radius)

    rng = np.random.default_rng(seed)
    torus_points = rng.uniform(-1.0, 1.0, size=(20, 2))
    klein_points = [(0.0, 0.05 * i) for i in range(41)]
    torus, klein = quotients.TorusGroup(), quotients.KleinGroup()
    assert _radius_gaps(torus, torus_points).max() == max(
        radius_gap(torus, p) for p in torus_points
    )
    assert _radius_gaps(klein, klein_points).tolist() == [
        radius_gap(klein, p) for p in klein_points
    ]


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
    # deterministic work gate on density points evaluated: one per scalar
    # theta call plus the size of each array-density call.  The boundary
    # verdicts evaluate no integrand, and each table row integrates each
    # grid gap once (20,950 points; one integral per grid point made
    # 62,440 theta calls, a budget probe 272,980)
    scalar = array = 0
    theta, theta_array = harmonic.theta, harmonic.theta_array

    def counting_theta(model, r):
        nonlocal scalar
        scalar += 1
        return theta(model, r)

    def counting_theta_array(model, r):
        nonlocal array
        array += r.size
        return theta_array(model, r)

    monkeypatch.setattr(harmonic, "theta", counting_theta)
    monkeypatch.setattr(harmonic, "theta_array", counting_theta_array)
    run_all(seed=42)
    assert array > 0
    assert scalar + array < 25_000


def test_check_result_line_format():
    res = check_table_row(euclidean(2))
    assert res.line().startswith("PASS table E2: ")
