import argparse
import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicspaces.cli import build_parser, main
from harmonicspaces.harmonic import harmonicity_residual, phi0_numeric
from harmonicspaces.quotients import classify_grid, classify_points
from harmonicspaces.spaces import parse_model_id
from harmonicspaces.verify import make_group


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_table_s3(capsys):
    code, out, err = run_cli(capsys, "phi-table", "S3", "0.3", "1.5", "5", "0.7854")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "r,theta,phi1,phi0_closed,phi0_numeric_diff,laplacian_residual"
    rows = lines[2:]
    assert len(rows) == 5
    for row in rows:
        residual = float(row.split(",")[-1])
        assert residual < 1e-5


def test_phi_table_flat_log(capsys):
    code, out, _ = run_cli(capsys, "phi-table", "E2", "0.5", "2", "4", "1.0")
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 4
    for row in rows:
        cols = row.split(",")
        assert float(cols[3]) == pytest.approx(math.log(float(cols[0])), rel=1e-9)


def test_phi_table_no_closed_form_exit_2(capsys):
    code, _, err = run_cli(capsys, "phi-table", "S9", "0.3", "1.5", "5", "0.7854")
    assert code == 2
    assert "--numeric-only" in err


def test_phi_table_numeric_only(capsys):
    code, out, _ = run_cli(
        capsys, "phi-table", "S9", "0.3", "1.5", "3", "0.7854", "--numeric-only"
    )
    assert code == 0
    for row in out.strip().splitlines()[2:]:
        cols = row.split(",")
        assert cols[3] == ""  # empty phi0_closed column
        assert float(cols[-1]) < 1e-5


def test_phi_table_invalid_model(capsys):
    code, _, err = run_cli(capsys, "phi-table", "Q3", "0.3", "1.5", "5", "0.7854")
    assert code == 2


def test_phi_table_domain_check(capsys):
    code, out, err = run_cli(capsys, "phi-table", "CP2", "0.3", "2.0", "5", "0.7")
    assert code == 2  # r_max beyond pi/2
    assert (out, err) == ("", "error: r=2.0 outside the open domain (0, 1.5707963267948966) of CP2\n")


def test_phi_table_grid_must_increase(capsys):
    code, out, err = run_cli(capsys, "phi-table", "S3", "1.0", "0.5", "5", "0.7")
    assert code == 2
    assert (out, err) == ("", "error: r_min=1.0 must be below r_max=0.5\n")


def test_phi_table_deterministic(capsys, tmp_path):
    # an identical resolved config must reproduce the output byte for byte
    path = tmp_path / "table.csv"
    argv = ["phi-table", "S3", "0.3", "1.5", "5", "0.7854", "--out", str(path)]
    assert main(list(argv)) == 0
    first = path.read_bytes()
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert path.read_bytes() == first


def test_quotient_deterministic(capsys, tmp_path):
    path = tmp_path / "klein.csv"
    argv = ["quotient", "klein", "0,0.25", "--resolution", "30", "--out", str(path)]
    assert main(list(argv)) == 0
    first = path.read_bytes()
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert path.read_bytes() == first


def test_verify_single_model(capsys):
    code, out, _ = run_cli(capsys, "verify", "S3")
    assert code == 0
    assert "PASS table S3" in out
    assert "PASS boundary S3" in out


def test_verify_unknown_scope(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2


def test_quotient_klein_iota(capsys):
    code, out, _ = run_cli(
        capsys, "quotient", "klein", "0,0.25", "--resolution", "40"
    )
    assert code == 0
    iota_line = out.splitlines()[1]
    assert "iota=0.559016994" in iota_line
    assert "class" in out.splitlines()[2]
    classes = {row.split(",")[2] for row in out.strip().splitlines()[3:]}
    assert classes <= {"interior", "boundary", "exterior"}
    assert {"interior", "boundary", "exterior"} <= classes


def test_quotient_torus_svg(capsys, tmp_path):
    svg_path = tmp_path / "torus.svg"
    code, out, _ = run_cli(
        capsys,
        "quotient", "torus", "0,0", "--resolution", "60", "--svg", str(svg_path),
    )
    assert code == 0
    svg = svg_path.read_text()
    assert svg.startswith("<?xml")
    assert "<metadata>" in svg and "config" in svg
    assert "iota=0.5" in out.splitlines()[1]


def test_quotient_lens_and_cpq(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "quotient", "lens")
    assert code == 0
    assert "iota=0.785398163" in out
    svg_path = tmp_path / "cpq.svg"
    code, out, _ = run_cli(capsys, "quotient", "cpq", "--svg", str(svg_path))
    assert code == 0
    assert "iota=0.785398163" in out
    assert svg_path.exists()


def test_quotient_rp(capsys):
    code, out, _ = run_cli(capsys, "quotient", "rp", "1,0,0")
    assert code == 0
    assert "iota=1.570796326" in out


def test_quotient_groups_sized_from_basepoint(capsys):
    # higher-dimensional spheres and lens spaces via longer basepoints
    code, out, _ = run_cli(capsys, "quotient", "rp", "0,0,0,0,1")
    assert code == 0 and "iota=1.570796326" in out
    code, out, _ = run_cli(capsys, "quotient", "lens", "1,0,0,0,0,0")
    assert code == 0 and "iota=0.785398163" in out
    code, _, _ = run_cli(capsys, "quotient", "rp", "1,0")
    assert code == 2


def test_quotient_bad_group(capsys):
    code, _, err = run_cli(capsys, "quotient", "mystery")
    assert code == 2


def test_quotient_bad_basepoint(capsys):
    code, _, err = run_cli(capsys, "quotient", "torus", "1,2,3")
    assert code == 2


@pytest.mark.parametrize(
    "argv, expected, message",
    [
        (["torus", "inf,0"], 2, "non-finite"),
        (["torus", "1e300,0"], 2, "too far out"),
        (["torus", "nan,0"], 2, "non-finite"),
        (["torus", "0,0", "--resolution", "0"], 2, "resolution must be >= 1"),
        (["torus", "0,0", "--resolution", "-3"], 2, "resolution must be >= 1"),
        (["rp", "inf,0,0"], 2, "non-finite"),
        (["cpq", "nan,0,0,0"], 2, "non-finite"),
        (["lens", "1e300,1e300,0,0"], 0, ""),
        (["rp", "x"], 2, "not comma-separated reals"),
        (["rp", "inf,0"], 2, "non-finite"),
        (["lens", "1,0,0"], 2, "give 2k+2 reals"),
        (["cpq", "1,0,0,0,0,0,0,0"], 0, ""),
        # refused before any grid is built: numpy would refuse 10^14 cells
        (["torus", "0,0", "--resolution", "10000000"], 2, "resolution must be <= 2000"),
    ],
)
def test_quotient_rejects_bad_input_cleanly(capsys, argv, expected, message):
    # an overflow warning on the way to an answer counts as a failure too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "quotient", *argv)
    assert code == expected
    if expected == 2:
        assert err.startswith("error: ") and message in err
    else:
        assert "iota=0.785398163" in out


@pytest.mark.parametrize(
    "argv", [["torus", "0,0"], ["klein", "--", "-0.6,0.35"], ["torus", "--", "3.7,-2.2"]]
)
@pytest.mark.parametrize("resolution", [1, 7, 40])
def test_quotient_csv_rows_follow_grid_points(capsys, argv, resolution):
    # reference: one row per grid point, each coordinate formatted on its own
    # and the region taken from classify_points
    group = make_group(argv[0])
    base = np.array([float(v) for v in argv[-1].split(",")])
    grid = classify_grid(group, base, resolution)
    regions = classify_points(group, base, grid.points, tol=2.0 * grid.spacing)
    if resolution == 40:
        # some raster row holds all three regions
        per_row = regions.reshape(resolution, resolution)
        assert any(len(set(row)) == 3 for row in per_row)
    for p in (17, 6):
        code, out, _ = run_cli(
            capsys, "quotient", "--resolution", str(resolution), "--precision", str(p), *argv
        )
        assert code == 0
        expected = [f"{x:.{p}g},{y:.{p}g},{r.value}" for (x, y), r in zip(grid.points, regions)]
        assert out.splitlines()[3:] == expected


@settings(max_examples=150, deadline=None)
@given(
    r=st.integers(-2, 6),
    group=st.sampled_from(["torus", "klein"]),
    x=st.floats(allow_nan=True, allow_infinity=True),
    y=st.floats(allow_nan=True, allow_infinity=True),
)
def test_quotient_fuzz_exit_codes(r, group, x, y):
    argv = ["quotient", "--resolution", str(r), group, "--", f"{x!r},{y!r}"]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        assert main(argv) in (0, 2)


@pytest.mark.parametrize(
    "argv, csv_sha, svg_sha",
    [
        (
            ["torus", "--", "-0.6,0.35"],
            "cdba9a12381f04bba997aa3c7252fd10f30cb5f1d6f9184517d8dffd4c69ba4d",
            "9d7ab3848a487cd0db72977d25f6e434de3ec7c1461cc99ee11793aba1a3c5ce",
        ),
        (
            ["klein", "--", "0,1"],
            "b11ec1c04208d5d70f09dc7969dd320e131fd012556b9b3c83f47853a42f7c8e",
            "f4c859192c27aa89b711638ea9183b2fdaad0ed8f5393dcb4a17f2ef5464ed0a",
        ),
        (
            ["--precision", "17", "klein", "--", "-0.6,0.35"],
            "b9222bee5579b491da6500c963638bb58976569e1de3a028009d771d6d16ae73",
            "5a8ae90a2de8b088c5ec09cc24f91ab8e9f9944d02c12b58747f90ecb23374a8",
        ),
    ],
    ids=["torus", "klein", "klein-p17"],
)
def test_quotient_outputs_pinned(capsys, tmp_path, monkeypatch, argv, csv_sha, svg_sha):
    # digests of the outputs of the earlier depth-bounded orbit search, with
    # the never-used --seed and --tol since deleted from the config line: they
    # guard byte reproducibility across versions, not just within one build
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "quotient", "--resolution", "40", "--svg", "fig.svg", *argv
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == csv_sha
    assert hashlib.sha256((tmp_path / "fig.svg").read_bytes()).hexdigest() == svg_sha


@pytest.mark.parametrize(
    "argv, csv_sha, svg_sha",
    [
        (
            ["torus", "0,0"],
            "4bf2b933152f3735de3cad36fd0283a6efa89553a9c673745c67ab5815c9240d",
            "7b062446895be083df867fe53c139251180027d4af63e4ad24212eaf94075c50",
        ),
        (
            ["klein", "--", "-0.6,0.35"],
            "3b32ca423605ed7a5dc40775e09460539ffbc9dbb9e8a86b8a8787ee16a23e33",
            "ef2036cb492367139137cfbf5db0eebb61325b339b02162d746ead77733189cf",
        ),
    ],
    ids=["torus", "klein"],
)
def test_quotient_outputs_pinned_at_resolution_400(
    capsys, tmp_path, monkeypatch, argv, csv_sha, svg_sha
):
    # the raster size of the figures: 160k CSV rows, many per raster row
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "quotient", "--resolution", "400", "--svg", "fig.svg", *argv
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == csv_sha
    assert hashlib.sha256((tmp_path / "fig.svg").read_bytes()).hexdigest() == svg_sha


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["phi-table", "S3", "0.3", "1.5", "5", "0.7854"],
            "75c445a06dec28698e3c3b19fd380a0759a31f13edc8a165192de8cc610ba7b8",
        ),
        (
            ["phi-table", "hHP3", "0.3", "2.5", "5", "1.0"],
            "5b83e8a4184b7ea532dc7230e84f41d2d940fbf5e5222259b59f3b306ddd6c6c",
        ),
        (
            ["phi-table", "OP2", "0.2", "1.3", "5", "0.7"],
            "a836b82a9db8b49e5ae581f4aaa93cf78c881e066bc8dbc5d2c1a38300d36032",
        ),
        (
            ["phi-table", "E4", "0.5", "2", "4", "1.0"],
            "c84deebf905352d2301d46ef5c858090a247dbcfb5f985a79435ea27cf85a3d7",
        ),
        (
            ["phi-table", "S9", "0.3", "1.5", "4", "0.7854", "--numeric-only"],
            "b4363c0a73897f051222cafd2c359e1e945b66ad543106263ba9d0ad712a3c00",
        ),
        (["verify", "S3"], "766552a0aa5824e080cb0be2ec60a92d9948b3fc4e8e2b27b456ceac00cc9274"),
        (["verify", "hHP3"], "f6939f62409a6ac5f4274423a62428e1b9b7e736186ddd8e7086c783275b080f"),
        (
            ["verify", "all", "--seed", "42"],
            "14b1eadbf870eb414668494c2fade7a5b25f2a10e46acaee0d5ddeab50c35ac4",
        ),
        (
            ["verify", "all", "--seed", "7"],
            "69878f39f76f614a0bc1ec5ceee1c11f740f86d71a6c77cb0a5b9f7e01c4131e",
        ),
        (
            ["bounds", "hCP2", "--orientable", "false"],
            "0392720c1f9847f133e962a2b35fab8415aed7684a3edfa288772ee8119b51c3",
        ),
        (["bounds", "hHP3"], "ec58baf9782550b54e473817fe04ad1015c602a6631807adb0b9679113d4a1c3"),
        (["bounds", "hOP2"], "7be3d7cfbdd0ed9552c4275ad058a9a0fb4018e693c4d2a2b0c680b71f864ed1"),
        (["bounds", "hS2"], "8409768646e97b99bc520b80c00c2db422471406d79db8ce449eb24702252e6d"),
        (["bounds", "hS4"], "b767a0bd8aa7ac13bd9311857f482bae27199e832276ce212defdad9595ff5af"),
        (["bounds", "hS6"], "442ff5fcbe39967fd375ea2d2b27e4b5e59de75c5c18cd9c08da2bc554ba94a4"),
        (["bounds", "hS8"], "f75213b02e26f150263a3d90897d5438086ecf08f187e4234b0547b99d4244ff"),
        (["bounds", "hCP1"], "8314c57bf91f9f49e44ad2e1ee5f37b0bcee0f315ad7794fcb59fe85e7d66365"),
        (["bounds", "hCP3"], "cc1b5fe3d2a60b5960002674bd639eb6538bdc9f62d67b19c7d56f55283b620f"),
        (["bounds", "hCP4"], "8ef12d485cb83bb966a57a9d7259cb6bf97fd29635312ede4116741c164d25ba"),
        (["bounds", "hHP2"], "af2656cbb3723646e7e60f800afe169459bc1a53edd9aa3cd8d93262a46ca81b"),
        (["bounds", "hHP4"], "085a27b2d987054cc04abc6dbb9a84376eb44020350e17bb7818762da6ea2d7a"),
    ],
    ids=[
        "phi-S3", "phi-hHP3", "phi-OP2", "phi-E4", "phi-S9", "verify-S3", "verify-hHP3",
        "verify-all-42", "verify-all-7",
        "bounds-hCP2-nonorientable", "bounds-hHP3", "bounds-hOP2",
        "bounds-hS2", "bounds-hS4", "bounds-hS6", "bounds-hS8", "bounds-hCP1",
        "bounds-hCP3", "bounds-hCP4", "bounds-hHP2", "bounds-hHP4",
    ],
)
def test_phi_table_and_verify_outputs_pinned(capsys, argv, digest):
    # digests of the outputs before the radial-function wrappers were
    # removed, with the never-used config keys since deleted (phi-table
    # --seed; verify --tol and --precision; model-scope verify --seed), and of
    # bounds before its two partial builders were merged, and of verify all
    # before the group checks became array checks: they guard byte
    # reproducibility across versions.  The bounds digests were re-captured
    # when the open-endpoint march was deleted: only dual_volume, gb_bound
    # and sig_bound moved, to the textbook volumes within 2 ulps.  The other
    # nine bounds ids were pinned before the model catalogue became one table.
    # The four verify digests were re-captured when the ODE check moved to
    # the Richardson kernel: only the ode_residual values moved, each lower;
    # and again when the match check began to integrate each grid gap once
    # and sum outward from r_ref: only match_residual values moved.  The
    # hHP3 and verify-all digests were re-captured again when the first
    # panels of all grid gaps became one numpy evaluation: only the
    # match_residual values of HP3, OP2, hCP3, hCP4, hHP3 and E4 moved; and
    # again when both checks became one numpy evaluation of the closed form
    # per row: only the residuals of HP3, HP4, the eleven hyperbolic rows and
    # E5 moved, where numpy's elementary functions round apart from libm's
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-10", "abc"])
@pytest.mark.parametrize(
    "argv",
    [
        ["phi-table", "S3", "0.3", "1.5", "3", "0.7854"],
        ["verify", "S3"],
        ["quotient", "lens"],
        ["bounds", "hS4"],
    ],
)
def test_tol_must_be_positive_and_finite(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    if argv[0] == "phi-table":
        assert "error: argument --tol: must be a positive finite number" in captured.err
    else:
        # no other subcommand integrates, so none takes --tol at any value
        assert f"error: unrecognized arguments: --tol={tol}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "S3", "--tol", "1e-3"],
        ["verify", "S3", "--precision", "6"],
        ["quotient", "klein", "0,0.25", "--seed", "9"],
        ["quotient", "klein", "0,0.25", "--tol", "1e-2"],
        ["bounds", "hOP2", "--seed", "7"],
        ["bounds", "hOP2", "--tol", "1e-3"],
        ["bounds", "hOP2", "--precision", "6"],
    ],
)
def test_unused_options_are_usage_errors(capsys, argv):
    # an option a subcommand would ignore is refused, not echoed as if used
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


def _option_dests(command: str) -> set[str]:
    subs = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {a.dest for a in subs.choices[command]._actions if a.dest != "help"}


def _config_of(line: str) -> dict:
    assert line.startswith("# config ")
    return json.loads(line[len("# config "):])


def test_config_echoes_exactly_the_accepted_options(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    configs = {}
    _, out, _ = run_cli(capsys, "phi-table", "S3", "0.3", "1.5", "2", "0.7854")
    configs["phi-table"] = _config_of(out.splitlines()[0])
    _, out, _ = run_cli(capsys, "verify", "S3")
    configs["verify"] = _config_of(out.splitlines()[0])
    for group in ("torus", "lens"):
        _, out, _ = run_cli(capsys, "quotient", group, "--resolution", "4", "--svg")
        configs[f"quotient {group}"] = _config_of(out.splitlines()[0])
        svg = (tmp_path / f"quotient_{group}.svg").read_text()
        assert f"<metadata>{out.splitlines()[0]}</metadata>" in svg
    _, out, _ = run_cli(capsys, "bounds", "hS4")
    configs["bounds"] = json.loads(out)["config"]
    # only 'verify all' samples, so a model scope neither takes nor echoes
    # --seed; only the flat groups draw a raster, so lens echoes no resolution
    scope_unused = {"verify": {"seed"}, "quotient lens": {"resolution"}}
    for scope, config in configs.items():
        command = scope.split()[0]
        assert config["command"] == command
        expected = _option_dests(command) - scope_unused.get(scope, set())
        assert set(config) == expected | {"command"}, scope
    assert configs["bounds"]["orientable"] is True
    assert configs["quotient torus"]["resolution"] == 4


def test_verify_all_echoes_its_seed(capsys, monkeypatch):
    seeds = []
    monkeypatch.setattr(
        "harmonicspaces.cli.verify_mod.run_all",
        lambda scope, seed: seeds.append((scope, seed)) or [],
    )
    for argv, seed in ((["verify"], 42), (["verify", "all", "--seed", "7"], 7)):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert _config_of(out.splitlines()[0]) == {
            "command": "verify", "out": None, "scope": "all", "seed": seed,
        }
    assert seeds == [("all", 42), ("all", 7)]


@pytest.mark.parametrize("argv", [["S3", "--seed", "7"], ["--seed", "42", "hHP3"]])
def test_model_scope_verify_rejects_seed(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --seed applies only to 'verify all'")
    assert len(err.splitlines()) == 1


def test_parser_is_built_once_and_keeps_no_parse_state(capsys):
    assert build_parser() is build_parser()
    runs = [
        ["verify", "S3", "--seed", "1"],
        ["verify", "all"],
        ["phi-table", "S3", "0.3", "1.5", "5", "0.7854"],
    ]
    first = [run_cli(capsys, *argv) for argv in runs]
    assert [code for code, _, _ in first] == [2, 0, 0]
    assert [run_cli(capsys, *argv) for argv in runs] == first
    # --seed has no default, so a seed parsed before leaves none behind
    assert build_parser().parse_args(["verify", "all", "--seed", "7"]).seed == 7
    code, out, _ = run_cli(capsys, "verify", "S3")
    assert code == 0
    assert "seed" not in _config_of(out.splitlines()[0])


@pytest.mark.parametrize("n", [100_001, 10**11])
def test_phi_table_point_count_is_capped(capsys, n):
    # the grid is built before any row is written, so a huge n would
    # exhaust memory; n beyond the fixed cap is a usage error
    code, out, err = run_cli(capsys, "phi-table", "S3", "0.3", "1.5", str(n), "0.7854")
    assert code == 2
    assert out == ""
    assert err == f"error: n must be in 1..100000, got {n}\n"


def test_phi_table_numeric_residual_uses_tol(capsys):
    model = parse_model_id("S9")
    code, out, _ = run_cli(
        capsys, "phi-table", "S9", "0.3", "1.5", "4", "0.7854",
        "--numeric-only", "--tol", "1e-4",
    )
    assert code == 0
    column = [row.split(",")[-1] for row in out.strip().splitlines()[2:]]
    phi0 = lambda r: phi0_numeric(model, r, 0.7854, tol=1e-4)
    grid = [0.3 + (1.5 - 0.3) * i / 3 for i in range(4)]
    assert column == [f"{harmonicity_residual(model, phi0, r):.3e}" for r in grid]


@pytest.mark.parametrize(
    "argv",
    [
        ["E9", "0.5", "1e300", "2", "1.0"],
        ["hS3", "0.5", "900", "2", "1.0"],
        ["hS9", "0.5", "900", "2", "1.0", "--numeric-only"],
        # sinh^5 cosh of hCP3 leaves float64 past r = 140 without a raising power
        ["hCP3", "100", "141.5", "3", "120"],
    ],
)
def test_phi_table_overflow_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "phi-table", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "overflow float64" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("model_id", ["S9", "S3", "E3"])
def test_phi_table_reference_at_the_pole_is_overflow_usage_error(capsys, model_id):
    # r_ref = 1e-300 puts the quadrature next to the pole of phi1, where
    # theta leaves float64: phi1 overflows there, never adds an inf to the sum
    code, out, err = run_cli(
        capsys, "phi-table", model_id, "0.3", "1.5", "2", "1e-300", "--numeric-only"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "overflow float64" in err
    assert "Traceback" not in err


_FUZZ_REAL = st.one_of(
    st.floats(-1.0, 1000.0),
    st.sampled_from(["nan", "inf", "-inf", "0", "1e-300", "1e300", "x"]),
)
_FUZZ_IDS = ["S3", "S9", "CP1", "CP2", "HP5", "OP2", "hS3", "hS9", "hHP3", "hOP2",
             "E2", "E9", "Q3", "hE2", "all"]


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["phi-table", "verify", "bounds"]),
    mid=st.sampled_from(_FUZZ_IDS),
    reals=st.lists(_FUZZ_REAL, min_size=3, max_size=3),
    n=st.integers(1, 5),
    numeric_only=st.booleans(),
    tol=_FUZZ_REAL,
    orientable=st.sampled_from(["true", "false", "maybe"]),
)
def test_phi_table_verify_bounds_fuzz_exit_codes(
    command, mid, reals, n, numeric_only, tol, orientable
):
    if command == "phi-table":
        r_min, r_max, r_ref = (str(v) for v in reals)
        argv = ["phi-table", mid, r_min, r_max, str(n), r_ref, "--tol", str(tol)]
        if numeric_only:
            argv.append("--numeric-only")
    elif command == "verify":
        # 'verify all' takes seconds; the single-model scopes exercise the same code
        argv = ["verify", "S4" if mid == "all" else mid]
    else:
        argv = ["bounds", mid, "--orientable", orientable]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


_STEMS = ["S", "CP", "HP", "OP", "E", "hS", "hCP", "hHP", "hOP"]
_ID_COMMANDS = {
    "bounds": lambda mid: ["bounds", mid],
    "verify": lambda mid: ["verify", mid],
    "phi-table": lambda mid: ["phi-table", mid, "0.2", "1.0", "3", "0.5", "--numeric-only"],
}


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(sorted(_ID_COMMANDS)),
    stem=st.sampled_from(_STEMS),
    number=st.one_of(st.integers(0, 10**6), st.just(10**20)),
)
def test_model_id_dimensions_exit_cleanly(command, stem, number):
    # large dimensions leave float64 (theta underflows, Gamma and powers
    # overflow); that is bad input, never a traceback or a wrong number
    argv = _ID_COMMANDS[command](f"{stem}{number}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1 and err.getvalue() == "":
        # a failed check reports its verdicts on stdout
        assert command == "verify" and "FAIL" in out.getvalue(), argv
    elif code != 0:
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
        assert err.getvalue().startswith("error: "), argv
    if command == "bounds" and code == 0:
        assert json.loads(out.getvalue())["dual_volume"] > 0.0, argv


@pytest.mark.parametrize(
    "argv",
    [["bounds", "hS344"], ["bounds", "hCP172"], ["bounds", "hHP86"], ["bounds", "hS2000"],
     ["verify", "E1000"], ["phi-table", "S500", "0.2", "1.0", "3", "0.5", "--numeric-only"],
     ["phi-table", "S445", "0.2", "1.0", "3", "0.5", "--numeric-only"]],
)
def test_float64_edges_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_bounds_hcp2(capsys):
    code, out, _ = run_cli(capsys, "bounds", "hCP2", "--orientable", "true")
    assert code == 0
    payload = json.loads(out)
    assert payload["dual"] == "CP2"
    assert payload["gb_bound"] == pytest.approx(payload["dual_volume"] / 3.0)
    assert payload["sig_bound"] == pytest.approx(payload["dual_volume"])
    assert "seed" not in payload["config"]


def test_bounds_hs4_no_signature(capsys):
    code, out, _ = run_cli(capsys, "bounds", "hS4")
    assert code == 0
    payload = json.loads(out)
    assert payload["gb_bound"] == pytest.approx(payload["dual_volume"] / 2.0)
    assert payload["sig_bound"] is None


def test_bounds_wrong_sign_exit_2(capsys):
    code, _, err = run_cli(capsys, "bounds", "CP2")
    assert code == 2


def test_bounds_non_orientable(capsys):
    code, out, _ = run_cli(capsys, "bounds", "hOP2", "--orientable", "false")
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon"] == 0.5
    assert payload["sig_bound"] == pytest.approx(0.5 * payload["dual_volume"])
    assert any("bound_statement_discrepancy" in n for n in payload["notes"])


def test_bounds_deterministic(capsys, tmp_path):
    path = tmp_path / "bounds.json"
    argv = ["bounds", "hOP2", "--orientable", "false", "--out", str(path)]
    assert main(list(argv)) == 0
    first = path.read_bytes()
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert path.read_bytes() == first


def test_precision_flag_validated(capsys):
    for value in ("30", "5", "18", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["phi-table", "S3", "0.3", "1.5", "3", "0.7854", "--precision", value])
        assert exc.value.code == 2
        assert "argument --precision: must be an integer in 6..17" in capsys.readouterr().err


def test_cli_import_leaves_out_urllib():
    # a fresh interpreter: svgfig escapes text itself instead of importing
    # xml.sax.saxutils, which pulls in urllib.request
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, harmonicspaces.cli; print('urllib.request' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_scalar_radial_path_leaves_out_numpy():
    # a fresh interpreter: one phi0 integral, one volume and phi-table's
    # closed-form columns (phi0_closed and the residual of its two
    # derivatives) load no numpy, which only the array paths import, inside
    # the functions that use it
    code = (
        "import sys\n"
        "from harmonicspaces.harmonic import harmonicity_residual, phi0_closed, phi0_numeric\n"
        "from harmonicspaces.spaces import euclidean, model_volume, sphere\n"
        "phi0_numeric(sphere(3), 1.2, 0.6)\n"
        "model_volume(sphere(3))\n"
        "for model in (sphere(3), euclidean(2), euclidean(5)):\n"
        "    phi0_closed(model, 1.2)\n"
        "    harmonicity_residual(model, lambda r: phi0_closed(model, r), 1.2)\n"
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_all_raises_no_runtime_warning():
    # pytest's filterwarnings setting does not reach a CLI subprocess: the
    # array checks must run clean where every RuntimeWarning is an error
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "harmonicspaces", "verify", "all"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "# checked=63 fail=0 warn=1"


@pytest.mark.parametrize("text", ["plain", "a & b", "<tag>", "&lt; stays escaped", "x<&>y\"'"])
def test_svg_escape_matches_saxutils(text):
    from xml.sax.saxutils import escape as sax_escape

    from harmonicspaces.svgfig import escape

    assert escape(text) == sax_escape(text)


@pytest.mark.parametrize("centre", [(0.0, 0.0), (-0.6, 0.35), (1000.3, -7.0), (-3e12, 4e12)])
def test_svg_dots_draw_what_a_loop_of_dot_draws(centre):
    from harmonicspaces.svgfig import SvgFigure

    rng = np.random.default_rng(5)
    cx, cy = centre
    ranges = dict(x_range=(cx - 1.5, cx + 1.5), y_range=(cy - 1.5, cy + 1.5))
    # inside the window, outside it, far off and on it
    points = np.vstack((
        np.array(centre) + rng.uniform(-1.5, 1.5, size=(300, 2)),
        np.array(centre) + rng.uniform(-1e3, 1e3, size=(50, 2)),
        [(-1e300, 1e300), (cx - 1.5, cy + 1.5), (-0.0, 0.0)],
    ))
    for pts in (points, points[:0]):
        batched, looped = SvgFigure(**ranges), SvgFigure(**ranges)
        batched.dots(pts, radius=1.0, color="#1f3b70")
        for pt in pts:
            looped.dot(pt, radius=1.0, color="#1f3b70")
        assert batched._body == looped._body
        assert len(batched._body) == len(pts)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "harmonicspaces", "bounds", "hS4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dual"] == "S4"
