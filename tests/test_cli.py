import argparse
import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicspaces import cli, harmonic, quotients, spaces
from harmonicspaces.cli import build_parser, main
from harmonicspaces.errors import SelfCheckFailed, UsageError
from harmonicspaces.quotients import classify_grid, classify_points
from harmonicspaces.spaces import parse_model_id
from harmonicspaces.svgfig import SIZE
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


def test_phi_table_numeric_only_on_a_closed_form_model(capsys):
    # --numeric-only drops the closed form from both columns that read it
    code, out, _ = run_cli(
        capsys, "phi-table", "S3", "0.3", "1.5", "4", "0.7854", "--numeric-only"
    )
    assert code == 0
    rows = [row.split(",") for row in out.strip().splitlines()[2:]]
    assert [cols[3] for cols in rows] == [""] * 4
    grid = [0.3 + (1.5 - 0.3) * i / 3 for i in range(4)]
    _, residuals = harmonic.phi0_table(parse_model_id("S3"), grid, 0.7854, 1e-10, None)
    assert [cols[-1] for cols in rows] == [f"{residual:.3e}" for residual in residuals]


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


@pytest.mark.parametrize(
    "argv, radius",
    [
        (["rp"], math.pi / 2),
        (["rp", "0,3,4,0"], math.pi / 2),
        (["lens"], math.pi / 4),
        (["cpq"], math.pi / 4),
    ],
    ids=["rp", "rp-4", "lens", "cpq"],
)
def test_curved_schematic_draws_the_reported_radius(capsys, tmp_path, argv, radius):
    # the cap's arc runs from -iota to iota about the pole, read back from
    # the polyline's end points in the slice's coordinates
    svg_path = tmp_path / "fig.svg"
    code, out, _ = run_cli(capsys, "quotient", *argv, "--svg", str(svg_path))
    assert code == 0 and f"iota={radius:.12g} " in out
    points = re.search(r'<polyline points="([^"]*)"', svg_path.read_text()).group(1).split()
    ends = []
    for point in (points[0], points[-1]):
        sx, sy = (float(v) / SIZE for v in point.split(","))
        # SVG units back to the slice, whose range is (-1.3, 1.3) on each axis
        ends.append(math.atan2(2.6 * sx - 1.3, 1.3 - 2.6 * sy))
    assert ends == pytest.approx([-radius, radius], abs=1e-3)


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
    "argv, same_as",
    [
        (["torus", "--resolution", "4", "0,0"], ["torus", "0,0", "--resolution", "4"]),
        (["torus", "--resolution", "4", "--", "-0.5,0"], ["--resolution", "4", "torus", "--", "-0.5,0"]),
        (["torus", "-0.5,0", "--resolution", "4"], ["--resolution", "4", "torus", "--", "-0.5,0"]),
    ],
)
def test_quotient_basepoint_after_an_option_or_starting_with_a_dash(capsys, argv, same_as):
    # argparse binds the optional basepoint together with the group, so
    # main takes the one token left over as the basepoint
    got = run_cli(capsys, "quotient", *argv)
    assert got[0] == 0
    assert got == run_cli(capsys, "quotient", *same_as)


@pytest.mark.parametrize(
    "argv",
    [
        ["quotient", "torus", "0,0", "1,1"],
        ["quotient", "torus", "--resolution", "4", "0,0", "1,1"],
        ["quotient", "torus", "--resolution", "4", "--bogus"],
    ],
)
def test_quotient_leftover_tokens_stay_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_closed_stdout_ends_quietly_with_sigpipe_status():
    # the reader goes away after one line of a 160,000-row raster
    proc = subprocess.Popen(
        [sys.executable, "-m", "harmonicspaces", "quotient", "torus", "0,0", "--resolution", "400"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"# config ")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


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
        # 2k+2 reals are a real vector in C^(k+1)
        (["cpq", "0.3,-1.2,0.5,2"], 0, ""),
        (["cpq", "1,0,0,0,0,0"], 0, ""),
        (["cpq", "0,0,0,0"], 2, "must be nonzero"),
        (["cpq", "1,0,0"], 2, "2k+2 reals"),
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


def _code_rows(res):
    """Rows of res region codes: one region throughout, alternating single
    cells from any region, or runs of any length and region."""
    code = st.integers(0, 2)
    runs = st.lists(st.tuples(code, st.integers(1, res)), min_size=1, max_size=res)
    return st.one_of(
        code.map(lambda c: [c] * res),
        code.map(lambda c: [(c + j) % 3 for j in range(res)]),
        runs.map(lambda rs: np.resize(np.repeat(*zip(*rs)), res).tolist()),
    )


@settings(max_examples=80, deadline=None)
@given(
    res=st.integers(1, 40),
    centre=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    data=st.data(),
)
def test_raster_rows_are_the_per_cell_lines(res, centre, data):
    # reference: each cell formatted on its own, as cmd_quotient wrote it once
    from harmonicspaces.quotients import REGION_TABLE, GridClassification

    codes = np.array(data.draw(st.lists(_code_rows(res), min_size=res, max_size=res)))
    axis = (np.arange(res) + 0.5) * (3.0 / res) - 1.5
    grid = GridClassification(
        centre[0] + axis, centre[1] + axis, codes.ravel().astype(np.int8), 3.0 / res
    )
    for p in (6, 17):
        blocks = list(cli._raster_rows(grid, p))
        expected = "".join(
            f"{x:.{p}g},{y:.{p}g},{REGION_TABLE[c].value}\n"
            for (x, y), c in zip(grid.points, grid.codes)
        )
        assert "".join(blocks) == expected
        # whole raster rows, _WRITE_ROWS of them to a string bar the last
        step = cli._WRITE_ROWS
        assert [b.count("\n") for b in blocks] == [
            min(step, res - i) * res for i in range(0, res, step)
        ]


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
        (
            ["lens"],
            "d4b91265376b9cdcbead06bbc1176bb72f06202bca3907219249b1a312114aba",
            "982ebbb05d12fa16cf35ff96ba6c78d825b8fe4fddfac291600ed89fa3b76485",
        ),
        (
            ["cpq"],
            "89582302afa1c877419f0176ded7fa7803a3dd84ad52448089dfe6cecd273df5",
            "86de061797405dfec716b1395be33edc7736f8f35fbffdb3e318967cc9c99b35",
        ),
        (
            ["lens", "0.3,-1.2,0.5,2"],
            "c0b1d140efdfc178d8657e5b000044d961b9d1f6ccd9e1d2c66e586fb44a4039",
            "f301db243b44eb53f2f8b6f4943cca6a1e52047285fed79933f24a91324a8c31",
        ),
        (
            ["cpq", "0.3,-1.2,0.5,2"],
            "7eef5eef386804d8ac10a42a0cf63fa1b688d94848ad480cddb8b95bb47e421a",
            "0a74497e07156c1194264364cf67068571c6426697fada2c2dc52116b2786f32",
        ),
        (
            ["cpq", "0.3,-1.2,0.5,2,-0.7,0.1,0.4,1.1"],
            "d21130e6b97295742c88da3a6ed6b3a8e56d1db93ab498eb74c9ae1cd4b37c0a",
            "c6f86897bce6c0271ec9e5cd466b0d60187a934eda83d2fdf4b9dd3365f0c983",
        ),
        (
            ["rp", "0.2,-0.5,0.9"],
            "2695b4ed96ef55512a60101d70ff0bf6d5059eafe6a48668792a64128465a412",
            "784a5909f9983057d4136ca9599d025c2522de5b6a50221fc457f69bca12d3f5",
        ),
    ],
    ids=["torus", "klein", "klein-p17", "lens", "cpq", "lens-4", "cpq-4", "cpq-8", "rp"],
)
def test_quotient_outputs_pinned(capsys, tmp_path, monkeypatch, argv, csv_sha, svg_sha):
    # the flat digests are outputs of the earlier depth-bounded orbit search,
    # with the never-used --seed and --tol since deleted from the config line;
    # the curved ones were taken when cpq still also read 4k+4 reals as
    # interleaved complex coordinates (cpq-8 was k = 1 then, k = 3 now), bar
    # rp's SVG, whose cap now has the reported radius pi/2.  They guard byte
    # reproducibility across versions, not just within one build
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


def test_quotient_outputs_pinned_where_the_svg_strides(capsys, tmp_path, monkeypatch):
    # 9,516 boundary cells: the SVG draws every second one (at resolution
    # 1200 there are 7,052, and every one is drawn)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "quotient", "--resolution", "1600", "--svg", "fig.svg", "klein", "0,0.25"
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "b8b51deb31bde3a89ce17eb9af58f4c92c1d62103b204cd54b5bcaa5b4026e50"
    )
    assert hashlib.sha256((tmp_path / "fig.svg").read_bytes()).hexdigest() == (
        "09a0403dba66485afa3f0fd75a5dd0511dc5460d13639c065184beaffd9a00fd"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["phi-table", "S3", "0.3", "1.5", "5", "0.7854"],
            "de35093c95984277e7103483b80c178361572a8e8232d9a8e86172f0f256aa4f",
        ),
        (
            ["phi-table", "hHP3", "0.3", "2.5", "5", "1.0"],
            "845a23b4e1eddbb8a3bae34cd5785b68829e3fd11ee2226c19947c89e1defde0",
        ),
        (
            ["phi-table", "OP2", "0.2", "1.3", "5", "0.7"],
            "e2bb44b682b2509ef9b7c05efa981ddc5893e124cd7458e8dfe3c052cd2f3ae9",
        ),
        (
            ["phi-table", "E4", "0.5", "2", "4", "1.0"],
            "55916c77226c6796020f4b8c707db8c1311b0dd1719937944774514bb255f22a",
        ),
        (
            ["phi-table", "S9", "0.3", "1.5", "4", "0.7854", "--numeric-only"],
            "e191be56b626930646c8dc96c1f0a35ccbfff7a512525958d8f10ced24ff6bd3",
        ),
        (["verify", "S3"], "c2e258d27f39f143f6302af8b092f7052e5394eac83c3265b5108dfb4c7a1e2a"),
        (["verify", "hHP3"], "f6e597358d25f42c7b687481355b2f927708bc8fa21e79138a8ad033411c9171"),
        (
            ["verify", "all", "--seed", "42"],
            "b0cbdf22df389d040d902d44fc6331e59d73e0fb770cfd9b8aa0bd4ffc86354d",
        ),
        (
            ["verify", "all", "--seed", "7"],
            "965d07093b5164189966fd9575062ad3fb2d27c169447474fec49caf3463f607",
        ),
        (
            ["verify", "all", "--seed", "30000"],
            "0029ea940793208c8faff8844a93e8307b2e194dd79e65b93ff4c92589b713d1",
        ),
        (
            ["bounds", "hCP2", "--orientable", "false"],
            "05a59411749677bbb30a43b7e2e994b7687336de268f04fd08d05b6428d32981",
        ),
        (["bounds", "hHP3"], "554f9f79723fe4bf7ee5f0b77aa3d4bc42f086849d5c35abd238e50e8be2e737"),
        (["bounds", "hOP2"], "7be3d7cfbdd0ed9552c4275ad058a9a0fb4018e693c4d2a2b0c680b71f864ed1"),
        (["bounds", "hS2"], "92cb3ead1bb13b42cb5030d54ea1ec531570f7577ac54ef58216cddf392e7545"),
        (["bounds", "hS4"], "c2d14a2992ac78cd3c33fc9ad8195993e58f3b01c67d90e875fc11691de28aee"),
        (["bounds", "hS6"], "442ff5fcbe39967fd375ea2d2b27e4b5e59de75c5c18cd9c08da2bc554ba94a4"),
        (["bounds", "hS8"], "3a13b9b6e6215f20afe3fa37dd9e72cb53712bcd56efb1e0753d25988f5928b0"),
        (["bounds", "hCP1"], "e19cf836b3e07dee02c48fee2bacf27c72c092539ba25f7bbe3b9b20df1e7b1e"),
        (["bounds", "hCP3"], "f9a8209b7466ff9ef18b4090f344b4f67d0602ee452698791ccf103cb10efc76"),
        (["bounds", "hCP4"], "c5fcaf70634abd47be945b665bf4c025f14378a614a7c87676654bfd45737f83"),
        (["bounds", "hHP2"], "c78e689ecdd62fdee57bf95ee6fcbc67d3a29ec5aa95f0e4d7b5ae6b3ac9d1f4"),
        (["bounds", "hHP4"], "085a27b2d987054cc04abc6dbb9a84376eb44020350e17bb7818762da6ea2d7a"),
    ],
    ids=[
        "phi-S3", "phi-hHP3", "phi-OP2", "phi-E4", "phi-S9", "verify-S3", "verify-hHP3",
        "verify-all-42", "verify-all-7", "verify-all-30000",
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
    # E5 moved, where numpy's elementary functions round apart from libm's.
    # verify-all-30000 was captured while the samples came from numpy's
    # Generator: verify all prints only analytic constants of its samples.
    # The five phi digests were re-captured when the residual column became
    # one array derivative per order, scaled by the Laplacian's own terms:
    # only laplacian_residual values moved.  Nine bounds digests were
    # re-captured when the volumes became Beta functions: only dual_volume,
    # gb_bound and sig_bound moved, within 2 ulps (hCP1 now reads pi).  The
    # five verify digests were re-captured when the ODE check became one
    # complex-step evaluation of the form: only the ode_residual values
    # moved, each lower (at most 3.0e-14, from at most 2.0e-9).
    # Every digest was captured with numpy's AVX-512 kernels dispatched
    # (X86_V4): the residual digits of verify and phi-table's
    # laplacian_residual carry the last bits of numpy's SIMD elementary
    # functions, which differ by dispatch target (see the test below)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


#: numpy's own switch NPY_DISABLE_CPU_FEATURES, per lower dispatch target: a
#: CPU without AVX-512 (X86_V3), and one without AVX2 and FMA3 either
#: (X86_V2, numpy's baseline).  numpy refuses a feature it built no
#: dispatched kernels for (AVX2, FMA3, AVX or F16C by name, or any feature
#: on another build) with an ImportWarning, on which these tests skip
SIMD_TARGETS = {
    "X86_V3": "X86_V4 AVX512_ICL AVX512_SPR",
    "X86_V2": "X86_V4 AVX512_ICL AVX512_SPR X86_V3",
}


def _run_on_targets(argv, disabled):
    """The two completed runs of argv, each in a fresh interpreter: on the
    default target, then with the numpy features ``disabled`` switched off."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    argv = [sys.executable, "-W", "always::ImportWarning", *argv]
    procs = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": disabled}):
        proc = subprocess.run(argv, capture_output=True, text=True, env={**env, **extra})
        if extra and "cannot disable CPU features" in proc.stderr:
            pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES: {proc.stderr.strip()}")
        assert proc.returncode == 0, proc.stderr
        procs.append(proc)
    return procs


@pytest.mark.parametrize("disabled", list(SIMD_TARGETS.values()), ids=list(SIMD_TARGETS))
def test_verify_all_differs_by_simd_target_only_in_residual_digits(disabled):
    # on a lower target only the *_residual= values of verify all may
    # differ from a run on the default target
    argv = ["-m", "harmonicspaces", "verify", "all", "--seed", "42"]
    runs = [
        re.sub(r"(_residual=)\S+", r"\1?", proc.stdout)
        for proc in _run_on_targets(argv, disabled)
    ]
    assert runs[0] == runs[1]
    assert runs[0].count("_residual=?") == 52


#: The five pinned phi-table argvs, and a long quadrature table on hHP5.
SIMD_PHI_TABLES = [
    ["phi-table", "S3", "0.3", "1.5", "5", "0.7854"],
    ["phi-table", "hHP3", "0.3", "2.5", "5", "1.0"],
    ["phi-table", "OP2", "0.2", "1.3", "5", "0.7"],
    ["phi-table", "E4", "0.5", "2", "4", "1.0"],
    ["phi-table", "S9", "0.3", "1.5", "4", "0.7854", "--numeric-only"],
    ["phi-table", "hHP5", "0.3", "2.7", "50", "1.0", "--numeric-only"],
]


@pytest.mark.parametrize("disabled", list(SIMD_TARGETS.values()), ids=list(SIMD_TARGETS))
def test_phi_tables_differ_by_simd_target_only_in_the_residual_column(disabled):
    # as above, for phi-table: on a lower target only the last column,
    # laplacian_residual, may differ.  One interpreter per target prints the
    # six tables, each after a marker line
    script = (
        "from harmonicspaces.cli import main\n"
        f"for argv in {SIMD_PHI_TABLES!r}:\n"
        "    print('## table', flush=True)\n"
        "    assert main(argv) == 0\n"
    )
    runs = []
    for proc in _run_on_targets(["-c", script], disabled):
        tables = proc.stdout.split("## table\n")[1:]
        assert len(tables) == len(SIMD_PHI_TABLES)
        runs.append([t.splitlines() for t in tables])
    for table, other in zip(*runs):
        assert table[0] == other[0]  # the config line
        assert table[1] == "r,theta,phi1,phi0_closed,phi0_numeric_diff,laplacian_residual"
        assert [line.rsplit(",", 1)[0] for line in table[1:]] == [
            line.rsplit(",", 1)[0] for line in other[1:]
        ]


#: Every deck group: the flat rasters, one at a far basepoint, and the three
#: curved groups, each run with --svg.
SIMD_QUOTIENTS = [
    ["quotient", "torus", "0,0", "--resolution", "400"],
    ["quotient", "torus", "3.7,-2.2", "--resolution", "200"],
    ["quotient", "klein", "0,0.25", "--resolution", "400"],
    ["quotient", "rp", "0,0,1"],
    ["quotient", "lens"],
    ["quotient", "cpq"],
]


@pytest.mark.parametrize("disabled", list(SIMD_TARGETS.values()), ids=list(SIMD_TARGETS))
def test_quotient_bytes_do_not_depend_on_the_simd_target(tmp_path, disabled):
    # the orbit search, CSV and SVG carry no bits of numpy's SIMD kernels:
    # each interpreter prints the SHA-256 of every job's CSV and SVG
    script = (
        "import hashlib, sys\n"
        "from harmonicspaces.cli import main\n"
        f"for argv in {SIMD_QUOTIENTS!r}:\n"
        "    assert main([*argv, '--out', sys.argv[1], '--svg', sys.argv[2]]) == 0\n"
        "    for path in sys.argv[1:]:\n"
        "        with open(path, 'rb') as f:\n"
        "            print(hashlib.sha256(f.read()).hexdigest())\n"
    )
    argv = ["-c", script, str(tmp_path / "q.csv"), str(tmp_path / "q.svg")]
    runs = [proc.stdout.split() for proc in _run_on_targets(argv, disabled)]
    assert len(runs[0]) == 2 * len(SIMD_QUOTIENTS)
    assert runs[0] == runs[1]


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


@pytest.mark.parametrize("seed", [0, 2**64, 10**30])
def test_verify_all_takes_every_non_negative_seed(capsys, seed):
    # seeds of 2^64 and above are folded into the stream's key word by word
    code, out, err = run_cli(capsys, "verify", "all", "--seed", str(seed))
    assert (code, err) == (0, "")
    assert _config_of(out.splitlines()[0])["seed"] == seed
    assert out.splitlines()[-1] == "# checked=63 fail=0 warn=1"


def test_commands_leave_exit_codes_to_main():
    # the module docstring's rule: a command raises where it finds a fault and
    # main alone maps the exception; phi-table's NonConvergence mapping, which
    # adds the reference radius and --tol, is the one handler in a command
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    handlers = [
        (node.name, handler.type and ast.unparse(handler.type))
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
        for handler in ast.walk(node)
        if isinstance(handler, ast.ExceptHandler)
    ]
    assert handlers == [("cmd_phi_table", "NonConvergence")]


def test_verify_self_check_failure_is_exit_1(capsys, monkeypatch):
    # a fault the suite finds in itself, not in the input: exit 1, not 2
    def failing_run_all(scope, seed):
        raise SelfCheckFailed("boom")

    monkeypatch.setattr("harmonicspaces.cli.verify_mod.run_all", failing_run_all)
    assert run_cli(capsys, "verify", "all") == (1, "", "error: boom\n")


def test_a_value_error_from_a_fault_is_not_a_usage_error(capsys, monkeypatch):
    # a Klein map that returns a third coordinate breaks the self-check's
    # array arithmetic with numpy's ValueError: a fault of the program, so it
    # propagates instead of exiting 2 as if the input were bad
    apply = quotients.KleinGroup.apply

    def three_coordinates(self, eid, point):
        image = apply(self, eid, point)
        return np.concatenate((image, image[..., :1]), axis=-1)

    monkeypatch.setattr(quotients.KleinGroup, "apply", three_coordinates)
    with pytest.raises(ValueError, match="could not be broadcast") as exc:
        main(["verify", "all"])
    assert not isinstance(exc.value, UsageError)
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: quotients.make_group("moebius"),
        lambda: quotients.SeededStream(-1),
        lambda: cli.verify_mod.run_all("hS6"),
    ],
    ids=["group-id", "seed", "nothing-to-verify"],
)
def test_refused_arguments_are_usage_errors_and_value_errors(refuse):
    # main maps UsageError to exit 2; library callers still catch ValueError
    with pytest.raises(UsageError) as exc:
        refuse()
    assert isinstance(exc.value, ValueError)


def test_verify_all_rejects_a_negative_seed(capsys):
    assert run_cli(capsys, "verify", "all", "--seed", "-1") == (
        2, "", "error: seed must be a non-negative integer, got -1\n"
    )


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


def test_phi_table_numeric_residual_uses_tol(capsys, monkeypatch):
    # the residual column is the library's array residual of the quadrature
    # phi0, and each of the table's three grid passes runs at --tol.  The
    # column alone cannot show the tol: a quadrature error shared by a row's
    # stencil cancels in its differences, and this column reads the same at
    # tol 1e-10, so the tol is checked where the grid passes receive it
    model = parse_model_id("S9")
    grid_pass, tols = harmonic.phi0_numeric_grid, []

    def recording(model, rs, r_ref, tol):
        tols.append(tol)
        return grid_pass(model, rs, r_ref, tol)

    monkeypatch.setattr(harmonic, "phi0_numeric_grid", recording)
    code, out, _ = run_cli(
        capsys, "phi-table", "S9", "0.3", "1.5", "4", "0.7854",
        "--numeric-only", "--tol", "1e-4",
    )
    assert code == 0
    assert tols == [1e-4] * 3
    column = [row.split(",")[-1] for row in out.strip().splitlines()[2:]]
    grid = [0.3 + (1.5 - 0.3) * i / 3 for i in range(4)]
    _, residuals = harmonic.phi0_table(model, grid, 0.7854, 1e-4, None)
    assert column == [f"{residual:.3e}" for residual in residuals]


def _count_work(monkeypatch, module):
    """Count the scalar integrate calls and the density points, one per
    float and the size of each array, that ``module`` asks theta for; a dict
    read after the run."""
    counts = {"integrate": 0, "theta_points": 0}
    integrate, theta = module.integrate, module.theta

    def counting_integrate(*args, **kwargs):
        counts["integrate"] += 1
        return integrate(*args, **kwargs)

    def counting_theta(model, r):
        counts["theta_points"] += np.size(r)
        return theta(model, r)

    monkeypatch.setattr(module, "integrate", counting_integrate)
    monkeypatch.setattr(module, "theta", counting_theta)
    return counts


def test_numeric_phi_table_work_bounded(capsys, monkeypatch):
    # deterministic work gate: the 25-row table is three grid passes (3,750
    # density points, every first panel kept); one scalar integrate per
    # stencil point made 250 calls
    counts = _count_work(monkeypatch, harmonic)
    code, _, _ = run_cli(
        capsys, "phi-table", "S9", "0.3", "1.5", "25", "0.7854", "--numeric-only"
    )
    assert code == 0
    assert counts["integrate"] <= 5
    assert 0 < counts["theta_points"] < 5_000


def test_bounds_integrates_nothing(capsys, monkeypatch):
    # the dual's volume is a Beta function, not a quadrature of theta, and
    # the catalogue module holds no quadrature to run one
    assert not hasattr(spaces, "integrate")
    points = 0
    theta = spaces.theta

    def counting_theta(model, r):
        nonlocal points
        points += np.size(r)
        return theta(model, r)

    monkeypatch.setattr(spaces, "theta", counting_theta)
    code, _, _ = run_cli(capsys, "bounds", "hOP2")
    assert code == 0
    assert points == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["E9", "0.5", "1e300", "2", "1.0"], "theta of E9 at r=5e+299 overflows float64"),
        (
            ["hS3", "0.5", "900", "2", "1.0"],
            "residual of phi0 of hS3 at r=900.0 is not finite",
        ),
        (
            ["hS9", "0.5", "900", "2", "1.0", "--numeric-only"],
            "theta of hS9 at r=450.49455009099285 overflows float64",
        ),
        # sinh^5 cosh of hCP3 leaves float64 past r = 140 without a raising power
        (["hCP3", "100", "141.5", "3", "120"], "theta of hCP3 at r=120.375 overflows float64"),
        # (r_max - r_min) * 2 leaves float64 while the grid is built
        (
            ["E2", "0.1", "1e308", "3", "1"],
            "the grid of 3 points on [0.1, 1e+308] would overflow float64: "
            "(r_max - r_min) * 2 is inf",
        ),
        # every sample of the closed form is finite, its difference quotient is not
        (
            ["E590", "0.3", "1.5", "3", "0.7"],
            "derivative at r=0.3 overflows float64 from finite samples: inf",
        ),
    ],
    ids=[f"argv{i}" for i in range(6)],
)
def test_phi_table_overflow_is_usage_error(capsys, argv, message):
    # the message is the one of the function that found the overflow
    code, out, err = run_cli(capsys, "phi-table", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert "r=inf" not in err


@pytest.mark.parametrize(
    "model_id, r",
    [
        ("S9", "1.92840143952926e-39"),
        ("S3", "4.894170692521033e-155"),
        ("E3", "4.894170692521033e-155"),
    ],
    ids=["S9", "S3", "E3"],
)
def test_phi_table_reference_at_the_pole_is_overflow_usage_error(capsys, model_id, r):
    # r_ref = 1e-300 puts the quadrature next to the pole of phi1, where
    # theta leaves float64: phi1 overflows there, never adds an inf to the sum
    code, out, err = run_cli(
        capsys, "phi-table", model_id, "0.3", "1.5", "2", "1e-300", "--numeric-only"
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: phi1 of {model_id} at r={r} overflows float64: theta is ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, name",
    [
        (["hS9", "1e-300", "3.2", "2", "1.5", "--numeric-only"], "r_min"),
        (["S3", "1e-300", "1.2", "2", "0.5"], "r_min"),
        (["S3", "0.3", "3.14159265", "2", "0.5"], "r_max"),
    ],
)
def test_phi_table_names_the_end_the_residual_column_refuses(capsys, argv, name):
    # r_min or r_max inside the radial domain but within the residual
    # column's finite-difference stencil of its end
    given = argv[1] if name == "r_min" else argv[2]
    code, out, err = run_cli(capsys, "phi-table", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name}={given} ") and "stencil" not in err
    nearest = float(err.split()[-1])
    # the value named is the edge: it gives a table, the next float out does not
    inward = [repr(nearest) if a == given else a for a in argv]
    assert run_cli(capsys, "phi-table", *inward)[0] == 0
    outward = [repr(math.nextafter(nearest, float(given))) if a == given else a for a in argv]
    code, _, err = run_cli(capsys, "phi-table", *outward)
    assert code == 2 and err.split()[-1] == repr(nearest)


@pytest.mark.parametrize(
    "argv",
    [
        ["S5", "0.3", "1.5", "3", "3.14159265"],
        ["CP2", "0.3", "1.2", "3", "1.570796326794"],
        ["HP2", "0.3", "1.2", "3", "1.5707963"],
        ["S9", "0.3", "1.5", "3", "3.1415926", "--numeric-only"],
    ],
)
def test_phi_table_reference_near_the_far_pole_is_usage_error(capsys, argv):
    # phi1 is not integrable at the far end of a compact model, so the phi0
    # integrals from an r_ref next to it cannot meet --tol
    code, out, err = run_cli(capsys, "phi-table", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"r_ref={argv[4]} " in err and "--tol=1e-10" in err


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
    # a fresh interpreter: one phi0 integral, one volume, phi0_closed and the
    # float residual of its two derivatives load no numpy, which only the
    # array paths import, inside the functions that use it (phi-table's
    # columns are array passes, so phi-table itself loads numpy)
    code = (
        "import sys\n"
        "from harmonicspaces.harmonic import harmonicity_residual, phi0_closed, phi0_numeric\n"
        "from harmonicspaces.spaces import model_volume, parse_model_id\n"
        "phi0_numeric(parse_model_id('S3'), 1.2, 0.6)\n"
        "model_volume(parse_model_id('S3'))\n"
        "for model in (parse_model_id('S3'), parse_model_id('E2'), parse_model_id('E5')):\n"
        "    phi0_closed(model, 1.2)\n"
        "    harmonicity_residual(model, lambda r: phi0_closed(model, r), 1.2)\n"
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_makes_no_forward_refs():
    # a fresh interpreter: with postponed annotations every field of a
    # NamedTuple record is a string, which typing compiles into a ForwardRef
    code = (
        "import typing\n"
        "made = []\n"
        "init = typing.ForwardRef.__init__\n"
        "typing.ForwardRef.__init__ = lambda self, *a, **k: made.append(a) or init(self, *a, **k)\n"
        "import harmonicspaces.cli\n"
        "print(len(made))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all"],
        ["quotient", "torus", "0,0", "--resolution", "8"],
        ["quotient", "klein", "0,0.25", "--resolution", "40", "--svg", "{tmp}/fig.svg"],
    ],
    ids=["verify-all", "quotient-torus", "quotient-klein-svg"],
)
def test_cli_runs_leave_out_numpy_random(argv, tmp_path):
    # a fresh interpreter: the seeded checks draw from quotients.SeededStream,
    # so no command loads numpy.random and the 19 modules it pulls in; nor
    # any other module once the parser is built (np.unique loads numpy.ma,
    # and np.char its own package)
    argv = [a.format(tmp=tmp_path) for a in argv]
    code = (
        "import contextlib, io, sys\n"
        "from harmonicspaces.cli import build_parser, main\n"
        "build_parser()\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({argv!r})\n"
        "print('numpy.random' in sys.modules, sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False []"


def test_cli_setup_makes_no_dataclass():
    # a fresh interpreter: Python builds each dataclass's methods with exec
    # at import, about 1 ms a class, so set-up makes none (numpy, argparse
    # and json do not import dataclasses themselves)
    code = (
        "import sys\n"
        "from harmonicspaces.cli import build_parser\n"
        "build_parser()\n"
        "made = sorted({f'{v.__module__}.{v.__qualname__}'\n"
        "    for k, mod in list(sys.modules.items()) if k.split('.')[0] == 'harmonicspaces'\n"
        "    for v in vars(mod).values()\n"
        "    if isinstance(v, type) and '__dataclass_fields__' in vars(v)})\n"
        "print('dataclasses' in sys.modules, made)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False []"


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
    # axis values inside the window, outside it, far off and on it; the y
    # axis shorter, so that a swapped column and row would show
    xs, ys = (
        np.concatenate((
            c + rng.uniform(-1.5, 1.5, size=300),
            c + rng.uniform(-1e3, 1e3, size=50),
            [-1e300, 1e300, c - 1.5, c + 1.5, -0.0],
        ))
        for c in centre
    )
    ys = ys[::3]
    n = len(xs) * len(ys)
    # the first and last cell, the ends of the first row, and a sample
    ks = np.concatenate(([0, len(xs) - 1, len(xs), n - 1], rng.integers(0, n, 400)))
    for cells in (ks, ks[:0]):
        batched, looped = SvgFigure(**ranges), SvgFigure(**ranges)
        batched.dots(xs, ys, cells, radius=1.0, color="#1f3b70")
        for k in cells:
            looped.dot((xs[k % len(xs)], ys[k // len(xs)]), radius=1.0, color="#1f3b70")
        assert batched._body == looped._body
        assert len(batched._body) == len(cells)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "S3", "--out", "{missing}/x.txt"],
        ["bounds", "hS2", "--out", "{missing}/x.json"],
        ["phi-table", "S3", "0.1", "1", "3", "0.5", "--out", "{missing}/x.csv"],
        ["quotient", "torus", "0,0", "--resolution", "4", "--out", "{missing}/x.csv"],
        ["quotient", "rp", "1,0,0", "--svg", "{missing}/x.svg"],
        ["quotient", "rp", "1,0,0", "--svg", "{dir}"],
    ],
    ids=["verify", "bounds", "phi-table", "quotient-csv", "quotient-svg", "svg-is-a-dir"],
)
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv):
    paths = {"missing": tmp_path / "missing", "dir": tmp_path}
    code, _, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["quotient", "torus", "0,0", "--resolution", "4", "--svg", "{missing}/x.svg"],
        ["quotient", "rp", "1,0,0", "--svg", "{dir}"],
    ],
    ids=["flat-missing-dir", "curved-svg-is-a-dir"],
)
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_failed_svg_leaves_no_csv(capsys, tmp_path, argv, to_file):
    # every output is opened before any byte is written: a failed run must
    # not leave a CSV that looks like a result, on stdout or in --out
    paths = {"missing": tmp_path / "missing", "dir": tmp_path}
    argv = [arg.format(**paths) for arg in argv]
    csv = tmp_path / "q.csv"
    if to_file:
        argv += ["--out", str(csv)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert out == ""
    assert not csv.exists() or csv.read_text() == ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "harmonicspaces", "bounds", "hS4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dual"] == "S4"
