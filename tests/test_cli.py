import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicspaces.cli import main
from harmonicspaces.harmonic import harmonicity_residual, phi0_numeric
from harmonicspaces.spaces import parse_model_id


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
    code, _, err = run_cli(capsys, "phi-table", "CP2", "0.3", "2.0", "5", "0.7")
    assert code == 2  # r_max beyond pi/2


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
            "ca326c131d2711348f49dde14bd6d742bee9112687989b13d9f82024e6d90b63",
            "c5aabf8e3807f52743d1cabab33a5995042d06c9a08d7814b11c6ed0afb5d0a4",
        ),
        (
            ["klein", "--", "0,1"],
            "0db80fc76d0d52e5542334447bf288ec6a309fd220d69d9392dddaa4dcbbe467",
            "8e00ecae98172f1e27a2e68e6f46650d70b11400188f3c10786c95c669c9652b",
        ),
    ],
)
def test_quotient_outputs_pinned(capsys, tmp_path, monkeypatch, argv, csv_sha, svg_sha):
    # digests of the outputs of the earlier depth-bounded orbit search: they
    # guard byte reproducibility across versions, not just within one build
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "quotient", "--resolution", "40", "--svg", "fig.svg", *argv
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == csv_sha
    assert hashlib.sha256((tmp_path / "fig.svg").read_bytes()).hexdigest() == svg_sha


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["phi-table", "S3", "0.3", "1.5", "5", "0.7854"],
            "c61d08b06bc522d6fc235773421d0b01b314e068e9aecc3f589a5cd1d5944240",
        ),
        (
            ["phi-table", "hHP3", "0.3", "2.5", "5", "1.0"],
            "13eb36b909006e371b37461da865742559fa41ce68cec668ca59501453f08c02",
        ),
        (
            ["phi-table", "OP2", "0.2", "1.3", "5", "0.7"],
            "cacf210a499243c3fe5ee4a8344693cce1466e80d0518f597e3a39fd5f6bd9a0",
        ),
        (
            ["phi-table", "E4", "0.5", "2", "4", "1.0"],
            "b73e7a03d80e5ced80be0626d91c901035af7ca7a583afcb2debc2acfb24f920",
        ),
        (
            ["phi-table", "S9", "0.3", "1.5", "4", "0.7854", "--numeric-only"],
            "51a130a77e681c5fce2054ec8aff2e8551e9654c81773a5ac5c2fbb2f6571555",
        ),
        (["verify", "S3"], "ae6eee94a3cd5336e525ded5365aec96258c21a0adba12095dd4691aa7fba279"),
        (["verify", "hHP3"], "d163eb886ea36d83d344ffc9f70385f49f2e619f9e09750f21f8b84a16ca09ef"),
    ],
)
def test_phi_table_and_verify_outputs_pinned(capsys, argv, digest):
    # digests of the outputs before the radial-function wrappers were
    # removed: they guard byte reproducibility across versions
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
    assert "error: argument --tol: must be a positive finite number" in captured.err


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
    ],
)
def test_phi_table_overflow_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "phi-table", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "overflow float64" in err


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
        argv = ["phi-table", mid, r_min, r_max, str(n), r_ref]
        if numeric_only:
            argv.append("--numeric-only")
    elif command == "verify":
        # 'verify all' takes seconds; the single-model scopes exercise the same code
        argv = ["verify", "S4" if mid == "all" else mid]
    else:
        argv = ["bounds", mid, "--orientable", orientable]
    argv += ["--tol", str(tol)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_bounds_hcp2(capsys):
    code, out, _ = run_cli(capsys, "bounds", "hCP2", "--orientable", "true")
    assert code == 0
    payload = json.loads(out)
    assert payload["dual"] == "CP2"
    assert payload["gb_bound"] == pytest.approx(payload["dual_volume"] / 3.0)
    assert payload["sig_bound"] == pytest.approx(payload["dual_volume"])
    assert payload["config"]["seed"] == 42


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
    code, _, err = run_cli(
        capsys, "phi-table", "S3", "0.3", "1.5", "3", "0.7854", "--precision", "30"
    )
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "harmonicspaces", "bounds", "hS4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dual"] == "S4"
