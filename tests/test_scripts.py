"""Smoke tests of scripts/: every file is written and carries its config,
and the scripts read only the package's public names."""

import ast
import importlib.util
import re
from pathlib import Path

from harmonicspaces import numerics, quotients, verify
from harmonicspaces.cli import build_parser, main
from harmonicspaces.verify import TABLE_IDS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_figures_writes_every_figure(tmp_path, capsys):
    _load("make_figures").run(tmp_path, 20)
    stems = ["torus", "klein_a0", "klein_a025", "klein_a1", "lens", "cpq"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{stem}.{ext}" for stem in stems for ext in ("csv", "svg")
    )
    for stem in stems:
        line = (tmp_path / f"{stem}.csv").read_text(encoding="utf-8").splitlines()[0]
        assert line.startswith("# config "), stem
        svg = (tmp_path / f"{stem}.svg").read_text(encoding="utf-8")
        metadata = re.search(r"<metadata>(.*)</metadata>", svg)
        assert metadata is not None and metadata.group(1) == line, stem


def test_tabulate_writes_every_table(tmp_path, capsys):
    module = _load("tabulate")
    module.run(tmp_path, 3)
    # the rows of verify's table checks: the closed forms, then E2..E5
    ids = TABLE_IDS
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"phi_{mid}.csv" for mid in ids)
    for mid in ids:
        rows = (tmp_path / f"phi_{mid}.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0].startswith("# config ") and len(rows) == 2 + 3, mid


def test_scripts_import_public_names_and_cli_defaults_have_one_home(capsys, monkeypatch):
    # a script that imports an underscore name copies a decision the package
    # keeps private; the public name is the one home
    for path in sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("harmonicspaces"):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert private == [], (path.name, node.module, private)
    # the CLI defaults are the package's constants, read where they live
    args = build_parser().parse_args(["phi-table", "S3", "0.3", "1.5", "2", "0.7854"])
    assert args.tol is numerics.DEFAULT_TOL
    seeds = []
    monkeypatch.setattr(quotients, "DEFAULT_SEED", 1234)
    monkeypatch.setattr(verify, "run_all", lambda scope, seed: seeds.append(seed) or [])
    assert main(["verify", "all"]) == 0
    assert seeds == [1234]
    assert '"seed": 1234' in capsys.readouterr().out.splitlines()[0]
