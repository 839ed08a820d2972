"""Smoke tests of scripts/: every file is written and carries its config."""

import importlib.util
import re
from pathlib import Path

from harmonicspaces.harmonic import CLOSED_FORMS

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
    ids = list(CLOSED_FORMS) + ["E2", "E3", "E4", "E5"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"phi_{mid}.csv" for mid in ids)
    for mid in ids:
        rows = (tmp_path / f"phi_{mid}.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0].startswith("# config ") and len(rows) == 2 + 3, mid
