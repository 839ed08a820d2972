"""README's library sketch runs as written and gives the values it states."""

import ast
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_sketch() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library sketch\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library sketch'"
    return match.group(1)


def test_library_sketch_runs_and_gives_its_stated_values():
    source = _library_sketch()
    namespace: dict = {}
    values = {}
    # each statement in turn, keeping the value of every bare expression
    for node in ast.parse(source).body:
        segment = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[segment] = eval(segment, namespace)
        else:
            exec(segment, namespace)
    assert values["injectivity_radius(KleinGroup(), (0.0, 0.25)).radius"] == 0.5590169943749475
    assert math.isclose(values["model_volume(s3)"], 2.0 * math.pi**2, rel_tol=1e-12)
