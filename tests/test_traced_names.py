"""The benchmark tracer wraps package functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for modname, qualnames in tracer.TRACED.items():
        module = importlib.import_module(f"harmonicspaces.{modname}")
        for qualname in qualnames:
            target = module
            for part in qualname.split("."):
                target = getattr(target, part)
            assert callable(target), f"{modname}.{qualname}"
