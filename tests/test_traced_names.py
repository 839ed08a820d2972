"""The benchmark tracer wraps package functions by name; they must exist,
and its hooks must run on what they return."""

import importlib
import importlib.util
import json
import subprocess
import sys
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


def test_tracer_hooks_read_what_the_package_returns():
    # a fresh interpreter, as the benchmark's workers run it: the hooks read
    # attributes of the traced functions' arguments and results
    code = (
        "import importlib.util, io, contextlib, json, sys\n"
        f"spec = importlib.util.spec_from_file_location('perfbench_tracer', {str(TRACER)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "from harmonicspaces import cli\n"
        "jobs = [\n"
        "    ['quotient', 'torus', '0,0', '--resolution', '4'],\n"
        "    ['phi-table', 'S9', '0.3', '1.5', '5', '0.7854', '--numeric-only'],\n"
        "    ['bounds', 'hOP2'],\n"
        "    ['verify', 'S3'],\n"
        "]\n"
        "codes, points = [], []\n"
        "for job, argv in enumerate(jobs):\n"
        "    t.job = job\n"
        "    before = t.counts['spaces.theta.points']\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "    points.append(t.counts['spaces.theta.points'] - before)\n"
        "summary = t.summary()\n"
        "print(json.dumps({'codes': codes, 'calls': summary['spans']['cli.main']['calls'],\n"
        "                  'counts': summary['counts'], 'points': points}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0] and result["calls"] == 4
    assert result["counts"]["quotients.classify_grid.cells"] == 16
    assert result["counts"]["verify.checks"] > 0
    # verify S3 evaluates the density on the 15 Kronrod nodes of each of its
    # 49 grid gaps and on its 50 grid points, all through spaces.theta
    assert result["points"][3] >= 49 * 15 + 50
