"""Spans and counters around harmonicspaces' public functions, from outside.

Each traced function is replaced, in every package module that imported it
by name (``spaces.theta`` is also ``harmonic.theta`` and ``cli.theta``), by
a wrapper that records one span per call: name, start, end, parent span
and job.  Counters are kept at the same boundaries.  Spans live in flat
arrays in memory and are written out once, at the end of the interpreter.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: Traced public functions by defining module; "Class.method" wraps a method.
#: The end-to-end metric each layer should move, and where:
#:   cli        items_per_s on cut_locus and phi_tables (argv, _fmt, writes)
#:   verify     job_s_p50 on verify_all
#:   harmonic   job_s_p50 on verify_all (verify_table_entry,
#:              classify_boundary); items_per_s on phi_tables (phi0_numeric,
#:              laplacian_radial)
#:   numerics   job_s_p50 on verify_all first, items_per_s on phi_tables next
#:   spaces     job_s_p50 on verify_all, items_per_s on phi_tables
#:   quotients  items_per_s on cut_locus (classify_grid); job_s_p50 on
#:              verify_all (group_action_selfcheck, about a quarter of it)
#:   topology   items_per_s on phi_tables (the bounds jobs)
#:   svgfig     items_per_s on cut_locus
TRACED = {
    "cli": ("main",),
    "verify": ("run_all", "table_checks", "boundary_checks", "injectivity_checks", "group_checks"),
    "harmonic": ("verify_table_entry", "classify_boundary", "phi0_numeric", "laplacian_radial"),
    "numerics": ("integrate", "derivative"),
    "spaces": ("theta", "model_volume"),
    "quotients": ("classify_grid", "injectivity_radius", "group_action_selfcheck"),
    "topology": ("volume_bounds",),
    "svgfig": ("SvgFigure.render",),
}

COUNTERS = (
    "spaces.theta.points",
    "numerics.integrate.evals",
    "numerics.integrate.nonconvergence",
    "numerics.integrate.useful_points",
    "quotients.classify_grid.cells",
    "verify.checks",
    "verify.warn",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.job = 0
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._key = array("H")
        self._parent = array("l")
        self._job = array("l")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack: list[int] = []
        self._integrate_depth = 0

    # --- wrapping -------------------------------------------------------

    def _wrap(self, name, fn, on_enter=None, on_return=None, on_raise=None):
        key = len(self.names)
        self.names.append(name)
        keys, parents, jobs, t0s, t1s, stack = (
            self._key, self._parent, self._job, self._t0, self._t1, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0s)
            keys.append(key)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            t1s.append(0.0)
            stack.append(idx)
            state = on_enter() if on_enter is not None else None
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1s[idx] = clock()
                stack.pop()
                if on_raise is not None:
                    on_raise(state, exc)
                raise
            t1s[idx] = clock()
            stack.pop()
            if on_return is not None:
                on_return(state, args, kwargs, result)
            return result

        return traced

    def _hooks(self, name: str) -> dict:
        counts = self.counts
        if name == "spaces.theta":
            def theta_done(state, args, kwargs, result):
                r = args[1] if len(args) > 1 else kwargs["r"]
                counts["spaces.theta.points"] += int(np.size(r))
            return {"on_return": theta_done}
        if name == "numerics.integrate":
            from harmonicspaces.errors import NonConvergence

            # theta points evaluated inside the outermost integrate call
            # count as useful when that call returns a value
            def enter():
                self._integrate_depth += 1
                return counts["spaces.theta.points"]

            def done(start, args, kwargs, result):
                self._integrate_depth -= 1
                counts["numerics.integrate.evals"] += result.evaluations
                if self._integrate_depth == 0:
                    counts["numerics.integrate.useful_points"] += counts["spaces.theta.points"] - start

            def failed(start, exc):
                self._integrate_depth -= 1
                if isinstance(exc, NonConvergence):
                    counts["numerics.integrate.nonconvergence"] += 1
            return {"on_enter": enter, "on_return": done, "on_raise": failed}
        if name == "quotients.classify_grid":
            def grid_done(state, args, kwargs, result):
                counts["quotients.classify_grid.cells"] += len(result.points)
            return {"on_return": grid_done}
        if name == "verify.run_all":
            def checks_done(state, args, kwargs, result):
                counts["verify.checks"] += len(result)
                counts["verify.warn"] += sum(1 for r in result if r.status == "WARN")
            return {"on_return": checks_done}
        return {}

    def install(self) -> None:
        """Wrap every TRACED function wherever the package holds it by name."""
        modules = {m: importlib.import_module(f"harmonicspaces.{m}") for m in TRACED}
        package = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "harmonicspaces"]
        for modname, qualnames in TRACED.items():
            for qualname in qualnames:
                name = f"{modname}.{qualname.rsplit('.', 1)[-1]}"  # svgfig.render
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(modules[modname], cls_name)
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth), **self._hooks(name)))
                    continue
                original = getattr(modules[modname], qualname)
                wrapper = self._wrap(name, original, **self._hooks(name))
                for mod in package:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        setattr(mod, attr, wrapper)

    # --- results --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.names),
            "key": np.frombuffer(self._key, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "job": np.frombuffer(self._job, dtype=np.int64).copy(),
            "start": np.frombuffer(self._t0, dtype=np.float64).copy(),
            "end": np.frombuffer(self._t1, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; plus the
        counters.  Self time is a span's duration minus the durations of its
        direct children, which nest inside it without overlapping."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        calls = np.bincount(a["key"], minlength=n_names)
        total = np.bincount(a["key"], weights=dur, minlength=n_names)
        own = np.bincount(a["key"], weights=self_time, minlength=n_names)
        spans = {
            name: {"calls": int(calls[k]), "s": float(total[k]), "self_s": float(own[k])}
            for k, name in enumerate(self.names)
        }
        return {"spans": spans, "counts": dict(self.counts)}
