"""In-memory spans around the public coldpa calls the benchmark makes.

A span records a name, start, end, its parent span and the run id of the
iteration it belongs to. Spans stay in memory and are written out once,
when the benchmark ends. Calls that happen inside an in-process
``coldpa.cli.main`` or ``RunConfig.build_initial`` are reached by
rebinding, for the duration of one traced iteration, the names those
modules use for them (CLI_CALLS); no file of the program changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

# (module, attribute, span name): the layer calls made inside the CLI and
# config front ends that the per-layer metrics need.
CLI_CALLS = (
    ("coldpa.config", "continuum_state", "spectrum.continuum_state"),
    ("coldpa.cli", "solve_levels", "spectrum.solve_levels"),
    ("coldpa.cli", "to_momentum", "grids.to_momentum"),
    ("coldpa.cli", "level_populations", "observables.level_populations"),
    ("coldpa.cli", "find_momentum_peaks", "observables.find_momentum_peaks"),
    ("coldpa.cli", "detect_hole", "observables.detect_hole"),
    ("coldpa.io", "load_state", "io.load_state"),
)


class NullTracer:
    """Stand-in for untraced iterations: spans cost one call and record
    nothing."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def wrapping(self, modules):
        return self._null


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        record = {"id": sid, "name": name, "run": self.run_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def wrapping(self, modules):
        """Rebind every CLI_CALLS name to a spanned wrapper, then restore.

        ``modules`` maps module names to the imported module objects.
        """
        saved = []
        try:
            for mod_name, attr, span_name in CLI_CALLS:
                mod = modules[mod_name]
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(orig, span_name))
            yield
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def totals(self, run_id):
        """{span name: (summed seconds, call count)} for one iteration."""
        out = defaultdict(lambda: [0.0, 0])
        for s in self.spans:
            if s["run"] == run_id and s["end"] is not None:
                acc = out[s["name"]]
                acc[0] += s["end"] - s["start"]
                acc[1] += 1
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"header": header, "spans": self.spans}, fh, indent=1)
            fh.write("\n")
