"""Spans and result hooks around aclab's public functions, installed from outside.

Nothing under ``src/`` changes: :func:`instrument` swaps each listed function,
at every name an ``aclab`` module binds to it (``aclab.ground_state.integrate``,
``aclab.verify.shoot_profile``, ``aclab.catalog.build_ground_state``, ...), for a
wrapper, and puts the originals back on exit.  A span is the wrapper's
interval: name, start, end, parent span, and the pass (request) it belongs
to.  Spans stay in memory as flat arrays until the run ends.
"""

import functools
import gzip
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

# (module, function) pairs timed as layers; the span name is "<module>.<function>"
LAYER_FUNCTIONS = (
    ("quadrature", "integrate"),
    ("roots", "find_root"),
    ("ground_state", "solve_peak"),
    ("ground_state", "build_ground_state"),
    ("catalog", "build_catalog"),
    ("catalog", "spectral_gap"),
    ("catalog", "basin_criterion"),
    ("catalog", "classify_orbit"),
    ("evolution", "evolve"),
    ("evolution", "terminal_comparison"),
    ("diagnostics", "fit_rate"),
    ("diagnostics", "check_log_convexity"),
    ("diagnostics", "theta_ode_oracle"),
    ("oracles", "shoot_profile"),
    ("oracles", "peak_complement_mp"),
    ("oracles", "first_return_period"),
)

# functions whose outputs the end-to-end accuracy metrics read, wrapped in every run
HOOKED_FUNCTIONS = (
    ("ground_state", "build_ground_state"),
    ("evolution", "terminal_comparison"),
)


class Recorder:
    """Collects spans (when ``spans`` is true) and the outputs the benchmark checks.

    The outputs are gathered in every mode, because the end-to-end accuracy
    metrics need them: the PDE residual of every profile built and the
    terminal error of every comparison against a steady profile.  Without
    spans a wrapper costs one extra Python call per wrapped call.
    """

    def __init__(self, spans=False):
        self.spans = spans
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self._stack = []
        self.request_id = 0
        self.residuals = []
        self.terminal_errors = []
        self.steps = {}
        self.snapshots = {}

    def begin_request(self, request_id):
        """Attribute the following spans and counts to pass ``request_id``."""
        self.request_id = request_id
        self.residuals = []
        self.terminal_errors = []

    def _on_result(self, name, out):
        if name == "ground_state.build_ground_state":
            self.residuals.append(out.residual)
        elif name == "evolution.terminal_comparison":
            self.terminal_errors.append(out[1])
        elif name == "evolution.evolve" and self.spans:
            r = self.request_id
            dt = out.params.dt
            self.steps[r] = self.steps.get(r, 0) + int(round(float(out.times[-1]) / dt))
            self.snapshots[r] = self.snapshots.get(r, 0) + len(out.snapshots)

    def wrap(self, name, fn):
        if not self.spans:

            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._on_result(name, out)
                return out

            return hooked

        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            span = len(self.start)
            self.name_id.append(nid)
            self.start.append(t0)
            self.end.append(t0)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self.request_id)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[span] = clock()
            self._on_result(name, out)
            return out

        return traced

    def per_request(self):
        """{request: {span name: (calls, self seconds)}} over all recorded spans.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the workload is one thread.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            table = out.setdefault(self.request[i], {})
            name = self.names[self.name_id[i]]
            calls, self_s = table.get(name, (0, 0.0))
            table[name] = (calls + 1, self_s + (self.end[i] - self.start[i]) - child[i])
        return out

    def write(self, path):
        """Write every span as CSV (request, name, start, end, parent), gzipped."""
        with gzip.open(path, "wt") as fh:
            fh.write("request,name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.request[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n"
                )


def _binding_sites(fn):
    """Every (module, attribute) in the loaded aclab package bound to ``fn``."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "aclab" or mod_name.startswith("aclab.")):
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                sites.append((mod, attr))
    return sites


@contextmanager
def instrument(recorder):
    """Install ``recorder``'s wrappers for the duration of the block.

    With spans every function of :data:`LAYER_FUNCTIONS` is wrapped; without,
    only the functions whose outputs the accuracy metrics read.
    """
    targets = LAYER_FUNCTIONS if recorder.spans else HOOKED_FUNCTIONS
    swapped = []
    try:
        for mod_name, fn_name in targets:
            fn = getattr(importlib.import_module(f"aclab.{mod_name}"), fn_name)
            wrapper = recorder.wrap(f"{mod_name}.{fn_name}", fn)
            for mod, attr in _binding_sites(fn):
                setattr(mod, attr, wrapper)
                swapped.append((mod, attr, fn))
        yield recorder
    finally:
        for mod, attr, fn in reversed(swapped):
            setattr(mod, attr, fn)
