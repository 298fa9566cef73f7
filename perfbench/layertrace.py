"""Per-layer tracing of the hexsim package, installed from outside it.

Each target is a public function or method of a hexsim module.  The
tracer replaces it at every module attribute that holds it (a function
imported with `from .x import f` lives in the importer's namespace too)
or on its class, so every caller looks up the wrapper.  Nothing inside
the package changes.

A "span" target records one span per call: name, start, end, parent span
and run id (one run per `run_scenario` call), and adds its duration minus
the time of its traced children to the target's self time.  A "count"
target only counts calls: these functions take a few microseconds, so a
timed wrapper would mostly measure itself.

Spans stay in memory until `write_spans` is called at exit.
"""

import gzip
import importlib
import sys
import time
from array import array

SPAN = "span"
COUNT = "count"

# (metric name, module, attribute path, kind).  The metric name is the
# module's short name plus the attribute path.
TARGETS = (
    ("hexsim.dynamics", "step", SPAN),
    ("hexsim.dynamics", "derivative", COUNT),
    ("hexsim.dynamics", "acceleration", SPAN),
    ("hexsim.dynamics", "synthesize_sensors", SPAN),
    ("hexsim.dynamics", "DisturbanceSampler.step", SPAN),
    ("hexsim.control", "GeoNdiController.tick", SPAN),
    ("hexsim.control", "IndiController.tick", SPAN),
    ("hexsim.control", "ReferenceShaper.step", SPAN),
    ("hexsim.control", "outer_loop", SPAN),
    ("hexsim.control", "ndi_invert", SPAN),
    ("hexsim.control", "make_controller", SPAN),
    ("hexsim.filters", "SecondOrderFilter.step", SPAN),
    ("hexsim.filters", "FilteredDerivative.step", SPAN),
    ("hexsim.vehicle", "allocate", SPAN),
    ("hexsim.vehicle", "saturate", SPAN),
    ("hexsim.vehicle", "build_effectiveness", SPAN),
    ("hexsim.geometry", "quat_to_rotmat", COUNT),
    ("hexsim.geometry", "quat_mul", COUNT),
    ("hexsim.experiments", "run_scenario", SPAN),
    ("hexsim.experiments", "_script_target", SPAN),
    ("hexsim.experiments", "error_statistics", SPAN),
    ("hexsim.experiments", "repeat_runs", SPAN),
    ("hexsim.cli", "write_log_csv", SPAN),
    ("hexsim.cli", "write_metrics_json", SPAN),
    ("hexsim.cli", "_sweep_cell", SPAN),
)

RUN_TARGET = "experiments.run_scenario"


def metric_name(module, attr):
    return module.rsplit(".", 1)[1] + "." + attr


class Tracer:
    """Wraps the given targets while installed (use as a context manager).

    Counters and spans accumulate over every installation of one tracer.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names = [metric_name(m, a) for m, a, _ in self.targets]
        self.calls = [0] * len(self.targets)
        self.self_ns = [0] * len(self.targets)
        # span columns, indexed by span id
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_run = array("q")
        self._stack = []      # open spans: [span id, child ns]
        self._run = 0
        self._restore = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        for idx, (module_name, attr, kind) in enumerate(self.targets):
            owner_path, _, leaf = attr.rpartition(".")
            module = importlib.import_module(module_name)
            if owner_path:
                owner = getattr(module, owner_path)
                original = owner.__dict__[leaf]
                wrapper = self._wrap(original, idx, kind)
                self._replace(owner, leaf, wrapper)
            else:
                original = getattr(module, leaf)
                wrapper = self._wrap(original, idx, kind)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if ((name == "hexsim" or name.startswith("hexsim."))
                            and mod.__dict__.get(leaf) is original):
                        self._replace(mod, leaf, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)
        self._stack.clear()
        return False

    def _replace(self, owner, leaf, wrapper):
        self._restore.append((owner, leaf, owner.__dict__[leaf]))
        setattr(owner, leaf, wrapper)

    def _wrap(self, fn, idx, kind):
        calls = self.calls
        if kind == COUNT:
            def counted(*args, **kwargs):
                calls[idx] += 1
                return fn(*args, **kwargs)
            return counted

        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_run = self.span_parent, self.span_run
        starts_run = self.names[idx] == RUN_TARGET

        def spanned(*args, **kwargs):
            if starts_run:
                self._run += 1
            span = len(s_name)
            s_name.append(idx)
            s_parent.append(stack[-1][0] if stack else -1)
            s_run.append(self._run)
            s_end.append(0)
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            s_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                s_end[span] = end
                dur = end - start
                calls[idx] += 1
                self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
        return spanned

    # -- results ------------------------------------------------------------

    def snapshot(self):
        """{metric name: (calls, self ns)} so far."""
        return {name: (self.calls[i], self.self_ns[i])
                for i, name in enumerate(self.names)}

    def spans_ns(self, name, first=0):
        """(start, end) of the spans of target `name`, from span id `first`
        on."""
        idx = self.names.index(name)
        return [(self.span_start[i], self.span_end[i])
                for i in range(first, len(self.span_name))
                if self.span_name[i] == idx]

    def write_spans(self, path):
        """Write every span as gzip CSV: name,start_ns,end_ns,parent,run."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("name,start_ns,end_ns,parent,run\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(f"{names[self.span_name[i]]},{self.span_start[i]},"
                         f"{self.span_end[i]},{self.span_parent[i]},"
                         f"{self.span_run[i]}\n")
