"""hexsim benchmark.

    python3 perfbench/run.py --workload run_gust --seed 1 --seconds 15 --trace 0

Runs from the root of a hexsim source tree and drives the package only
through `hexsim.cli.main` with generated command lines and config files
(see workloads.py).  It repeats the workload for about `--seconds`
seconds, checks every iteration's outputs (check.py) and that iterations
with the same seed write byte-identical artifacts, writes a results file
with a machine record under .perfbench_work/results/, prints every metric
with its unit, and prints one JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of layertrace.py, taken from traced iterations that alternate with
untraced ones.  `attempted` counts closed-loop runs; a run fails when its
iteration fails a check.
"""

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

from check import check_iteration, load_reference  # noqa: E402
from layertrace import COUNT, RUN_TARGET, TARGETS, Tracer, metric_name  # noqa: E402
from workloads import WORKLOADS, collect, hexsim_seed, invocations  # noqa: E402

SETUP_REPEATS = 7
MIN_ROUNDS = 2
KERNEL_STEPS = 150
KERNEL_REF_S = 0.0075   # typical speed_kernel() time; see README
SAMPLE_PERIOD_S = 0.1
SETUP_KERNEL_STEPS = 150000
SETUP_KERNEL_REF_S = 0.03   # typical set-up kernel time; see README

# Timed in a fresh interpreter: import plus the first params,
# effectiveness and controller, which is what every `hexsim` call pays.
# A pure-Python kernel runs just before and just after, in the same
# interpreter, to tell how fast the machine is at that moment; it cannot
# use numpy, whose import is part of the set-up.
SETUP_SNIPPET = """\
import time

def kernel():
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(%d):
        acc += (i * 0.5) %% 7.0
        table[i & 255] = acc
    return time.perf_counter() - t0

before = kernel()
t0 = time.perf_counter()
import hexsim
from hexsim import control, vehicle
params = vehicle.default_params()
vehicle.build_effectiveness(params)
control.make_controller("indi", control.make_model(params), control.Gains(),
                        0.002)
setup = time.perf_counter() - t0
print(repr(setup), repr(before), repr(kernel()))
""" % SETUP_KERNEL_STEPS

END_TO_END = (
    # name, unit, better
    ("wall_s", "s", "lower"),
    ("sim_rate", "sim_s/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("pass_frac", "frac", "higher"),
)


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for module, attr, kind in TARGETS:
        name = metric_name(module, attr)
        out.append((f"{name}.calls", "count", "lower"))
        if name.startswith("geometry."):
            out.append((f"{name}.per_step", "calls/step", "lower"))
        if kind == COUNT:
            continue
        out.append((f"{name}.us", "us", "lower"))
        out.append((f"{name}.share", "frac", "lower"))
        if name == "cli.write_log_csv":
            out.append((f"{name}.rows", "count", "higher"))
            out.append((f"{name}.us_per_row", "us", "lower"))
            out.append((f"{name}.mb_per_s", "MB/s", "higher"))
    out.append(("trace.overhead_frac", "frac", "lower"))
    return out


def speed_kernel():
    """(start ns, end ns) of a fixed piece of work shaped like hexsim's hot
    path: Python-level arithmetic on 3- and 4-vectors with small numpy
    operations.  Its time tracks how fast this machine runs such code at
    the moment; scaled_times() uses it to rescale the timed metrics."""
    import numpy as np
    x = np.array([0.1, 0.2, 0.3])
    m = 0.999 * np.eye(3)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    t0 = time.perf_counter_ns()
    for _ in range(KERNEL_STEPS):
        k1 = m @ x + np.cross(x, 0.5 * x)
        k2 = m @ (x + 2.5e-4 * k1)
        x = x + 5e-4 * (k1 + 2.0 * k2) / 3.0
        w, a, b, c = q
        q = np.array([w - 1e-4 * a, a + 1e-4 * w, b, c])
        q = q / np.linalg.norm(q)
    return t0, time.perf_counter_ns()


class SpeedSampler:
    """While installed (a context manager), runs speed_kernel() at once
    and then every SAMPLE_PERIOD_S from a SIGALRM timer, so the samples
    interleave with the work.  Keeps each sample's (start ns, end ns) and
    the CPU seconds all samples took.  An inactive sampler does nothing."""

    def __init__(self, active=True):
        self.active = active
        self.samples = []
        self.cpu_s = 0.0

    def sample(self, *_):
        # The collector stays off during the kernel, so that a collection
        # of hexsim's objects cannot fall inside a sample.
        c0 = time.process_time()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(speed_kernel())
        finally:
            if gc_was_enabled:
                gc.enable()
        self.cpu_s += time.process_time() - c0

    def __enter__(self):
        if not self.active:
            return self
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        return False


def hexsim_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup():
    """SETUP_REPEATS fresh-interpreter set-ups, after one untimed set-up
    that compiles the bytecode, as (set-up s, kernel s before, kernel s
    after) each."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=hexsim_env(),
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(tuple(map(float, out.stdout.split()[-3:])))
    return samples[1:]


def scaled_setup(sample):
    """A set-up time at the reference machine speed: multiplied by
    SETUP_KERNEL_REF_S over the mean of the kernel times around it."""
    setup, before, after = sample
    return setup * SETUP_KERNEL_REF_S / ((before + after) / 2)


def machine_record():
    import numpy
    import scipy
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model,
        "load_avg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def iteration_dir(workload):
    """Where this process's iterations of `workload` write their outputs."""
    return WORK / f"{workload.name}-{os.getpid()}"


def run_iteration(workload, seed, tracer, traced, reference):
    """Run the workload's command lines once under `tracer`; return the
    timings, the traced counters and the output-check problems.  An
    untraced iteration also samples the machine's speed (SpeedSampler);
    a traced one does not, because a sample would add to the self time of
    the span it interrupts."""
    import hexsim.cli

    workdir = iteration_dir(workload)
    shutil.rmtree(workdir, ignore_errors=True)
    commands = invocations(workload, seed, workdir)
    problems = []
    before = tracer.snapshot()
    first_span = len(tracer.span_name)
    speed = SpeedSampler(active=not traced)
    sink = io.StringIO()
    with tracer, speed, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        sampled_cpu = -speed.cpu_s
        t0 = time.perf_counter_ns()
        for label, argv in commands:
            try:
                code = hexsim.cli.main(argv)
            except Exception:  # recorded as a failed run, keep measuring
                code = traceback.format_exc()
            if code != 0:
                problems.append(f"{label}: hexsim exit {code}")
        t1 = time.perf_counter_ns()
        sampled_cpu += speed.cpu_s
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    after = tracer.snapshot()
    delta = {name: tuple(a - b for a, b in zip(after[name], before[name]))
             for name in after}
    samples = speed.samples
    runs = tracer.spans_ns(RUN_TARGET, first_span)
    cpu = ((ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
           - sampled_cpu)
    if len(runs) != workload.runs:
        problems.append(f"{len(runs)} closed-loop runs, expected "
                        f"{workload.runs}")
    digests, artifacts = {}, None
    if not problems:
        try:
            results, digests, artifacts = collect(workload, workdir)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable artifacts: {exc!r}")
        else:
            problems += check_iteration(workload.name, hexsim_seed(seed),
                                        results, artifacts, reference)
    return {
        "traced": traced,
        "wall_s": (t1 - t0 - sampled_ns(samples, t0, t1)) / 1e9,
        "cpu_s": cpu,
        "run_s": [(b - a - sampled_ns(samples, a, b)) / 1e9
                  for a, b in runs],
        "span_ns": [t0, t1],
        "run_spans_ns": runs,
        "samples_ns": samples,
        "layers": delta,
        "artifacts": artifacts,
        "digests": digests,
        "problems": problems,
        "output": sink.getvalue()[-2000:] if problems else "",
    }


def measure(workload, seed, seconds, trace, reference):
    """Repeat the workload until the next round would overrun `seconds`,
    but for at least MIN_ROUNDS rounds, so the digests and the traced call
    counts are compared.  A round is one untraced iteration, followed by a
    traced one when `trace` is set.  Returns (iterations, full tracer or
    None)."""
    untraced = Tracer([t for t in TARGETS
                       if metric_name(t[0], t[1]) == RUN_TARGET])
    traced = Tracer() if trace else None
    iterations = []
    start = time.perf_counter()
    for rounds in itertools.count(1):
        round_start = time.perf_counter()
        for tracer in (untraced, traced):
            if tracer is not None:
                iterations.append(run_iteration(
                    workload, seed, tracer, tracer is traced, reference))
        elapsed = time.perf_counter() - start
        if (rounds >= MIN_ROUNDS and
                elapsed + (time.perf_counter() - round_start) > seconds):
            return iterations, traced


def mark_failures(iterations):
    """Add cross-iteration problems: artifact digests must repeat across
    iterations (same seed), and traced call counts must repeat exactly."""
    first_digests = next((it["digests"] for it in iterations
                          if it["digests"]), None)
    traced = [it for it in iterations if it["traced"]]
    for it in iterations:
        if it["digests"] and it["digests"] != first_digests:
            it["problems"].append("artifact digests differ from the first "
                                  "iteration with the same seed")
    for it in traced[1:]:
        calls = {k: v[0] for k, v in it["layers"].items()}
        if calls != {k: v[0] for k, v in traced[0]["layers"].items()}:
            it["problems"].append("traced call counts differ from the "
                                  "first traced iteration")


def sampled_ns(samples, a, b):
    """Nanoseconds of [a, b] taken by the speed samples."""
    return sum(max(0, min(e, b) - max(s, a)) for s, e in samples)


def scaled_ns(samples, a, b):
    """Nanoseconds of [a, b] outside the speed samples, at the reference
    machine speed: each piece between two samples is multiplied by
    KERNEL_REF_S over the kernel time of the sample before it."""
    total = 0.0
    for i, (s, e) in enumerate(samples):
        nxt = samples[i + 1][0] if i + 1 < len(samples) else b
        lo, hi = max(a, e), min(b, nxt)
        if hi > lo:
            total += (hi - lo) * KERNEL_REF_S * 1e9 / (e - s)
    return total


def scaled_times(it):
    """(wall s, CPU s, simulation s) of one untraced iteration at the
    reference machine speed.  Simulation time is that of the closed-loop
    runs (spans of `run_scenario`).  CPU time is scaled by the same
    factor as wall time."""
    samples = it["samples_ns"]
    wall = scaled_ns(samples, *it["span_ns"]) / 1e9
    sim = sum(scaled_ns(samples, a, b) for a, b in it["run_spans_ns"]) / 1e9
    return wall, it["cpu_s"] * wall / it["wall_s"], sim


def end_to_end_metrics(workload, iterations, setup_samples):
    """(metrics, unscaled): the timed metrics at the reference machine
    speed (scaled_times, scaled_setup), and the same medians unscaled."""
    done = [it for it in iterations if len(it["run_s"]) == workload.runs]
    scaled = [scaled_times(it) for it in done]
    raw = [(it["wall_s"], it["cpu_s"], sum(it["run_s"])) for it in done]

    def medians(rows):
        if not rows:
            return {"wall_s": 0.0, "cpu_s": 0.0, "sim_rate": 0.0}
        return {"wall_s": statistics.median(r[0] for r in rows),
                "cpu_s": statistics.median(r[1] for r in rows),
                "sim_rate": statistics.median(workload.simulated_s / r[2]
                                              for r in rows)}
    metrics, unscaled = medians(scaled), medians(raw)
    unscaled["kernel_s"] = statistics.median(
        [(e - s) / 1e9 for it in iterations for s, e in it["samples_ns"]]
        or [0.0])
    unscaled["setup_s"] = statistics.median(x[0] for x in setup_samples)
    metrics.update({
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(scaled_setup(x) for x in setup_samples),
        "pass_frac": sum(not it["problems"] for it in iterations)
        / len(iterations),
    })
    return metrics, unscaled


def per_layer_values(iterations):
    traced = [it for it in iterations if it["traced"]]
    untraced = [it for it in iterations if not it["traced"]]
    wall_ns = sum(it["wall_s"] for it in traced) * 1e9
    totals = {}
    for it in traced:
        for name, values in it["layers"].items():
            totals[name] = [a + b for a, b in
                            zip(totals.get(name, (0, 0)), values)]
    first = traced[0]["layers"]
    step_calls = first["dynamics.step"][0]
    out = {}
    for module, attr, kind in TARGETS:
        name = metric_name(module, attr)
        calls, self_ns = totals[name]
        out[f"{name}.calls"] = first[name][0]
        if name.startswith("geometry."):
            out[f"{name}.per_step"] = (first[name][0] / step_calls
                                       if step_calls else 0.0)
        if kind == COUNT:
            continue
        out[f"{name}.us"] = self_ns / calls / 1e3 if calls else 0.0
        out[f"{name}.share"] = self_ns / wall_ns
        if name == "cli.write_log_csv":
            rows = sum(it["artifacts"]["log_rows"] for it in traced
                       if it["artifacts"])
            size = sum(it["artifacts"]["log_bytes"] for it in traced
                       if it["artifacts"])
            out[f"{name}.rows"] = rows // len(traced)
            out[f"{name}.us_per_row"] = self_ns / rows / 1e3 if rows else 0.0
            out[f"{name}.mb_per_s"] = (size / (self_ns / 1e9) / 1e6
                                       if self_ns else 0.0)
    out["trace.overhead_frac"] = (
        statistics.median(it["wall_s"] for it in traced)
        / statistics.median(it["wall_s"] for it in untraced) - 1.0)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hexsim" / "cli.py").is_file():
        print(f"perfbench: no hexsim source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    reference = load_reference()
    machine = machine_record()

    setup = []
    if not args.trace:
        setup = measure_setup()
    import hexsim.cli  # noqa: F401  (imports stay out of the timed region)

    iterations, tracer = measure(workload, args.seed, args.seconds,
                                 args.trace, reference)
    mark_failures(iterations)
    if args.trace:
        metrics, raw = per_layer_values(iterations), {}
        units = per_layer_metrics()
    else:
        metrics, raw = end_to_end_metrics(workload, iterations, setup)
        units = END_TO_END
    failed_iterations = sum(bool(it["problems"]) for it in iterations)

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(results_dir / f"{stem}.spans.csv.gz")
    record = {
        "workload": workload.name, "why": workload.why,
        "seed": args.seed, "hexsim_seed": hexsim_seed(args.seed),
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine,
        "setup_samples": setup,   # (set-up s, kernel s before, after)
        "kernel_ref_s": KERNEL_REF_S,
        "setup_kernel_ref_s": SETUP_KERNEL_REF_S,
        "unscaled": raw,
        "iterations": [{k: v for k, v in it.items() if k != "layers"}
                       for it in iterations],
        "metrics": metrics,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(iteration_dir(workload), ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed} (hexsim seed "
          f"{hexsim_seed(args.seed)}): {len(iterations)} iterations, "
          f"{failed_iterations} failed; machine {machine['cores']} cores, "
          f"{machine['cpu_model']}, load {machine['load_avg_start'][0]:.2f}")
    for it in iterations:
        for problem in it["problems"]:
            print(f"  FAIL: {problem}")
    for name, unit, _ in units:
        unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:42s} {metrics[name]:>14.6g} {unit}{unscaled}")
    if raw:
        print(f"  speed kernel {raw['kernel_s']:.4g} s, reference "
              f"{KERNEL_REF_S} s")
    attempted = workload.runs * len(iterations)
    print(json.dumps({
        "correct": failed_iterations == 0,
        "attempted": attempted,
        "failed": workload.runs * failed_iterations,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
