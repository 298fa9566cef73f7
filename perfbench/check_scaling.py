"""Check that the speed scaling of run.py passes a change in hexsim's cost
through in full.

    python3 perfbench/check_scaling.py

Run it from the root of a hexsim source tree.  run.py scales the timed
metrics by the time of speed_kernel(), which runs inside the benchmarked
interpreter.  If hexsim's own state (its heap, the garbage collector's
work on it, the caches) slowed the kernel, a change to hexsim would move
the scale factor too, and the scaled metrics would hide part of it.

The script checks both halves of that.  First, it runs untraced
iterations exactly as run.py does, alternating plain ones with loaded
ones of `run_gust`, in which every `dynamics.step` call first runs a
fixed Python loop.
hexsim then takes longer by a known amount of work, and the script prints
the share of that added time (scaled like the rest) which the scaled
`wall_s` and run time (the divisor of `sim_rate`) show.  Second, it times
the kernel in back-to-back pairs, the second of each pair right after
building and walking a heap of HEAP_LISTS live lists, as a program with a
large state would, and prints the median ratio of the two.

It exits 1 when the scaled metrics show less than 1 - SHARE_TOL of the
added time, or the kernel ratio is outside 1 +- KERNEL_TOL.  A share above
1 hides nothing; the share of the unscaled `wall_s`, printed as well,
tells whether the excess is the program's own (added work slowing the
code around it) or the scaling's, though machine drift between
iterations makes it noisier.
"""

import bisect
import shutil
import statistics
import sys
import time

import run
from check import load_reference
from layertrace import RUN_TARGET, TARGETS, Tracer, metric_name
from workloads import WORKLOADS

WORKLOAD = "run_gust"
SEED = 1
ROUNDS = 5
WORK_LOOPS = 2000      # Python loop iterations per dynamics.step call
HEAP_LISTS = 300_000
KERNEL_PAIRS = 50
SHARE_TOL = 0.10
KERNEL_TOL = 0.05


class LoadedTracer(Tracer):
    """The tracer of an untraced run.py iteration, plus the added work at
    every `dynamics.step` call.  Keeps the (start ns, end ns) of each
    piece of added work."""

    def __init__(self):
        super().__init__([t for t in TARGETS
                          if metric_name(t[0], t[1]) == RUN_TARGET]
                         + [("hexsim.dynamics", "step", "work")])
        self.added = []

    def _wrap(self, fn, idx, kind):
        if kind != "work":
            return super()._wrap(fn, idx, kind)
        clock, added = time.perf_counter_ns, self.added

        def loaded(*args, **kwargs):
            start = clock()
            acc = 0.0
            for i in range(WORK_LOOPS):
                acc += i * 0.5
            added.append((start, clock()))
            return fn(*args, **kwargs)
        return loaded


def added_s(samples, added):
    """Seconds of added work, (at the reference machine speed, as
    measured), without the speed samples that fell inside it."""
    starts = [s for s, _ in samples]
    scaled = raw = 0.0
    for a, b in added:
        lo = max(bisect.bisect_right(starts, a) - 1, 0)
        hi = bisect.bisect_right(starts, b)
        scaled += run.scaled_ns(samples[lo:hi], a, b)
        raw += b - a - run.sampled_ns(samples[lo:hi], a, b)
    return scaled / 1e9, raw / 1e9


def kernel_ratios_with_heap():
    """Over KERNEL_PAIRS back-to-back pairs, the kernel time right after
    building and walking a large heap over the kernel time without it.
    The samples are taken as SpeedSampler takes them."""
    sampler = run.SpeedSampler(active=False)
    ratios = []
    for _ in range(KERNEL_PAIRS):
        sampler.sample()
        heap = [[i] for i in range(HEAP_LISTS)]
        sum(map(len, heap))
        sampler.sample()
        del heap
        (s0, e0), (s1, e1) = sampler.samples[-2:]
        ratios.append((e1 - s1) / (e0 - s0))
    return ratios


def main():
    if not (run.SRC / "hexsim" / "cli.py").is_file():
        raise SystemExit(f"no hexsim source tree at {run.SRC}")
    sys.path.insert(0, str(run.SRC))
    import hexsim.cli  # noqa: F401

    workload = WORKLOADS[WORKLOAD]
    reference = load_reference()
    plain_tracer = Tracer([t for t in TARGETS
                           if metric_name(t[0], t[1]) == RUN_TARGET])
    rows = {"plain": [], "loaded": []}
    for _ in range(ROUNDS):
        for kind in rows:
            tracer = plain_tracer if kind == "plain" else LoadedTracer()
            it = run.run_iteration(workload, SEED, tracer, False,
                                   reference)
            if it["problems"]:
                raise SystemExit(f"{kind} iteration failed: "
                                 f"{it['problems']}")
            wall, _, sim = run.scaled_times(it)
            added, raw_added = (added_s(it["samples_ns"], tracer.added)
                                if kind == "loaded" else (0.0, 0.0))
            rows[kind].append({
                "kernel_ms": statistics.median(
                    (e - s) / 1e6 for s, e in it["samples_ns"]),
                "wall_s": wall, "run_s": sim, "added_s": added,
                "raw_wall_s": it["wall_s"], "raw_run_s": sum(it["run_s"]),
                "raw_added_s": raw_added})
    plain, loaded = ({k: statistics.median(r[k] for r in rs) for k in rs[0]}
                     for rs in rows.values())
    shutil.rmtree(run.iteration_dir(workload), ignore_errors=True)

    print(f"{WORKLOAD}: {ROUNDS} plain and {ROUNDS} loaded iterations, "
          f"medians")
    print(f"{'':24s} {'plain':>10s} {'loaded':>10s}")
    for key, label in (("kernel_ms", "kernel ms"),
                       ("wall_s", "wall_s scaled"),
                       ("raw_wall_s", "wall_s unscaled"),
                       ("run_s", "run s scaled"),
                       ("raw_run_s", "run s unscaled"),
                       ("added_s", "added s scaled"),
                       ("raw_added_s", "added s unscaled")):
        print(f"{label:24s} {plain[key]:10.4f} {loaded[key]:10.4f}")
    for key, label in (("run_s", "sim_rate scaled"),
                       ("raw_run_s", "sim_rate unscaled")):
        print(f"{label:24s} {workload.simulated_s / plain[key]:10.4f} "
              f"{workload.simulated_s / loaded[key]:10.4f}")
    shares = [(loaded[key] - plain[key]) / loaded["added_s"]
              for key in ("wall_s", "run_s")]
    raw_share = ((loaded["raw_wall_s"] - plain["raw_wall_s"])
                 / loaded["raw_added_s"])
    print(f"share of the added time in scaled wall_s {shares[0]:.4f}, in "
          f"scaled run time {shares[1]:.4f} (at least {1 - SHARE_TOL}); "
          f"in unscaled wall_s {raw_share:.4f}")
    ratios = kernel_ratios_with_heap()
    ratio = statistics.median(ratios)
    print(f"kernel time with a heap of {HEAP_LISTS} lists over without, "
          f"{KERNEL_PAIRS} pairs: median {ratio:.4f} (tolerance 1 +- "
          f"{KERNEL_TOL}), largest {max(ratios):.4f}")
    ok = (all(s >= 1.0 - SHARE_TOL for s in shares)
          and abs(ratio - 1.0) <= KERNEL_TOL)
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
