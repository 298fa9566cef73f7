"""Regenerate reference.json, the stored outputs the benchmark checks
against, and measure the tolerance of that check.

    python3 perfbench/make_reference.py

Run it from the root of a hexsim source tree, and only for a change that
alters results on purpose (a new random stream, a fixed bug); a change
that only claims speed must pass against the stored file.

Reference: one iteration of every workload for each of the SEED_POOL
hexsim seeds.

Tolerance: every workload is run again for TOLERANCE_SEEDS seeds with the
platform mass moved by one unit in the last place (2.95 kg to the next
float).  That stands in for the last-digit differences a reordering of
the arithmetic causes.  Those differences are absolute: every metric is
an average of errors of states of order one, so a metric of 1e-9 moves
as far as one of 0.2.  The tolerance is therefore absolute: the largest
change of any metric times SAFETY, at least ABS_FLOOR.  The relative
tolerance REL_FLOOR only matters for metrics above ABS_FLOOR / REL_FLOOR.
"""

import contextlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from check import REFERENCE_PATH, flatten  # noqa: E402
from workloads import SEED_POOL, WORKLOADS, collect, invocations  # noqa: E402

TOLERANCE_SEEDS = 3
SAFETY = 1000.0
REL_FLOOR = 1e-9
ABS_FLOOR = 1e-10
MASS = 2.95


def run_once(workload, seed, platform=None):
    import hexsim.cli
    workdir = ROOT / ".perfbench_work" / "reference" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    for label, argv in invocations(workload, seed, workdir, platform):
        with contextlib.redirect_stdout(io.StringIO()):
            code = hexsim.cli.main(argv)
        if code != 0:
            raise SystemExit(f"{workload.name} seed {seed} {label}: "
                             f"hexsim exit {code}")
    results, _, artifacts = collect(workload, workdir)
    if not artifacts["finite"]:
        raise SystemExit(f"{workload.name} seed {seed}: non-finite output")
    shutil.rmtree(workdir)
    return results


def main():
    perturbed = {"mass": math.nextafter(MASS, math.inf)}
    reference = {"workloads": {}}
    changes = []   # (reference value, absolute change)
    for workload in WORKLOADS.values():
        per_seed = {}
        for seed in range(SEED_POOL):
            results = run_once(workload, seed)
            # benchmark seed s uses hexsim seed 1 + s % SEED_POOL
            per_seed[str(1 + seed)] = results
            if seed < TOLERANCE_SEEDS:
                moved = flatten(run_once(workload, seed, perturbed))
                changes += [(a, abs(moved[key] - a))
                            for key, a in flatten(results).items()
                            if isinstance(a, float)]
            print(f"{workload.name} seed {seed}: done", flush=True)
        reference["workloads"][workload.name] = per_seed
    worst_abs = max(d for _, d in changes)
    worst_rel = max(d / abs(a) for a, d in changes if a)
    reference["tolerance"] = {
        "rel": REL_FLOOR,
        "abs": max(ABS_FLOOR, SAFETY * worst_abs),
        "measured_rel": worst_rel,
        "measured_abs": worst_abs,
        "how": (f"largest change of any metric when the platform mass moves "
                f"by one ulp ({MASS} -> {perturbed['mass']!r}), over "
                f"{TOLERANCE_SEEDS} seeds of every workload, times "
                f"{SAFETY:g}, at least {ABS_FLOOR:g}; rel fixed at "
                f"{REL_FLOOR:g}"),
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True)
                              + "\n")
    print(f"wrote {REFERENCE_PATH}: tolerance {reference['tolerance']}")


if __name__ == "__main__":
    main()
