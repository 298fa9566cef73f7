"""Per-layer cost of one full-length study run, before and after its
maneuver starts.

    python3 perfbench/phase_shares.py --scenario exp4 --controller indi --freq 50
    python3 perfbench/phase_shares.py --scenario exp3 --controller geo

Run it from the root of a hexsim source tree.  The `sweep_freq` workload
stops before its study's maneuver, which starts at t = 5 s, to keep one
sweep to about 15 s (see README.md).  This script runs one traced
full-length `hexsim run` (exp3 with the gust, as in `run_gust`), splits
its spans where the maneuver starts, and prints, per traced function, the
mean self time per call and the share of the phase's wall time before and
after the split.  It also prints the share of controller ticks with a
saturated rotor in each phase.
"""

import argparse
import contextlib
import csv
import io
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from layertrace import RUN_TARGET, Tracer  # noqa: E402

ONSET_S = 5.0   # first setpoint change of exp3 and exp4
SEED = 1


def phase_costs(tracer, onset_step):
    """({name: (calls, self ns)} before and after the split, and the wall
    ns of each phase).  The split is the start of the `onset_step`-th
    `dynamics.step` span; a span belongs to the phase in which it starts.
    `run_scenario` gets the part of the phase no other span took."""
    names = tracer.names
    n = len(tracer.span_name)
    child_ns = [0] * n
    for i in range(n):
        parent = tracer.span_parent[i]
        if parent >= 0:
            child_ns[parent] += tracer.span_end[i] - tracer.span_start[i]
    steps = [i for i in range(n)
             if names[tracer.span_name[i]] == "dynamics.step"]
    (run,) = [i for i in range(n) if names[tracer.span_name[i]] == RUN_TARGET]
    split = tracer.span_start[steps[onset_step]]
    walls = (split - tracer.span_start[run], tracer.span_end[run] - split)
    phases = ({}, {})
    for i in range(n):
        name = names[tracer.span_name[i]]
        if i == run or not (tracer.span_start[run] <= tracer.span_start[i]
                            < tracer.span_end[run]):
            continue
        phase = phases[tracer.span_start[i] >= split]
        calls, self_ns = phase.get(name, (0, 0))
        phase[name] = (calls + 1, self_ns + tracer.span_end[i]
                       - tracer.span_start[i] - child_ns[i])
    for phase, wall in zip(phases, walls):
        phase[RUN_TARGET] = (1, wall - sum(v[1] for v in phase.values()))
    return phases, walls


def saturated_shares(log_path):
    """Share of logged ticks with a saturated rotor, before and after
    ONSET_S."""
    counts = [[0, 0], [0, 0]]   # [ticks, saturated ticks] per phase
    with open(log_path) as fh:
        for row in csv.DictReader(fh):
            phase = counts[float(row["t"]) >= ONSET_S]
            phase[0] += 1
            phase[1] += any(row[f"sat_{i}"] != "0" for i in range(1, 7))
    return [sat / ticks if ticks else 0.0 for ticks, sat in counts]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scenario", required=True, choices=("exp3", "exp4"))
    parser.add_argument("--controller", required=True, choices=("geo", "indi"))
    parser.add_argument("--freq", type=float, default=500.0)
    args = parser.parse_args(argv)

    import hexsim.cli
    from hexsim.dynamics import SIM_DT

    workdir = ROOT / ".perfbench_work" / "phase_shares"
    shutil.rmtree(workdir, ignore_errors=True)
    command = ["run", "--scenario", args.scenario, "--controller",
               args.controller, "--controller-freq", repr(args.freq),
               "--seed", str(SEED)]
    if args.scenario == "exp3":
        command.append("--gust")
    tracer = Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        code = hexsim.cli.main(command + ["--out", str(workdir)])
    if code != 0:
        raise SystemExit(f"hexsim exit {code}")
    phases, walls = phase_costs(tracer, round(ONSET_S / SIM_DT))
    saturated = saturated_shares(workdir / "log.csv")
    shutil.rmtree(workdir)

    print(f"hexsim {' '.join(command)}")
    print(f"{'':38s} {'before':>20s} {'after':>20s}")
    print(f"{'function':38s} {'us/call':>9s} {'share':>10s} "
          f"{'us/call':>9s} {'share':>10s}")
    for name in tracer.names:
        row = []
        for phase, wall in zip(phases, walls):
            calls, self_ns = phase.get(name, (0, 0))
            row.append(f"{self_ns / calls / 1e3 if calls else 0.0:9.2f} "
                       f"{self_ns / wall:10.4f}")
        if any(name in phase for phase in phases):
            print(f"{name:38s} {row[0]} {row[1]}")
    print(f"{'wall s':38s} {walls[0] / 1e9:20.3f} {walls[1] / 1e9:20.3f}")
    print(f"{'ticks with a saturated rotor':38s} {saturated[0]:20.4f} "
          f"{saturated[1]:20.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
