"""The three benchmark workloads and the hexsim inputs they generate.

Each workload is a list of `hexsim` command lines (argv for
`hexsim.cli.main`) plus the config files they read.  The benchmark seed
picks the hexsim seed from a pool of SEED_POOL seeds, because the output
check compares every run against a stored per-seed reference
(reference.json).  The work done does not depend on the seed: only the
random gust and sensor-noise realisations change.

Why each workload exists is recorded in README.md next to this file.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

SEED_POOL = 10
REPEATS = 1              # sweep repeats per cell
CONTROLLERS = ("geo", "indi")
# the sweep grids of hexsim.experiments (CONTROLLER_FREQS, NOISE_SCALES)
SWEEP_CELLS = {"frequency": 5, "noise": 6}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    duration: float          # simulated seconds of each hexsim run
    axis: str = None         # sweep axis; None for `hexsim run`

    @property
    def runs(self):
        """Number of closed-loop runs (`run_scenario` calls) per iteration."""
        if self.axis is None:
            return len(CONTROLLERS)
        return len(CONTROLLERS) * SWEEP_CELLS[self.axis] * REPEATS

    @property
    def simulated_s(self):
        return self.runs * self.duration


WORKLOADS = {w.name: w for w in (
    Workload(
        "run_gust",
        "one long exp3 gust run per controller at 500 Hz: the only user of "
        "the gust sampler and the log.csv writer; nothing to batch",
        duration=7.0),
    Workload(
        "sweep_freq",
        "exp4 frequency sweep: mostly low controller rates, so the RK4 "
        "truth step dominates; batches would hold only the repeats",
        duration=2.2, axis="frequency"),
    Workload(
        "sweep_noise",
        "exp5 noise sweep at 500 Hz: controller tick and noisy sensors "
        "weigh more; six runs per controller share one rate",
        duration=2.1, axis="noise"),
)}


def hexsim_seed(seed):
    """The hexsim run seed for a benchmark seed: 1..SEED_POOL."""
    return 1 + int(seed) % SEED_POOL


def invocations(workload, seed, workdir, platform=None):
    """Write the workload's config files under `workdir` and return its
    command lines as [(label, argv)].  Outputs go under `workdir`.

    `platform` adds a [platform] config section; make_reference.py uses it
    to perturb the model when it measures the check tolerance.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    hseed = hexsim_seed(seed)
    platform_ini = "".join(
        ["[platform]\n"] + [f"{k} = {v!r}\n" for k, v in platform.items()]
    ) if platform else ""
    if workload.axis is None:
        extra = []
        if platform_ini:
            (workdir / "run.ini").write_text(platform_ini)
            extra = ["--config", str(workdir / "run.ini")]
        return [(c, ["run", "--scenario", "exp3", "--gust",
                     "--controller", c, "--controller-freq", "500",
                     "--seed", str(hseed),
                     "--duration", repr(workload.duration),
                     "--out", str(workdir / c)] + extra)
                for c in CONTROLLERS]
    config = workdir / "sweep.ini"
    config.write_text(
        "[run]\n"
        f"seed = {hseed}\n"
        f"duration = {workload.duration!r}\n"
        "[sweep]\n"
        f"axis = {workload.axis}\n"
        f"repeats = {REPEATS}\n"
        "jobs = 1\n"
        f"out = {workdir / 'sweep.csv'}\n" + platform_ini)
    return [("sweep", ["sweep", "--config", str(config)])]


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def collect(workload, workdir):
    """Read back what one iteration wrote.

    Returns (results, digests, artifacts): `results` holds the metrics the
    output check compares, keyed "<controller>" for runs and
    "<axis value>/<controller>" for sweeps; `digests` maps each artifact to
    its sha256; `artifacts` has the row and byte counts of the logs and
    whether every artifact is free of non-finite numbers.
    """
    workdir = Path(workdir)
    results, digests = {}, {}
    artifacts = {"log_rows": 0, "log_bytes": 0, "finite": True}
    if workload.axis is None:
        for c in CONTROLLERS:
            log = workdir / c / "log.csv"
            metrics = workdir / c / "metrics.json"
            data = log.read_bytes()
            digests[f"{c}/log.csv"] = hashlib.sha256(data).hexdigest()
            digests[f"{c}/metrics.json"] = _sha256(metrics)
            artifacts["log_rows"] += data.count(b"\n") - 1
            artifacts["log_bytes"] += len(data)
            if b"nan" in data or b"inf" in data:
                artifacts["finite"] = False
            results[c] = json.loads(metrics.read_text())["metrics"]
        return results, digests, artifacts
    csv = workdir / "sweep.csv"
    digests["sweep.csv"] = _sha256(csv)
    lines = csv.read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",", len(header) - 1)))
        key = f"{float(row[workload.axis])!r}/{row['controller']}"
        if row["status"] != "ok":
            artifacts["finite"] = False
            results[key] = {"status": row["status"]}
            continue
        results[key] = {k: float(row[k]) for k in (
            "lon_att_mean_deg", "lon_att_std_deg",
            "pos_norm_mean", "pos_norm_std")}
    return results, digests, artifacts
