"""Golden record: the metrics of short canonical runs, stored as JSON.

Every study runs once per controller, just past its first maneuver (the
attitude steps and the square start at 5 s, the exp2 load at 6 s).  exp3
flies with the gust, exp4 at its lowest controller rate and exp5 with
noise, so the gust sampler, the low-rate path and the noisy sensors are
all covered.  A change that keeps behaviour must reproduce the stored
numbers to the tolerance below; a change that alters results on purpose
regenerates the files in a change of its own.

golden_studies.json holds, at the same tolerance, every metric of the
full-length studies that the acceptance fixtures compute: the exp1
mismatch table, the exp2 runs and the exp4 and exp5 sweep tables.
test_acceptance.py checks it from its module fixtures, so it costs no
run of its own.  Both files are written by

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import tempfile
from pathlib import Path

import pytest

from hexsim import experiments as ex

GOLDEN_PATH = Path(__file__).with_name("golden_metrics.json")
STUDIES_PATH = Path(__file__).with_name("golden_studies.json")

# one unit in the last place of a model parameter moves no metric by more
# than 9.8e-14 in absolute terms (perfbench/README.md, Output check)
REL, ABS = 1e-9, 1e-10

RUNS = {
    "exp1": {"duration": 6.0},
    "exp2": {"duration": 6.5},
    "exp3": {"duration": 6.0, "gust": True},
    "exp4": {"duration": 6.0, "controller_freq": 50.0},
    "exp5": {"duration": 6.0, "noise_scale": 7},
}
CASES = [(sid, ctrl) for sid in RUNS for ctrl in ("geo", "indi")]


def run_metrics(scenario_id, controller):
    sc = ex.build_scenario(scenario_id, controller, RUNS[scenario_id])
    _, metrics = ex.run_scenario(sc)
    return metrics.as_dict()


def _close(actual, expected):
    if expected is None or actual is None:
        return actual is expected
    if isinstance(expected, list):
        return len(actual) == len(expected) and all(
            _close(a, e) for a, e in zip(actual, expected))
    if math.isnan(expected):
        return math.isnan(actual)
    return math.isclose(actual, expected, rel_tol=REL, abs_tol=ABS)


def off_record(actual, expected):
    """{key: (actual, expected)} for each value of a flat record of
    metrics off its stored value."""
    assert actual.keys() == expected.keys()
    return {k: (actual[k], expected[k]) for k in expected
            if not _close(actual[k], expected[k])}


def studies_record(exp1_table, exp2_runs, exp4_table, exp5_table):
    """The acceptance fixtures' study metrics as one flat record: each
    exp1 and exp2 run's metrics and each sweep row's statistics, under
    "<study>/<controller>[/<cell>]/<metric>"."""
    runs = {f"exp1/{ctrl}/cf_mismatch={cf}": m.as_dict()
            for (ctrl, cf), m in exp1_table.items()}
    runs.update((f"exp2/{ctrl}", m.as_dict())
                for ctrl, (_, m) in exp2_runs.items())
    for sid, axis, table in (("exp4", "frequency", exp4_table),
                             ("exp5", "noise", exp5_table)):
        runs.update((f"{sid}/{ctrl}/{axis}={value}", vars(row))
                    for (ctrl, value), row in table.items())
    return {f"{run}/{k}": v for run, metrics in runs.items()
            for k, v in metrics.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scenario_id,controller", CASES)
def test_matches_golden(golden, scenario_id, controller):
    off = off_record(run_metrics(scenario_id, controller),
                     golden[f"{scenario_id}/{controller}"])
    assert not off, f"metrics off the golden record: {off}"


def write(path, record):
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    import test_acceptance as acc
    from hexsim import vehicle
    write(GOLDEN_PATH, {f"{sid}/{ctrl}": run_metrics(sid, ctrl)
                        for sid, ctrl in CASES})
    params = vehicle.default_params()
    with tempfile.TemporaryDirectory() as tmp:
        write(STUDIES_PATH, studies_record(
            acc.exp1_study(params), acc.exp2_study(params),
            acc.exp4_study(Path(tmp)), acc.exp5_study(Path(tmp))))
