"""Golden record: the metrics of short canonical runs, stored as JSON.

Every study runs once per controller, just past its first maneuver (the
attitude steps and the square start at 5 s, the exp2 load at 6 s).  exp3
flies with the gust, exp4 at its lowest controller rate and exp5 with
noise, so the gust sampler, the low-rate path and the noisy sensors are
all covered.  A change that keeps behaviour must reproduce the stored
numbers to the tolerance below; a change that alters results on purpose
regenerates the file in a change of its own:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from hexsim import experiments as ex

GOLDEN_PATH = Path(__file__).with_name("golden_metrics.json")

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


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scenario_id,controller", CASES)
def test_matches_golden(golden, scenario_id, controller):
    expected = golden[f"{scenario_id}/{controller}"]
    actual = run_metrics(scenario_id, controller)
    assert actual.keys() == expected.keys()
    off = {k: (actual[k], expected[k]) for k in expected
           if not _close(actual[k], expected[k])}
    assert not off, f"metrics off the golden record: {off}"


if __name__ == "__main__":
    record = {f"{sid}/{ctrl}": run_metrics(sid, ctrl) for sid, ctrl in CASES}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
