"""Output check for one benchmark iteration.

An iteration passes when
  * every artifact is finite and every sweep cell finished ("ok"),
  * every metric matches the stored reference for its seed within the
    tolerance recorded in reference.json (see make_reference.py for how
    it was measured),
  * every cell shows the paper's ordering: `indi` has a lower
    pos_norm_mean than `geo`.
The determinism check (artifact digests) lives in run.py, because it
compares iterations with each other.
"""

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def flatten(results):
    """{"geo": {"pos_abs_mean": [a, b, c]}} -> {"geo/pos_abs_mean/0": a, ...}"""
    flat = {}

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}/{k}" if prefix else k, v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{prefix}/{i}", v)
        else:
            flat[prefix] = value
    walk("", results)
    return flat


def compare(results, expected, rel_tol, abs_tol):
    """Problems (strings) where `results` differs from `expected`."""
    got, want = flatten(results), flatten(expected)
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            problems.append(f"{key}: present in only one of result/reference")
            continue
        a, b = got[key], want[key]
        if isinstance(a, float) or isinstance(b, float):
            if a is None or b is None or not math.isclose(
                    a, b, rel_tol=rel_tol, abs_tol=abs_tol):
                problems.append(f"{key}: {a!r} != reference {b!r}")
        elif a != b:
            problems.append(f"{key}: {a!r} != reference {b!r}")
    return problems


def ordering_problems(results):
    """Cells where indi's pos_norm_mean is not below geo's."""
    problems = []
    cells = sorted({key.rpartition("/")[0] for key in results})
    for cell in cells:
        prefix = f"{cell}/" if cell else ""
        geo = results.get(prefix + "geo", {}).get("pos_norm_mean")
        indi = results.get(prefix + "indi", {}).get("pos_norm_mean")
        if geo is None or indi is None or not indi < geo:
            problems.append(f"{cell or 'run'}: indi pos_norm_mean {indi!r} "
                            f"not below geo {geo!r}")
    return problems


def check_iteration(workload_name, hseed, results, artifacts, reference):
    """All output problems of one iteration; empty when it passes."""
    problems = []
    if not artifacts["finite"]:
        problems.append("non-finite value or failed cell in the artifacts")
    values = [v for v in flatten(results).values() if isinstance(v, float)]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite metric")
    expected = reference["workloads"][workload_name].get(str(hseed))
    if expected is None:
        problems.append(f"no reference for hexsim seed {hseed}")
    else:
        tol = reference["tolerance"]
        problems += compare(results, expected, tol["rel"], tol["abs"])
    problems += ordering_problems(results)
    return problems
