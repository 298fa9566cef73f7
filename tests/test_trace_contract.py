"""The calls that perfbench/layertrace.py counts from outside the package.

The benchmark's per-layer trace wraps named functions at their module
attributes (or on their class) and reads, among others, one
dynamics.step call per truth step and one DisturbanceSampler.step call
per disturbance draw, and one call of each controller layer per tick.
These tests keep run_scenario making exactly those calls through the
wrappable attributes, and every traced name resolving.  The benchmark file is only read for its TARGETS table.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from hexsim import control, filters, vehicle
from hexsim import dynamics as dyn
from hexsim import experiments as ex

LAYERTRACE = (Path(__file__).resolve().parents[1] / "perfbench"
              / "layertrace.py")


def layertrace_targets():
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = layertrace_targets()
    assert targets
    for module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def count_calls(monkeypatch, owner, leaf):
    """Replace owner.leaf with a call counter the way layertrace installs
    its wrappers: on the class for a method, and at every hexsim module
    attribute that holds it for a function.  Returns the one-element
    count list."""
    original = owner.__dict__[leaf]
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, leaf, counted)
        return calls
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if ((name == "hexsim" or name.startswith("hexsim."))
                and mod.__dict__.get(leaf) is original):
            monkeypatch.setattr(mod, leaf, counted)
    return calls


@pytest.mark.parametrize("scenario_id, controller, overrides", [
    ("exp3", "indi", {"gust": True, "duration": 2.5}),
    ("exp4", "geo", {"controller_freq": 50.0, "duration": 2.2}),
], ids=["exp3-gust", "exp4-50Hz"])
def test_run_scenario_makes_the_traced_calls(monkeypatch, scenario_id,
                                             controller, overrides):
    steps = count_calls(monkeypatch, dyn, "step")
    draws = count_calls(monkeypatch, dyn.DisturbanceSampler, "step")
    scenario = ex.build_scenario(scenario_id, controller, overrides)
    _, n_steps = ex._clock(scenario)
    ex.run_scenario(scenario)
    # one truth step per step; one draw before the loop and one per step
    assert steps[0] == n_steps
    assert draws[0] == n_steps + 1


@pytest.mark.parametrize("controller", ["geo", "indi"])
def test_each_tick_makes_the_traced_layer_calls(monkeypatch, controller):
    counts = {
        "tick": count_calls(monkeypatch, control.GeoNdiController, "tick"),
        "other_tick": count_calls(monkeypatch, control.IndiController,
                                  "tick"),
        "shaper": count_calls(monkeypatch, control.ReferenceShaper, "step"),
        "outer_loop": count_calls(monkeypatch, control, "outer_loop"),
        "ndi_invert": count_calls(monkeypatch, control, "ndi_invert"),
        "allocate": count_calls(monkeypatch, vehicle, "allocate"),
        "saturate": count_calls(monkeypatch, vehicle, "saturate"),
        "filter": count_calls(monkeypatch, filters.SecondOrderFilter, "step"),
        "derivative": count_calls(monkeypatch, filters.FilteredDerivative,
                                  "step"),
    }
    if controller == "indi":
        counts["tick"], counts["other_tick"] = (counts["other_tick"],
                                                counts["tick"])
    scenario = ex.build_scenario("exp5", controller,
                                 {"duration": 2.1, "noise_scale": 7})
    n_sub, n_steps = ex._clock(scenario)
    ex.run_scenario(scenario)
    ticks = (n_steps + n_sub - 1) // n_sub
    # the hover trim is allocated (and so saturated) once before the loop
    geo = controller == "geo"
    assert {name: calls[0] for name, calls in counts.items()} == {
        "tick": ticks, "other_tick": 0, "shaper": ticks,
        "outer_loop": ticks, "ndi_invert": ticks if geo else 0,
        "allocate": 1 + (ticks if geo else 0), "saturate": 1 + ticks,
        "filter": 0 if geo else ticks, "derivative": 0 if geo else ticks}
