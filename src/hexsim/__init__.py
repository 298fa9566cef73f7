"""Rigid-body simulator and full-pose controllers (geometric NDI and
sensor-based INDI) for a fixed-tilt fully actuated hexarotor, plus the
scenario harness behind the comparison studies."""

__version__ = "0.1.0"

from .control import Gains, GeoNdiController, IndiController, make_model
from .dynamics import DisturbanceSpec, NonFiniteState
from .experiments import RunMetrics, Scenario, build_scenario, repeat_runs, \
    run_scenario
from .vehicle import (ActuatorCommand, DegenerateGeometry,
                      EffectivenessMatrices, PlatformParams, allocate,
                      build_effectiveness, default_params)
