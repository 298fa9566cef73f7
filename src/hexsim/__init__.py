"""Rigid-body simulator and full-pose controllers (geometric NDI and
sensor-based INDI) for a fixed-tilt fully actuated hexarotor, plus the
scenario harness behind the comparison studies."""

__version__ = "0.1.0"
