import shutil
from pathlib import Path

import numpy as np
import pytest

from hexsim import dynamics, vehicle


@pytest.fixture(scope="session")
def params():
    return vehicle.default_params()


@pytest.fixture(scope="session")
def eff(params):
    return vehicle.build_effectiveness(params)


@pytest.fixture(scope="session")
def kernel(params, eff):
    return dynamics.make_step(params, eff)


@pytest.fixture(scope="session")
def trim(params, eff):
    return vehicle.hover_command(params, eff)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def package_copy(tmp_path):
    """A copy of src/hexsim under tmp_path / "src", for a fresh
    interpreter's PYTHONPATH: its cache holds no compiled truth step."""
    src = tmp_path / "src"
    shutil.copytree(Path(dynamics.__file__).parent, src / "hexsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src
