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
    return params.effectiveness


@pytest.fixture(scope="session")
def kernel(params):
    return dynamics.make_step(params)


@pytest.fixture(scope="session")
def trim(params):
    return params.hover


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
