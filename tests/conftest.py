import shutil
from pathlib import Path

import numpy as np
import pytest

from hexsim import dynamics, experiments, vehicle


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
def constructed(monkeypatch):
    """The Scenarios constructed during the test, in order, by __init__
    or dataclasses.replace."""
    made, real = [], experiments.Scenario.__post_init__

    def post_init(self):
        made.append(self)
        real(self)

    monkeypatch.setattr(experiments.Scenario, "__post_init__", post_init)
    return made


@pytest.fixture
def package_copy(tmp_path):
    """A copy of src/hexsim under tmp_path / "src", for a fresh
    interpreter's PYTHONPATH: its cache holds no compiled truth step."""
    src = tmp_path / "src"
    shutil.copytree(Path(dynamics.__file__).parent, src / "hexsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src
