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
