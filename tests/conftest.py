import numpy as np
import pytest

import lshlab as L
from lshlab import checks, functionals


@pytest.fixture(scope="session")
def gauss1():
    return L.gaussian(1.0, 1)


@pytest.fixture(scope="session")
def gauss2():
    return L.gaussian(1.0, 2)


@pytest.fixture(scope="session")
def gh_spec(gauss1):
    return L.default_spec(gauss1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240211)


@pytest.fixture
def tables(monkeypatch):
    """Every DilationNorms table that ``checks`` builds, in order."""
    built = []

    class Recorded(functionals.DilationNorms):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(checks, "DilationNorms", Recorded)
    return built
