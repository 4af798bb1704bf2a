import math
import os
from pathlib import Path

import pytest

import properflow as pf

L = math.pi
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session", autouse=True)
def subprocess_pythonpath():
    """Child interpreters import properflow from src/ too, as pytest's
    ``pythonpath`` setting makes this one do, installed or not."""
    path = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", SRC if not path else SRC + os.pathsep + path)
        yield


@pytest.fixture(scope="session")
def model():
    """Exchange-symmetric pair of the two lowest well modes, L = pi, m = 1."""
    return pf.entangled_pair(pf.box_mode(1, L, 1.0), pf.box_mode(2, L, 1.0))


@pytest.fixture(scope="session")
def rest_point():
    """Equal-time start; both velocities vanish here."""
    return pf.ConfigPoint(z1=1.0, t1=0.0, z2=2.0, t2=0.0)


@pytest.fixture(scope="session")
def moving_point():
    """Desynchronized start (t1 - t2 = 1); velocities are nonzero."""
    return pf.ConfigPoint(z1=1.0, t1=1.0, z2=2.0, t2=0.0)


@pytest.fixture(scope="session")
def probe_point():
    """Generic off-hyperplane probe used for frozen regression constants."""
    return pf.ConfigPoint(z1=0.9, t1=0.37, z2=2.2, t2=-0.41)
