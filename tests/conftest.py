import gc
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from zetaflow import GroupData, synthesize


def pytest_report_header(config):
    """numpy's version and CPU dispatch. Printed values, and so the golden
    digests, hold for one numpy build and dispatch: a digest mismatch on
    another machine can be read against this line."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]
    return (f"numpy {np.__version__}, CPU dispatch: baseline {' '.join(umath.__cpu_baseline__)},"
            f" found {' '.join(found)}")


@pytest.fixture(autouse=True)
def collector_left_running():
    """Fail a test after which the garbage collector is frozen or disabled:
    only a command-line run, whose process exits next, may freeze its heap,
    never a host that calls the package in process. The collector is
    restored first, so the tests after it run as usual."""
    yield
    state = {"frozen objects": gc.get_freeze_count(), "enabled": gc.isenabled()}
    gc.unfreeze()
    gc.enable()
    assert state == {"frozen objects": 0, "enabled": True}


@pytest.fixture(scope="session")
def gd3():
    return GroupData(3)


@pytest.fixture(scope="session")
def gd5():
    return GroupData(5)


@pytest.fixture(scope="session")
def ls3():
    return synthesize(GroupData(3), 150, systole=0.5, seed=11)


@pytest.fixture(scope="session")
def ls3_twisted():
    return synthesize(GroupData(3), 100, systole=0.5, seed=12, dim_chi=2, chi_norm=1.2)


@pytest.fixture(scope="session")
def ls5():
    return synthesize(GroupData(5), 100, systole=0.6, seed=13)
