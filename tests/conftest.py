import os
import subprocess
import sys
from pathlib import Path

import pytest

import pfold
from pfold import IntegratorConfig, Params, ProblemClass, integrate

GELFAND3 = Params(p=2, n=3, alpha=0)
GELFAND10 = Params(p=2, n=10, alpha=0)
MEMS233 = Params(p=2, n=3, alpha=0, q=2)
JL454 = Params(p=2, n=4, alpha=0, q=5)
JL_ZERO = Params(p=2, n=5, alpha=0, q=2)


def fresh(code: str, timeout: float = 120) -> str:
    """The last line ``code`` prints in a fresh interpreter that imports this
    pfold; a run past ``timeout`` seconds fails the test instead of hanging it."""
    src = str(Path(pfold.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.fixture(scope="session")
def gelfand3_traj():
    return integrate(GELFAND3, ProblemClass.GELFAND)


@pytest.fixture(scope="session")
def gelfand10_traj():
    return integrate(GELFAND10, ProblemClass.GELFAND)


@pytest.fixture(scope="session")
def mems_traj():
    return integrate(MEMS233, ProblemClass.MEMS)


@pytest.fixture(scope="session")
def jl_traj():
    return integrate(JL454, ProblemClass.JOSEPH_LUNDGREN)


@pytest.fixture(scope="session")
def jl_zero_traj():
    return integrate(JL_ZERO, ProblemClass.JOSEPH_LUNDGREN)


@pytest.fixture(scope="session")
def gelfand3_fine_traj():
    return integrate(GELFAND3, ProblemClass.GELFAND,
                     IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14))
