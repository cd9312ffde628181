import os

# One BLAS thread, as CI and perfbench run. This must come before numpy is
# first imported (pytest itself does not import it): OpenBLAS reads these
# variables once, when it loads. Timing criteria such as c13 compare ratios
# that a multithreaded BLAS on a loaded machine distorts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from maxentmil.basis import Domain, make_basis, make_tensor_grid  # noqa: E402
from maxentmil.maxent import BasisGrid  # noqa: E402


@pytest.fixture(scope="session")
def box2d():
    return Domain(lo=[-3.0, -3.0], hi=[3.0, 3.0])


@pytest.fixture(scope="session")
def grid2d(box2d):
    return make_tensor_grid(box2d, 64)


@pytest.fixture(scope="session")
def spec2d():
    return make_basis(2, 8, seed=7)


@pytest.fixture(scope="session")
def engine2d(spec2d, grid2d):
    return BasisGrid(spec2d, grid2d)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
