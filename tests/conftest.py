import os

# one BLAS thread, as perfbench/run.py pins: the tiny matrices here run
# slower on more, and the timed acceptance gates would pick up the noise;
# only takes effect before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(0)
