"""Test-session setup: one BLAS thread, as the benchmark runs.

LAPACK's blocked Cholesky factor, and with it the last bits of lambda1,
depends on the BLAS thread count once the mirror-even block reaches 128
rows, and ``eigen/cauchy_lambda1`` (a ratio of lambda1 differences)
magnifies those bits to about 4e-11.  The committed reference report is
the one-thread report, so the suite pins one thread before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
