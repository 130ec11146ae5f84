"""Pin BLAS to one thread before any test module imports numpy.

`perfbench/run.py` runs single-threaded BLAS, and a threaded BLAS may sum a
product in another order: bitwise tests then see the rounding the benchmark
runs.  This file sits at the repository root because
`perfbench/test_perfbench.py` is collected, and imports numpy, before
`tests/`.  A variable already set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
