"""``python -m zipperlift`` and the ``zipperlift`` console script.

The CLI's matrix products are n x n blocks with n <= 8, a few thousand rows
at most, too small for a BLAS thread pool to help; starting OpenBLAS's pool
cost 0.14-0.18 s of CPU per process on a 2-CPU host.  So each BLAS thread
variable the user has not set is set to 1 here, before ``cli`` imports
numpy.  Library imports (``import zipperlift``, ``zipperlift.cli``) leave
the environment alone.
"""

import os
import sys

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

from .cli import main  # noqa: E402  (numpy must load after the variables are set)

if __name__ == "__main__":
    sys.exit(main())
