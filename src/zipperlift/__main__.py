"""``python -m zipperlift`` and the ``zipperlift`` console script.

The CLI's matrix products are n x n blocks with n <= 8, a few thousand rows
at most, too small for a BLAS thread pool to help; starting OpenBLAS's pool
cost 0.14-0.18 s of CPU per process on a 2-CPU host.  So each BLAS thread
variable the user has not set is set to 1 here, before ``cli`` imports
numpy.  Library imports (``import zipperlift``, ``zipperlift.cli``) leave
the environment alone.
"""

import gc
import os
import sys

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

from . import cli  # noqa: E402  (numpy must load after the variables are set)


def main(argv=None):
    """Run the CLI and return its exit code.  The objects loaded with numpy
    and the package are moved to the permanent generation first, so neither
    the run's full collections nor the interpreter's final one traverses
    them: about 10 ms per process.  ``atexit`` handlers and stream flushing
    still run."""
    gc.freeze()
    return cli.main(argv)

if __name__ == "__main__":
    sys.exit(main())
