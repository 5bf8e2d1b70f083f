"""Child process of the benchmark; started by ``run.py``, not by hand.

``worker.py READY_FD --setup-only`` imports the program and exits.
``worker.py READY_FD WORKLOAD SEED SECONDS TRACE WORKDIR RESULT`` then runs
the workload (see harness.py). Set-up ends when ``powergeom.cli`` is
imported; the byte written to READY_FD tells the parent so.
"""

import os
import sys

if __name__ == "__main__":
    import powergeom.cli  # noqa: F401  (set-up is this import)

    os.write(int(sys.argv[1]), b"R")
    os.close(int(sys.argv[1]))
    if sys.argv[2] != "--setup-only":
        import harness

        sys.exit(harness.main(sys.argv[2:]))
