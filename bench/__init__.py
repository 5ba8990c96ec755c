"""The repo's end-to-end benchmark (see ``bench/README.md``).

Run it from the repository root::

    python3 -m bench                  # every workload, every metric, every check
    python3 -m bench --workload cold_skewed --seed 3 --seconds 20 --trace 0

The package drives ``repro`` only through its public API and shares
nothing with ``benchmarks/`` (the pytest-benchmark figure suite and
``trajectory.py`` gates, which stay as they are).
"""

import sys
import time
from pathlib import Path

#: Start of ``setup_s``: the first statement the workload process runs
#: from this package (interpreter start-up before it is not measurable
#: from inside and is a constant of the machine, not of the program).
PROCESS_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent

# The driver runs ``python3 -m bench`` from a bare checkout with no
# PYTHONPATH, so the package finds the sources it measures itself.  In
# a directory without ``src/`` the later ``import repro`` fails and the
# command exits non-zero, which is the contract for a bare directory.
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
