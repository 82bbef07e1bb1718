"""Child process of run.py: times one fresh interpreter's set-up for a workload.

Set-up is importing hflab (with numpy and scipy) and, for the tdhf workloads,
building the grid, potential and initial state from the seed.  Prints the
seconds taken.  Usage: setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (the import is part of what is timed)

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
