"""Run one benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload grid4 --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from `src/` beside this
directory.  See README.md for the workloads and metrics.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
