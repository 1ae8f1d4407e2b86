"""Set-up probe: run.py starts it in a fresh interpreter to time set-up.

Usage: python3 probe.py SRC WORKDIR WORKLOAD SEED

Imports pmleak and pmleak.cli, builds the workload's inputs, and prints one
JSON line: the import time, the wall-clock moment the inputs were ready
(run.py compares it with the moment it started this process), and the
host-speed factor sampled meanwhile (hostclock.py).
"""

import json
import sys
import time
from pathlib import Path

from hostclock import HostClock


def main():
    src, workdir, name, seed = sys.argv[1:5]
    sys.path.insert(0, src)
    with HostClock() as clock:
        t0 = time.perf_counter()
        import pmleak  # noqa: F401
        import pmleak.cli  # noqa: F401
        import_s = time.perf_counter() - t0
        import workloads
        workloads.WORKLOADS[name](Path(src).parent, Path(workdir), int(seed))
        ready = time.time()
    print(json.dumps({"import_s": import_s, "ready": ready, "factor": clock.factor()}))


if __name__ == "__main__":
    main()
