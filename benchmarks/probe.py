"""Set-up probe: import aclab, generate one workload's seeded inputs, print "ready".

``run.py`` starts this in a fresh interpreter and times it up to the
"ready" line; that interval is the benchmark's ``setup_s``.

    python3 benchmarks/probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (imports aclab, aclab.verify, numpy, scipy, mpmath)

if __name__ == "__main__":
    workloads.make_inputs(sys.argv[1], int(sys.argv[2]), HERE / ".out")
    print("ready", flush=True)
