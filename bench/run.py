"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload coherent-race --seed 0 --seconds 25 --trace 0

Runs bench/measure.py (which pins BLAS to one thread) in a process of its
own, and adds that process's peak resident memory (`peak_rss_mb`) to the
end-to-end metrics.  Prints the environment stamp first and, as the
last line, {"correct", "attempted", "failed", "metrics"}.  Exits non-zero
without a result when the measurement fails or times out.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Every run must end within 180 s; leave room for start-up and reporting.
CHILD_TIMEOUT_S = 170


def main() -> int:
    argv = sys.argv[1:]
    try:
        child = subprocess.run([sys.executable, str(HERE / "measure.py"), *argv],
                               stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: measurement did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        return child.returncode or 1
    *stamp, last = child.stdout.strip().splitlines()
    result = json.loads(last)
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument("--trace", type=int, default=0)
    if not traced.parse_known_args(argv)[0].trace:
        # ru_maxrss is in KiB on Linux.
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    for line in stamp:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
