"""Run every workload once and print one table of its metrics.

    python3 perfbench/report.py [--seed 0] [--seconds 30] [--trace 0]

Each workload runs in its own child process, one after another, exactly as
``run.py`` runs it alone.  ``samples`` is the number of requests attempted.
Exits nonzero if any run fails or reports a failed request.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    print(f"{'workload':14} {'metric':50} {'value':>14} {'unit':6} samples")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().split("\n")
        if proc.returncode != 0 or not lines[-1].startswith("{"):
            print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"{name}: {result['failed']} failed requests\n{proc.stderr}", file=sys.stderr)
            status = 1
        for metric, entry in result["metrics"].items():
            print(f"{name:14} {metric:50} {entry['value']:14.6g} {entry['unit']:6} {result['attempted']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
