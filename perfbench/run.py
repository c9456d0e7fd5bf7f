"""Benchmark command: run one named varbid workload and print its metrics.

    python3 perfbench/run.py --workload desk_nfq2 --seed 0 --seconds 30 --trace 0

This process only starts a fresh interpreter on ``measure.py`` and passes
it the start time, so that ``setup_s`` covers a cold start: interpreter,
imports and input building, up to the first timed call. The measuring
process prints one JSON object as its last stdout line; see README.md.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src" / "varbid"
WORKLOADS = ("desk_nfq2", "fresh_nfq1", "forecast_fit")
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced rounds")
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parse_args(argv)
    if not (SOURCES / "__init__.py").is_file():
        print(f"error: varbid sources not found at {SOURCES}", file=sys.stderr)
        return 2
    started = time.monotonic()
    command = [sys.executable, str(HERE / "measure.py"), *argv, "--started", repr(started)]
    try:
        return subprocess.run(command, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
