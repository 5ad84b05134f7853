"""End-to-end, layer-attributed benchmark of the LDME summarizer and server.

Run from the repository root::

    python3 perfbench/run.py --workload summarize-web --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run that patches spans around each layer's entry points, prints the
per-layer metrics and writes the span tree to
``.perfbench/trace-<workload>-seed<seed>.{json,npz}`` (compare two with
``python3 perfbench/compare.py A.json B.json``). The last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, metrics and calibration are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from multiprocessing import resource_tracker
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench")


def parse_args(argv: List[str], workloads, sizes) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(sizes), default="full",
                        help="input size; 'tiny' is for the self-test")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    sys.path.insert(0, ROOT)
    from perfbench.job import SIZES, WORKLOADS, run_job

    args = parse_args(argv, WORKLOADS, SIZES)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        report = run_job(args, WORKLOADS[args.workload], ROOT, WORK_DIR,
                         scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        # The parallel summarizer's shared memory starts multiprocessing's
        # tracker process; stop and reap it so nothing outlives the run.
        resource_tracker._resource_tracker._stop()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
