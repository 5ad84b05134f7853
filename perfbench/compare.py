"""Diff two traced-run outputs layer by layer.

Usage::

    python3 perfbench/compare.py BEFORE.json AFTER.json

Each argument is a ``.perfbench/trace-<workload>-seed<n>.json`` file
written by ``run.py --trace 1``. Prints, per span name, the self time and
call count on both sides and their differences (largest self-time change
first), then every per-layer metric that changed. Use it to show which
layer a saving in an end-to-end metric came from.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List


def load(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def layer_rows(before: Dict, after: Dict) -> List[str]:
    names = sorted(
        set(before["layers"]) | set(after["layers"]),
        key=lambda n: -abs(
            after["layers"].get(n, {}).get("self_s", 0.0)
            - before["layers"].get(n, {}).get("self_s", 0.0)
        ),
    )
    rows = [
        f"{'span':32s} {'self_s A':>10s} {'self_s B':>10s} {'delta':>10s}"
        f" {'count A':>9s} {'count B':>9s} {'delta':>8s}"
    ]
    for name in names:
        a = before["layers"].get(name, {"self_s": 0.0, "count": 0})
        b = after["layers"].get(name, {"self_s": 0.0, "count": 0})
        rows.append(
            f"{name:32s} {a['self_s']:10.4f} {b['self_s']:10.4f} "
            f"{b['self_s'] - a['self_s']:+10.4f} {a['count']:9d} "
            f"{b['count']:9d} {b['count'] - a['count']:+8d}"
        )
    return rows


def metric_rows(before: Dict, after: Dict) -> List[str]:
    rows = [f"{'metric':28s} {'A':>14s} {'B':>14s} {'B/A':>8s}"]
    for name in sorted(set(before["metrics"]) | set(after["metrics"])):
        a = before["metrics"].get(name, {}).get("value")
        b = after["metrics"].get(name, {}).get("value")
        if a == b:
            continue
        unit = (after["metrics"].get(name) or before["metrics"][name])["unit"]
        ratio = f"{b / a:8.3f}" if a and b is not None else f"{'-':>8s}"
        rows.append(f"{name:28s} {_fmt(a):>14s} {_fmt(b):>14s} {ratio} {unit}")
    return rows


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    print("\n".join(layer_rows(before, after)))
    print()
    print("\n".join(metric_rows(before, after)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
