"""Compare recorded benchmark runs of a base and a head commit.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds lines that ``run.py --record FILE`` appended.  For every
(workload, trace, metric) both files measured, prints the median of each
side, their quartiles and the head/base ratio.  Refuses (exit 3) to
compare runs taken with different kernel backends or core counts,
because their numbers measure different machines or code paths.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple


def _load(path: str) -> Tuple[set, Dict[Tuple[str, int, str], List[float]]]:
    conditions = set()
    values: Dict[Tuple[str, int, str], List[float]] = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            cond = record["conditions"]
            conditions.add((cond["backend"], cond["cores"]))
            for name, metric in record["result"]["metrics"].items():
                values[(record["workload"], record["trace"], name)].append(float(metric["value"]))
    return conditions, values


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_cond, base = _load(argv[0])
    head_cond, head = _load(argv[1])
    if len(base_cond | head_cond) != 1:
        print(
            "perfbench: refusing to compare runs taken under different conditions "
            f"(backend, cores): base {sorted(base_cond)}, head {sorted(head_cond)}",
            file=sys.stderr,
        )
        return 3
    print(f"{'workload':12s} {'t':1s} {'metric':40s} {'base':>12s} {'head':>12s} {'head/base':>9s}  quartiles")
    for key in sorted(set(base) & set(head)):
        b, h = statistics.median(base[key]), statistics.median(head[key])
        ratio = h / b if b else float("nan")
        bq, hq = _quartiles(base[key]), _quartiles(head[key])
        print(
            f"{key[0]:12s} {key[1]:1d} {key[2]:40s} {b:12.6g} {h:12.6g} {ratio:9.3f}  "
            f"base [{bq[0]:.4g}, {bq[1]:.4g}] head [{hq[0]:.4g}, {hq[1]:.4g}]"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
