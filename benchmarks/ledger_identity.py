"""Fail when two benchmark suite reports disagree on a modeled-I/O metric.

``tw_ios_per_row`` and ``resp_ios_per_stmt`` come from the cost ledger, so
for the same seed and round plan they are exact: a change that is not meant
to move the cost model must leave them identical to the digit.

    python3 benchmarks/e2e/run.py --smoke --out base.json   # at the base
    python3 benchmarks/e2e/run.py --smoke --out head.json   # at the change
    python3 benchmarks/ledger_identity.py base.json head.json
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

METRICS = ("tw_ios_per_row", "resp_ios_per_stmt")


def _cells(path: str) -> Dict[Tuple[int, str, str], float]:
    report = json.load(open(path, encoding="utf-8"))
    return {
        (run["seed"], workload, metric): result["end_to_end"][metric]
        for run in report["runs"]
        for workload, result in run["workloads"].items()
        for metric in METRICS
    }


def differences(base_path: str, head_path: str) -> List[str]:
    base, head = _cells(base_path), _cells(head_path)
    return [
        f"seed {cell[0]} {cell[1]} {cell[2]}: "
        f"{base.get(cell, 'absent')} -> {head.get(cell, 'absent')}"
        for cell in sorted(base.keys() | head.keys())
        if base.get(cell) != head.get(cell)
    ]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    found = differences(*argv)
    for line in found:
        print("ledger metric moved:", line)
    print(f"{len(_cells(argv[1]))} ledger cells compared, {len(found)} differ")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
