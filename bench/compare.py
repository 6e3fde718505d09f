"""Compare two sets of benchmark runs, one row per metric and workload.

    python3 bench/compare.py --base A1.json [A2.json ...] --head B1.json [B2.json ...]

Each file is a ``bench/run.py --out`` record.  For every end-to-end
metric declared in ``BENCHMARK.json`` and every workload both sets
measured, the row reads:

``unresolved``
    either set's spread (interquartile range over median) is wider
    than the metric's bound — unless every head run reads better than
    every base run, which counts as ``improved``;
``regressed`` / ``improved``
    the head median is worse / better than the base median by more
    than the bound;
``unchanged``
    otherwise.

Exits 1 when any row regressed.  A gain claim needs more than this
screen: see the benchmark README.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Tuple

from common import load_declaration, relative_spread


def _values(paths: List[str]) -> Dict[Tuple[str, str], List[float]]:
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        for workload, result in record["workloads"].items():
            for metric, entry in result["metrics"].items():
                values.setdefault((metric, workload), []).append(float(entry["value"]))
    return values


def verdict(base: List[float], head: List[float], bound: float, higher: bool) -> Tuple[str, float]:
    """(row status, relative change of the medians; positive is better)."""
    sign = 1.0 if higher else -1.0
    base_median = statistics.median(base)
    change = sign * (statistics.median(head) - base_median) / abs(base_median)
    spread = max(relative_spread(base), relative_spread(head))
    every_head_better = min(sign * v for v in head) > max(sign * v for v in base)
    if spread > bound:
        return ("improved" if every_head_better else "unresolved"), change
    if change < -bound:
        return "regressed", change
    if change > bound:
        return "improved", change
    return "unchanged", change


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, head = _values(args.base), _values(args.head)
    regressed = False
    print("%-18s %-24s %-11s %9s  %s" % ("metric", "workload", "verdict", "change", "bound"))
    for entry in load_declaration()["end_to_end"]:
        name, bound = entry["name"], float(entry["bound"])
        for metric, workload in sorted(k for k in base if k[0] == name and k in head):
            status, change = verdict(
                base[metric, workload], head[metric, workload], bound,
                entry["better"] == "higher",
            )
            regressed |= status == "regressed"
            print("%-18s %-24s %-11s %+8.1f%%  %.0f%%" % (
                name, workload, status, 100 * change, 100 * bound))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
