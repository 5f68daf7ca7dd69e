"""Compare a change's benchmark runs with its parent's.

    python3 bench/compare.py PARENT.json CHANGE.json [--claim WORKLOAD:METRIC ...]

Both files come from ``run.py --out``.  The i-th run of a workload in
the parent file is paired with the i-th run of that workload in the
change file; build the files by alternating the two sides, e.g. ten
times ``run.py --runs 1 --append --out parent.json`` on the parent
commit followed by the same on the change, swapping which side goes
first each time.

For every workload and metric the report shows each side's median and
quartiles and one verdict:

- a claimed metric (``--claim``) is a ``gain`` only if the change wins
  at least nine tenths of at least ten pairs, ties counting for
  neither, and the medians differ by more than the parent's quartile
  distance; otherwise ``claim not met``;
- every other metric is a ``regression`` when the change's median is
  worse than the parent's by more than the metric's bound, and
  ``unresolved`` when either side's spread exceeds the bound (unless
  every change run reads better than every parent run); else ``ok``.

Exit status 1 when any metric regressed or any claim was not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

import stats
from spec import WORKLOADS, metrics_for


def _runs(result: dict, workload: str) -> List[dict]:
    return [r for r in result["runs"] if r["workload"] == workload]


def alternated(parent: List[dict], change: List[dict]) -> bool:
    """Did the side that ran first alternate from pair to pair?"""
    firsts = [p["started"] < c["started"] for p, c in zip(parent, change)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def compare(parent: dict, change: dict,
            claims: Set[Tuple[str, str]]) -> Tuple[List[str], bool]:
    """Report lines and whether the change passes."""
    lines: List[str] = []
    passed = True
    for workload in WORKLOADS:
        p_runs, c_runs = _runs(parent, workload), _runs(change, workload)
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            continue
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        note = "" if alternated(p_runs, c_runs) else "; pairs did not alternate"
        if n < 10:
            note += "; fewer than 10 pairs, no gain can be claimed"
        lines.append(f"\n## {workload} ({n} pairs{note})")
        lines.append(f"{'metric':<24}{'parent median [q1, q3]':>34}"
                     f"{'change median [q1, q3]':>34}{'change':>9}  verdict")
        for name, metric in metrics_for(workload).items():
            if not all(name in r["record"]["metrics"] for r in p_runs + c_runs):
                continue
            pv = [r["record"]["metrics"][name] for r in p_runs]
            cv = [r["record"]["metrics"][name] for r in c_runs]
            if (workload, name) in claims:
                holds = stats.claim_holds(pv, cv, metric.better)
                wins, pairs = stats.pair_wins(pv, cv, metric.better)
                label = f"{'gain' if holds else 'claim not met'} ({wins}/{pairs} pairs)"
                passed &= holds
            elif metric.bound is None:
                label = "not gated"
            else:
                label = stats.verdict(pv, cv, metric.better, metric.bound)
                passed &= label != "regression"
            delta = -stats.worse_by(statistics.median(pv), statistics.median(cv),
                                    metric.better)
            lines.append(f"{name:<24}{_side(pv):>34}{_side(cv):>34}"
                         f"{delta:>+9.1%}  {label}")
    return lines, passed


def _side(values: List[float]) -> str:
    q1, median, q3 = stats.quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC",
                        help="a metric the change claims to improve")
    args = parser.parse_args(argv)
    claims: Set[Tuple[str, str]] = set()
    for text in args.claim:
        workload, _, metric = text.partition(":")
        if workload not in WORKLOADS or metric not in metrics_for(workload):
            parser.error(f"unknown claim {text!r}")
        claims.add((workload, metric))
    parent = json.loads(args.parent.read_text())
    change = json.loads(args.change.read_text())
    lines, passed = compare(parent, change, claims)
    print("\n".join(lines).lstrip("\n"))
    print(f"\nresult: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
