"""Compare two result sets, the parent's and the change's, made by
`run.py --out` with identical benchmark settings.

    python3 bench/compare.py parent.jsonl change.jsonl

Runs are paired by their order within each workload, so make them
alternately: parent, change, change, parent, ...  For every workload and
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles over its runs, the share of pairs the change wins (ties count for
neither) and a verdict:

  improved    at least ten pairs, the change wins at least 9 in 10 of them,
              and the medians differ by more than the parent's quartile
              spread
  unresolved  the parent's quartile spread is wider than the metric's bound
              (unless every change run beats every parent run), or a gain
              rests on fewer than ten pairs or on more failed items
  worse       the change's median is worse than the parent's by more than
              the bound
  unchanged   otherwise

Exits 1 when any verdict is `worse`.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[str, list[dict[str, Any]]]:
    runs: dict[str, list[dict[str, Any]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def verdict(parent: list[float], change: list[float], higher_better: bool, bound: float,
            more_failures: bool) -> tuple[str, float]:
    """The verdict and the pair win ratio for one metric on one workload."""
    sign = 1 if higher_better else -1
    pairs = list(zip(parent, change))
    win_ratio = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    q1, pm, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - pm)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if win_ratio >= 0.9 and gain > q3 - q1:
        if len(pairs) >= 10 and not more_failures:
            return "improved", win_ratio
        return "unresolved", win_ratio
    if q3 - q1 > bound * abs(pm) and not all_better:
        return "unresolved", win_ratio
    if -gain > bound * abs(pm):
        return "worse", win_ratio
    return "unchanged", win_ratio


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    any_worse = False
    print(f"{'workload':15s} {'metric':12s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'ratio':>7s} {'wins':>9s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        more_failures = sum(r["failed"] for r in c_runs) > sum(r["failed"] for r in p_runs)
        n = min(len(p_runs), len(c_runs))
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in p_runs[:n]]
            c = [r["metrics"][name]["value"] for r in c_runs[:n]]
            v, win_ratio = verdict(p, c, m["better"] == "higher", m["bound"], more_failures)
            any_worse |= v == "worse"
            pq, cq = quartiles(p), quartiles(c)
            print(f"{workload:15s} {name:12s} "
                  f"{pq[1]:>12.5g} [{pq[0]:.5g}, {pq[2]:.5g}] {m['unit']:>3s} "
                  f"{cq[1]:>12.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {m['unit']:>3s} "
                  f"{cq[1] / pq[1]:>7.3f} {win_ratio * n:>4.0f}/{n:<4d}  {v}")
        if more_failures:
            print(f"{workload:15s} the change failed more items than the parent")
    missing = set(parent) ^ set(change)
    if missing:
        print(f"workloads in only one result set: {', '.join(sorted(missing))}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
