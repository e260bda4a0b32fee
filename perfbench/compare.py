"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are files or directories holding the captured output
of run.py; the untraced detail records in them are used, with the
metrics' directions and bounds from BENCHMARK.json.
For each workload and end-to-end metric it prints each side's median and
quartiles, the pairs the change wins (runs paired by seed, ties count
for neither) and a verdict:

  improved    the change wins at least nine tenths of the pairs and the
              medians differ, in its favour, by more than the parent's
              interquartile distance
  unresolved  a side's spread (interquartile distance over median) is
              wider than the metric's bound, and not every change run
              reads better than every parent run
  regressed   the change's median is worse than the parent's by more than
              the bound
  no worse    otherwise

An improvement does not count when the change failed more operations;
its verdict then reads "no worse (more failures)".
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_records(path: Path) -> dict[str, dict[int, dict]]:
    """Untraced records by workload and seed."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    out: dict[str, dict[int, dict]] = {}
    for f in files:
        for line in f.read_text(errors="replace").splitlines():
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and rec.get("record") == "perfbench" and rec["trace"] == 0:
                out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return statistics.median(values), q1, q3


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) < 0 means b is better
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    (ma, qa1, qa3), (mb, qb1, qb3) = spread(a), spread(b)
    if wins >= 0.9 * len(pairs) and sign * (mb - ma) < 0 and abs(mb - ma) > qa3 - qa1:
        return "improved", wins
    widest = max((qa3 - qa1) / abs(ma), (qb3 - qb1) / abs(mb))
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if widest > bound and not all_better:
        return "unresolved", wins
    if sign * (mb - ma) > bound * abs(ma):
        return "regressed", wins
    return "no worse", wins


def compare(parent: dict, change: dict, bench: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(parent) & set(change)):
        pa, ch = parent[workload], change[workload]
        common = sorted(set(pa) & set(ch))
        if common:
            paired = [(pa[s], ch[s]) for s in common]
        else:  # no shared seeds: pair in seed order
            paired = list(zip([pa[s] for s in sorted(pa)], [ch[s] for s in sorted(ch)]))
        fails = [sum(r["result"]["failed"] for r in side.values()) for side in (pa, ch)]
        for m in bench["end_to_end"]:
            name = m["name"]
            a = [r["result"]["metrics"][name]["value"] for r in pa.values()]
            b = [r["result"]["metrics"][name]["value"] for r in ch.values()]
            pairs = [(x["result"]["metrics"][name]["value"], y["result"]["metrics"][name]["value"])
                     for x, y in paired]
            v, wins = verdict(a, b, pairs, m["better"], m["bound"])
            if v == "improved" and fails[1] > fails[0]:
                v = "no worse (more failures)"
            rows.append({"workload": workload, "metric": name, "unit": m["unit"],
                         "parent": spread(a), "change": spread(b), "runs": (len(a), len(b)),
                         "wins": wins, "pairs": len(pairs), "failed": fails, "verdict": v})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parent, change = load_records(args.parent), load_records(args.change)
    rows = compare(parent, change, bench)
    if not rows:
        print("no workload has untraced records on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':>7}  verdict")
    for r in rows:
        cols = [f"{r[k][0]:.4g} [{r[k][1]:.4g}, {r[k][2]:.4g}] {r['unit']}"
                for k in ("parent", "change")]
        print(f"{r['workload']:<16} {r['metric']:<12} {cols[0]:<30} {cols[1]:<30} "
              f"{r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    for w in sorted(set(parent) ^ set(change)):
        print(f"{w}: records on one side only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
