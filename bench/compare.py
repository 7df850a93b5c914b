"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the records `bench/run.py --out FILE` writes. Runs of
the same workload are paired by seed (by file order where seeds do not
match). For every workload and end-to-end metric the table gives each
side's median and quartiles, the share of pairs the change won and a
verdict:

- improved: the change won at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the distance between the base's
  quartiles;
- no worse within the bound: the change's median is not worse than the
  base's by more than the metric's bound in BENCHMARK.json;
- worse: it is, and both sides' spreads are within the bound;
- unresolved: a side's spread (quartile distance over median) is wider
  than the bound, and not every change run beats every base run.

A gain does not count when the change failed more checks than the base;
the failure totals are printed per workload. Traced records (per-layer
metrics) are listed by median only: they have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """workload -> trace flag -> [record], in file order."""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        meta = record["meta"]
        runs.setdefault(meta["workload"], {}).setdefault(meta["trace"], []).append(record)
    return runs


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair(base: list, change: list) -> list:
    by_seed = {r["meta"]["seed"]: r for r in change}
    pairs = [(b, by_seed[b["meta"]["seed"]]) for b in base if b["meta"]["seed"] in by_seed]
    return pairs if pairs else list(zip(base, change))


def verdict(base: list, change: list, pairs: list, better: str, bound: float) -> tuple:
    sign = 1 if better == "lower" else -1
    b1, mb, b3 = quartiles(base)
    c1, mc, c3 = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    share = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (mc - mb) / mb
    if share >= 0.9 and worse_by < 0 and abs(mc - mb) > b3 - b1:
        return "improved", share
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    if (b3 - b1) / mb > bound or (c3 - c1) / mc > bound:
        return ("no worse within the bound" if all_better else "unresolved"), share
    if worse_by <= bound:
        return "no worse within the bound", share
    return "worse", share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of benchmark runs")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(args.base), load(args.change)
    if not base or not change:
        print("error: no records in one of the directories", file=sys.stderr)
        return 2

    head = f"{'workload':<13} {'metric':<14} {'base q1/median/q3':>30} {'change q1/median/q3':>30} {'won':>6}  verdict"
    print(head)
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs = base.get(workload, {}).get(0, [])
        c_runs = change.get(workload, {}).get(0, [])
        if not b_runs or not c_runs:
            continue
        pairs = pair(b_runs, c_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["result"]["metrics"][name]["value"] for r in b_runs]
            c = [r["result"]["metrics"][name]["value"] for r in c_runs]
            p = [
                (x["result"]["metrics"][name]["value"], y["result"]["metrics"][name]["value"])
                for x, y in pairs
            ]
            word, share = verdict(b, c, p, metric["better"], metric["bound"])
            bq = "/".join(f"{v:.4g}" for v in quartiles(b))
            cq = "/".join(f"{v:.4g}" for v in quartiles(c))
            print(f"{workload:<13} {name:<14} {bq:>30} {cq:>30} {share:>6.0%}  {word}")
        b_failed = sum(r["result"]["failed"] for r in b_runs)
        c_failed = sum(r["result"]["failed"] for r in c_runs)
        note = "  (a gain does not count)" if c_failed > b_failed else ""
        print(f"{workload:<13} {'failed':<14} {b_failed:>30} {c_failed:>30}{note}")

    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs = base.get(workload, {}).get(1, [])
        c_runs = change.get(workload, {}).get(1, [])
        if not b_runs or not c_runs:
            continue
        print(f"\nper-layer medians, {workload} (traced runs: {len(b_runs)} base, {len(c_runs)} change)")
        for metric in spec["per_layer"]:
            name = metric["name"]
            b = statistics.median(r["result"]["metrics"][name]["value"] for r in b_runs)
            c = statistics.median(r["result"]["metrics"][name]["value"] for r in c_runs)
            if b or c:
                print(f"  {name:<26} {b:>14.6g} {c:>14.6g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
