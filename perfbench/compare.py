"""Compare two result sets of the benchmark, or show the spread of one.

    python3 perfbench/compare.py base.jsonl
    python3 perfbench/compare.py parent.jsonl change.jsonl [--claim chain-pst:ops_per_ref_s]

Result sets are the JSON-lines files series.py writes.  For each workload
and each end-to-end metric in BENCHMARK.json it prints each side's median
and quartiles (Python's statistics.quantiles(values, n=4)) and the spread,
(q3 - q1) / median.

With one file, each metric is marked `steady` when its spread is below a
third of its bound, `wide` when below the bound, and `too wide` otherwise
(setup_s excepted: only its median is compared between sets).

With two files, the verdict per metric is, with `worse` in the direction
BENCHMARK.json gives as not `better`:

* `worse`, for every metric of a workload, when a run of the second side
  has correct=false or fails a larger share of its ops than the first
  side's run of the same seed: a speed figure does not count while ops
  break;
* `unresolved` when either side's spread exceeds the bound, unless every
  run of one side is better than every run of the other;
* `worse` when the second median is worse than the first by more than the
  bound;
* `better` when the second median is better than the first by more than
  the first side's spread;
* `within bound` otherwise.

--claim WORKLOAD:METRIC applies the pairs rule to a named claim: runs are
paired by seed, the second side must win at least 9 of every 10 pairs
(ties count for neither), and the medians must differ by more than the
first side's quartile distance; it is never met while the second side
breaks ops as above.  The failed-op counts of both sides are printed per
workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from harness import ROOT


def load(path: Path) -> dict:
    """{workload: {seed: run}} from a series file; a run is its metric values
    plus the keys `correct`, `failed` and `attempted`."""
    runs: dict = {}
    for line in path.read_text().splitlines():
        row = json.loads(line)
        result = row["result"]
        run = {k: v["value"] for k, v in result["metrics"].items()}
        run.update(correct=result["correct"], failed=result["failed"], attempted=result["attempted"])
        runs.setdefault(row["workload"], {})[row["seed"]] = run
    return runs


def breaks_ops(a: dict, b: dict) -> list[str]:
    """Why side `b` breaks ops that side `a` does not, seed by seed.

    A run repeats whole passes until its time is spent, so two runs of one
    seed may attempt different counts; the failed share of attempted ops is
    what the seed fixes.
    """
    reasons = []
    for seed in sorted(b):
        if not b[seed]["correct"]:
            reasons.append(f"seed {seed}: wrong answers")
        elif seed in a and b[seed]["failed"] * a[seed]["attempted"] > a[seed]["failed"] * b[seed]["attempted"]:
            reasons.append(f"seed {seed}: {a[seed]['failed']}/{a[seed]['attempted']} -> "
                           f"{b[seed]['failed']}/{b[seed]['attempted']} ops failed")
    return reasons


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / abs(first) if first else 0.0
    return change if better == "lower" else -change


def all_better(a: list[float], b: list[float], better: str) -> bool:
    return max(b) < min(a) if better == "lower" else min(b) > max(a)


def verdict(a: list[float], b: list[float], metric: dict, broken: bool = False) -> str:
    if broken:
        return "worse"
    bound, better = metric["bound"], metric["better"]
    (ma, _, _, sa), (mb, _, _, sb) = summary(a), summary(b)
    if max(sa, sb) > bound and not (all_better(a, b, better) or all_better(b, a, better)):
        return "unresolved"
    change = worse_by(ma, mb, better)
    if change > bound:
        return "worse"
    if -change > sa:
        return "better"
    return "within bound"


def claim(a: dict, b: dict, metric: dict) -> str:
    broken = breaks_ops(a, b)
    if broken:
        return "NOT met: the second side breaks ops (" + "; ".join(broken) + ")"
    seeds = sorted(set(a) & set(b))
    if not seeds:
        return "NOT met: no seed has runs on both sides"
    name, better = metric["name"], metric["better"]
    wins = sum(1 for s in seeds if worse_by(a[s][name], b[s][name], better) < 0)
    losses = sum(1 for s in seeds if worse_by(a[s][name], b[s][name], better) > 0)
    (ma, q1, q3, _), (mb, _, _, _) = summary([a[s][name] for s in seeds]), summary([b[s][name] for s in seeds])
    met = wins >= 0.9 * len(seeds) and abs(mb - ma) > (q3 - q1) and worse_by(ma, mb, better) < 0
    return (f"{'met' if met else 'NOT met'}: second side wins {wins}, loses {losses}, ties "
            f"{len(seeds) - wins - losses} of {len(seeds)} pairs; medians {ma:.6g} -> {mb:.6g}, "
            f"first side's quartile distance {q3 - q1:.6g}")


def fmt(values: list[float]) -> str:
    med, q1, q3, spread = summary(values)
    return f"{med:>11.5g} [{q1:.5g}, {q3:.5g}] {100 * spread:5.1f}%"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path)
    parser.add_argument("second", type=Path, nargs="?")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = load(args.first)
    b = load(args.second) if args.second else None
    failing = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in a:
            continue
        print(f"== {workload}: {len(a[workload])} runs" + (f" vs {len(b.get(workload, {}))}" if b else ""))
        sides = [a[workload]] + ([b.get(workload, {})] if b else [])
        print("  failed ops  " + " | ".join(
            " ".join(f"{side[s]['failed']}/{side[s]['attempted']}{'' if side[s]['correct'] else '!'}"
                     for s in sorted(side))
            for side in sides) + "   (failed/attempted per seed; ! marks wrong answers)")
        broken = breaks_ops(a[workload], b.get(workload, {})) if b else []
        failing |= bool(broken) or not all(r["correct"] for side in sides for r in side.values())
        for reason in broken:
            print(f"  second side breaks ops: {reason}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [m[name] for m in a[workload].values()]
            if b is None:
                spread = summary(va)[3]
                mark = ("not gated" if name == "setup_s" else
                        "steady" if spread < bound / 3 else "wide" if spread <= bound else "too wide")
                failing |= mark == "too wide"
                print(f"  {name:<12} {fmt(va)}  bound {100 * bound:.0f}%  {mark}")
                continue
            vb = [m[name] for m in b.get(workload, {}).values()]
            if not vb:
                continue
            result = verdict(va, vb, metric, bool(broken))
            failing |= result == "worse"
            change = 100 * worse_by(summary(va)[0], summary(vb)[0], metric["better"])
            print(f"  {name:<12} {fmt(va)} | {fmt(vb)}  worse by {change:+6.2f}% (bound {100 * bound:.0f}%)  {result}")
    for text in args.claim:
        workload, name = text.split(":", 1)
        metric = next(m for m in spec["end_to_end"] if m["name"] == name)
        if b is None:
            sys.exit("--claim needs two result sets")
        print(f"claim {text}: {claim(a[workload], b[workload], metric)}")
    sys.exit(1 if failing else 0)


if __name__ == "__main__":
    main()
