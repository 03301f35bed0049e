"""Run the benchmark over seeds 1..RUNS and collect the results as JSON lines.

    python3 perfbench/series.py --runs 10 --out base.jsonl
    python3 perfbench/series.py --runs 10 --root ../parent --out parent.jsonl \\
                                          --root . --out change.jsonl

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` started in a root (a checkout holding src/ and perfbench/), for
every workload W in BENCHMARK.json, with T its run_seconds.  With several
roots, seed i runs on every root before seed i + 1, and the root that goes
first alternates from one seed to the next.  One line per run is appended
to the root's --out file: {"workload", "seed", "root", "wall_s",
"result"}, where result is the run's final JSON line.  Compare files with
compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from harness import ROOT


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--root", action="append", type=Path, help="checkout to measure (default: this one)")
    parser.add_argument("--out", action="append", type=Path, required=True, help="one per --root")
    args = parser.parse_args()
    roots = args.root or [ROOT]
    if len(roots) != len(args.out):
        parser.error("give one --out per --root")

    for seed in range(1, args.runs + 1):
        order = list(zip(roots, args.out))
        if seed % 2 == 0:
            order.reverse()
        for workload in [w["name"] for w in spec["workloads"]]:
            for root, out in order:
                command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                start = time.perf_counter()
                proc = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=900)
                wall = time.perf_counter() - start
                if proc.returncode != 0:
                    sys.exit(f"{root}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                line = {"workload": workload, "seed": seed, "root": str(root), "wall_s": wall, "result": result}
                with open(out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(line) + "\n")
                print(f"{workload:<10} seed {seed:<3} {wall:6.1f} s  correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}  {out}", flush=True)


if __name__ == "__main__":
    main()
