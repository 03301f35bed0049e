"""palinfrac benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload chain-pst --seed 1 --seconds 30 --trace 0

Run it from anywhere; it measures the palinfrac in the src/ directory next
to this one and refuses to run without it.  Each run:

1. builds the inputs in this process and runs an untimed warm-up at tiny
   scale;
2. with --trace 0, repeats whole passes over the inputs, one op at a time,
   until --seconds have passed and at least MIN_SAMPLES ops are verified;
   before each pass and after the last it times SETUP_REPEATS fresh
   interpreters that import palinfrac and build the seeded inputs (setup_s
   is their median); then it prints the end-to-end figures (ops_per_s, op_s.p50, op_s.p90 and
   fail_ratio too) and puts those named in BENCHMARK.json into the final
   line; ops_per_ref_s corrects ops_per_s for the host's speed, measured
   by the workload's reference work (see harness.py);
   with --trace 1, runs traced passes the same way, each after a pass
   without spans that serves as the overhead baseline, and reports the
   per-layer metrics named in BENCHMARK.json, writing the spans under
   .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it repeat every
metric by name with its unit and sample count, list each failed op and
record the environment.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from importlib import metadata
from pathlib import Path

from harness import MODULES, ROOT, SRC, Runner, child_env, end_to_end, failure_summary, per_layer

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 2  # set-up samples before each pass and after the last
IMPORT_REPEATS = 9  # cli.import_s samples, at the end of a traced run
MIN_SAMPLES = 110  # p90 then keeps at least ten verified samples beyond it
MAX_SECONDS = 100  # a run starts no pass after this, samples or not


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait() != 0 or not line.strip().startswith(str(SRC)):
            die(f"set-up probe failed or imported palinfrac from elsewhere: {line.strip()!r}")
    return samples


def measure_import() -> list[float]:
    """Seconds to import palinfrac.cli in a fresh interpreter (cli.import_s)."""
    code = ("import time; t = time.perf_counter(); import palinfrac.cli; "
            "print(time.perf_counter() - t, palinfrac.cli.__file__)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), cwd=ROOT, check=True, timeout=60).stdout.split()
        if not out[1].startswith(str(SRC)):
            die(f"palinfrac.cli imported from {out[1]}")
        samples.append(float(out[0]))
    return samples


def git_commit() -> str:
    """HEAD of the checkout; git is not allowed to look above it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int, palinfrac_file: str) -> dict:
    import numpy

    return {
        "seed": seed,
        "commit": git_commit(),
        "palinfrac": palinfrac_file,
        "nproc": os.cpu_count(),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "machine": platform.machine(),
    }


def new_runner(module, trace: bool = False) -> Runner:
    return Runner(trace=trace, reference=module.reference, every_s=module.REFERENCE_EVERY_S)


def timed_pass(module, inputs, run) -> float:
    start = time.perf_counter()
    module.run_pass(run, inputs)
    return time.perf_counter() - start


def run_passes(module, inputs, trace: bool, seconds: float, between=lambda: None):
    """Whole passes until `seconds` of them are spent and enough ops are verified.

    With `trace`, an untraced pass runs before each traced one, so that host
    drift hits both alike.  `between` runs before each pass and after the
    last.  Returns the runner and the pass times with and without spans.
    """
    run = new_runner(module, trace)
    walls, plain = [], []
    start = time.perf_counter()
    while True:
        between()
        if trace:
            plain.append(timed_pass(module, inputs, new_runner(module)))
        walls.append(timed_pass(module, inputs, run))
        verified = sum(1 for o in run.outcomes if o.verified)
        if time.perf_counter() - start >= MAX_SECONDS or (sum(walls) >= seconds and verified >= MIN_SAMPLES):
            between()
            return run, walls, plain


def report(label: str, value: float, unit: str, note: str = "") -> None:
    print(f"{label:<44} {value:>14.6g} {unit:<6} {note}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One client needs one CPU; keeping this process, its children and the
    # reference work on the same CPU lets the reference follow the ops.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "palinfrac" / "__init__.py").is_file():
        die(f"no palinfrac sources under {SRC}; run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in MODULES:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(MODULES)}")
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", RuntimeWarning)  # numpy overflow notes; failures are counted
    module = importlib.import_module(MODULES[args.workload])
    importlib.import_module(module.IMPORTS)
    palinfrac_file = sys.modules["palinfrac"].__file__
    if not palinfrac_file.startswith(str(SRC)):
        die(f"palinfrac imported from {palinfrac_file}, not from {SRC}")

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = module.build_inputs(args.seed)
        tiny = module.build_inputs(args.seed, "tiny")
        if hasattr(module, "prepare"):
            inputs = module.prepare(inputs, workdir / "full")
            tiny = module.prepare(tiny, workdir / "tiny")
        module.run_pass(new_runner(module), tiny)  # warm-up, not counted
        env = environment(args.seed, palinfrac_file)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        print("env " + json.dumps(env))
        if args.trace:
            metrics, run = traced(module, inputs, args, spec)
        else:
            metrics, run = untraced(module, inputs, args, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for line in failure_summary(run.outcomes):
        print("failed " + line)
    totals = end_to_end(run.outcomes)
    print(json.dumps({
        "correct": totals["wrong"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": metrics,
    }))


def untraced(module, inputs, args, spec):
    # Set-up samples spread over the run read the host over the whole run,
    # as the ops do, not over the two seconds before it.
    setup = []
    run, walls, _ = run_passes(module, inputs, False, args.seconds,
                               lambda: setup.extend(measure_setup(args.workload, args.seed)))
    totals = end_to_end(run.outcomes)
    rss_kb = run.notes.get("child_max_rss_kb") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    host = statistics.fmean(run.slowness)  # the host's mean slowness over the run
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_ref_s": totals["ops_per_s"] * host,
        "ops_per_s": totals["ops_per_s"],
        "op_s.p50": totals["op_s.p50"],
        "op_s.p90": totals["op_s.p90"],
        "ok_ratio": totals["ok_ratio"],
        "peak_rss_mb": rss_kb / 1024,
    }
    n = totals["verified"]
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, {SETUP_REPEATS} before each pass and after the last",
        "ops_per_ref_s": f"ops_per_s x host slowness {host:.4f} (mean of {len(run.slowness)} reference samples)",
        "ops_per_s": f"{n} verified ops / {totals['busy_s']:.3f} s in calls, {len(walls)} passes, {sum(walls):.1f} s wall",
        "op_s.p50": f"n={n} verified ops",
        "op_s.p90": f"n={n}, {n - int(0.9 * (n + 1))} beyond",
        "ok_ratio": f"{n} verified / {totals['attempted']} attempted",
        "peak_rss_mb": "largest CLI child" if "child_max_rss_kb" in run.notes else "this process",
    }
    units = {"setup_s": "s", "ops_per_ref_s": "1/ref_s", "ops_per_s": "1/s", "op_s.p50": "s", "op_s.p90": "s", "ok_ratio": "1", "peak_rss_mb": "MB"}
    for name, value in values.items():
        report(name, value, units[name], notes[name])
    report("fail_ratio", totals["fail_ratio"], "1", f"{totals['failed']} failed / {totals['attempted']} attempted, "
           f"{totals['wrong']} wrong answers")
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in spec["end_to_end"]}
    return metrics, run


def traced(module, inputs, args, spec):
    run, walls, plain = run_passes(module, inputs, True, args.seconds)
    values = per_layer(run.spans, run.outcomes, sum(walls))
    values.update(run.notes)
    values["cli.import_s"] = statistics.median(measure_import())
    values["trace.overhead"] = statistics.median(walls) / statistics.median(plain) - 1
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in run.spans:
            handle.write(json.dumps(span) + "\n")
    print(f"spans {len(run.spans)} written to {spans_path.relative_to(ROOT)}; {len(walls)} traced passes")
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        value = values.get(name, 0)  # a layer this workload does not call
        metrics[name] = {"value": value, "unit": entry["unit"]}
        if name in values:
            report(name, value, entry["unit"])
    return metrics, run


if __name__ == "__main__":
    main()
