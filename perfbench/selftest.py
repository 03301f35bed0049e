"""Self-test of the benchmark's oracles: each one passes good results and
flags a corrupted one.

    python3 perfbench/selftest.py

First every workload runs one pass at tiny scale on seed 1, and every op
must pass its oracle.  Then the same pass runs again with one result
corrupted before its oracle sees it (a shifted eigenvalue, a changed
transfer time, a changed J-fraction coefficient, flipped palindrome
verdicts, a CLI JSON with a wrong field), and exactly that op must be
counted as a failure, as a wrong answer.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import dataclasses
import importlib
import shutil
import sys

from harness import MODULES, ROOT, SRC, Runner, end_to_end, failure_summary

sys.path.insert(0, str(SRC))

from palinfrac.jacobi import Spectrum  # noqa: E402
from palinfrac.jfraction import JFraction  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"


def shift_eigenvalue(spectrum):
    values = list(spectrum.eigenvalues)
    values[0] -= 1e-3
    return Spectrum(values, spectrum.tolerance)


def stretch_time(certificate):
    return dataclasses.replace(certificate, T=certificate.T * 1.001)


def change_coefficient(jf):
    return JFraction((jf.a[0] + 1,) + jf.a[1:], jf.b2)


def flip_verdict(decision):
    return dataclasses.replace(decision, palindromic=not decision.palindromic)


def wrong_cli_field(result):
    code, payload = result
    values = list(payload["eigenvalues"])
    values[3] += 1e-9
    return code, {**payload, "eigenvalues": values}


CORRUPTIONS = [
    ("chain-pst", "jacobi.eigenvalues", shift_eigenvalue),
    ("chain-pst", "pst.verify_pst", stretch_time),
    ("exact-cf", "jfraction.expand_jfraction", change_coefficient),
    ("exact-cf", "jfraction.is_palindromic_jfraction", flip_verdict),
    ("exact-cf", "pfraction.is_palindromic_pfraction", flip_verdict),
    ("exact-cf", "numeric_cf.is_palindromic_serret", flip_verdict),
    ("cli-small", "cli.jacobi.eig", wrong_cli_field),
]


def tiny_pass(workload: str, corrupt: dict | None = None) -> dict:
    module = importlib.import_module(MODULES[workload])
    inputs = module.build_inputs(1, "tiny")
    if hasattr(module, "prepare"):
        inputs = module.prepare(inputs, WORK / workload)
    run = Runner(corrupt=corrupt)
    module.run_pass(run, inputs)
    for line in failure_summary(run.outcomes):
        print("    failed " + line)
    return end_to_end(run.outcomes)


def main() -> None:
    problems = []
    try:
        for workload in MODULES:
            totals = tiny_pass(workload)
            ok = totals["failed"] == 0 and totals["attempted"] > 0
            print(f"{'ok ' if ok else 'BAD'} {workload}: tiny pass, {totals['attempted']} ops, "
                  f"{totals['failed']} failed")
            if not ok:
                problems.append(f"{workload} tiny pass")
        for workload, op, corrupt in CORRUPTIONS:
            totals = tiny_pass(workload, {op: corrupt})
            ok = totals["failed"] == 1 and totals["wrong"] == 1
            print(f"{'ok ' if ok else 'BAD'} {workload}: {corrupt.__name__} on {op} -> "
                  f"{totals['failed']} failed, {totals['wrong']} wrong")
            if not ok:
                problems.append(f"{workload} {corrupt.__name__}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        if WORK.parent.is_dir() and not any(WORK.parent.iterdir()):
            WORK.parent.rmdir()
    if problems:
        sys.exit("self-test failed: " + ", ".join(problems))
    print("self-test passed")


if __name__ == "__main__":
    main()
