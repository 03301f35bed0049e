"""Workload cli-small: one `python -m palinfrac.cli` process per op.

Chosen because import, click and JSON set the time here, not the math:
every input is small (N <= 16, degree <= 16), so an op costs about one
interpreter start plus the import of palinfrac.cli.  Set-up cost moved into
import time or module-level state shows here first.  A pass covers every
subcommand once, plus one expected domain error (`pst verify` on a
mirror-broken chain: exit 1 and a NotPersymmetric JSON error).  One child
runs at a time.

Oracle: the exit code and the JSON (or CSV) a child prints must match the
result of the same library call made in this process before timing.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from palinfrac import jacobi, jfraction, numeric_cf, pfraction, polynomial, pst
from palinfrac.errors import PalinfracError
from palinfrac.polynomial import Polynomial

from chain_pst import krawtchouk_couplings
from exact_cf import positive, recurrence, small
from harness import child_env, expect_value, mirror

IMPORTS = "palinfrac.cli"
CHILD_TIMEOUT_S = 60
TOL = 1e-12  # the CLI's default tolerance
BARE_START_S = 0.016  # a `python -S -c pass` child on an idle 2-vCPU Xeon VM, Python 3.11.7
REFERENCE_EVERY_S = 0.0  # before every op: it costs a sixteenth of one


@dataclass(frozen=True)
class Call:
    label: str  # "<group>.<command>"
    args: tuple  # CLI arguments; names in `files` stand for their path
    files: dict  # file name -> JSON payload
    expected: tuple = ()  # (exit code, payload), filled by `prepare`
    folder: Path | None = None  # the child's working directory, made by `prepare`


@dataclass(frozen=True)
class Finished:
    code: int
    stdout: str
    stderr: str


def _strings(coeffs) -> list[str]:
    return [f"{c.numerator}/{c.denominator}" for c in coeffs]


def _chain(rng, n: int, stretch: float) -> dict:
    off = krawtchouk_couplings(n)
    if stretch:
        factors = mirror([1 + stretch * rng.uniform(-1, 1) for _ in range(n // 2)], n - 1)
        off = [b * f for b, f in zip(off, factors)]
    return {"diag": [0.0] * n, "offdiag": off}


TINY = ("cf.expand", "jacobi.eig", "pst.verify")  # the warm-up and self-test subset


def build_inputs(seed: int, scale: str = "full") -> list[Call]:
    """One call per subcommand and one expected domain error."""
    rng = random.Random(f"cli-small:{seed}")
    p = rng.randint(10**5, 10**6)
    q = rng.choice([k for k in range(p // 3, p // 3 + 50) if math.gcd(k, p) == 1])
    s = rng.randint(10, 999)
    level = rng.randint(8, 16)
    a, b2 = [small(rng) for _ in range(level)], [positive(rng) for _ in range(level - 1)]
    jq, jp = recurrence(a, b2)
    half = [small(rng) for _ in range((level + 1) // 2)]
    pq, pp = recurrence(mirror(half, level), [Fraction(1)] * (level - 1))  # P | Q^2 - 1
    n = rng.randint(8, 16)
    gaps = [rng.choice((1, 3, 5)) for _ in range(n - 1)]
    levels = [sum(gaps[:k]) - sum(gaps) / 2 for k in range(n)]
    broken = _chain(rng, 16, 0.05)
    broken["offdiag"][0] *= 1.01
    calls = [
        Call("cf.expand", ("cf", "expand", str(q), str(p)) + (("--padded",) if rng.random() < 0.5 else ()), {}),
        Call("cf.serret", ("cf", "serret", str(s), str(s * s + 1)), {}),
        Call("poly.cheb", ("poly", "cheb", rng.choice("tu"), str(rng.randint(8, 16))), {}),
        Call("jfrac.expand", ("jfrac", "expand", "q.json", "p.json"), {"q.json": _strings(jq), "p.json": _strings(jp)}),
        Call("jfrac.palindrome", ("jfrac", "palindrome", "q.json", "p.json"),
             {"q.json": _strings(pq), "p.json": _strings(pp)}),
        Call("jfrac.cheb", ("jfrac", "cheb", str(rng.randint(2, 16))), {}),
        Call("jacobi.eig", ("jacobi", "eig", "h.json"), {"h.json": _chain(rng, 16, 0.05)}),
        Call("pst.verify", ("pst", "verify", "h.json"), {"h.json": _chain(rng, n, 0)}),
        Call("pst.design", ("pst", "design", "s.json"), {"s.json": {"eigenvalues": levels}}),
        Call("pst.simulate", ("pst", "simulate", "h.json", "--t1", repr(math.pi), "--steps", "9"),
             {"h.json": _chain(rng, n, 0)}),
        Call("pfrac.expand", ("pfrac", "expand", "q.json", "p.json"), {"q.json": _strings(jq), "p.json": _strings(jp)}),
        Call("pfrac.palindrome", ("pfrac", "palindrome", "q.json", "p.json"),
             {"q.json": _strings(pq), "p.json": _strings(pp)}),
        Call("pst.verify", ("pst", "verify", "h.json"), {"h.json": broken}),
    ]
    return [c for c in calls if c.label in TINY] if scale == "tiny" else calls


# -- expected results, computed in this process -----------------------------------


def _in_process(call: Call):
    """(exit code, payload) the CLI must produce for `call`."""
    args, files = call.args, call.files

    def poly(name):
        return Polynomial.from_strings(files[name]).monic()

    try:
        if call.label == "cf.expand":
            q, p = int(args[2]), int(args[3])
            form = "padded" if "--padded" in args else "canonical"
            cf = numeric_cf.expand_euclid(q, p, form)
            return 0, {"terms": list(cf.terms), "value": f"{q}/{p}", "form": form, "palindromic": cf.is_palindrome}
        if call.label == "cf.serret":
            d = numeric_cf.is_palindromic_serret(int(args[2]), int(args[3]))
            witness = None if d.sign is None else ("q^2-1" if d.sign == -1 else "q^2+1")
            return 0, {"palindromic": d.palindromic, "witness": witness, "form": d.form,
                       "expansion": list(d.expansion.terms) if d.expansion else None}
        if call.label == "poly.cheb":
            build = polynomial.chebyshev_t if args[2] == "t" else polynomial.chebyshev_u
            return 0, [build(k).to_strings() for k in range(int(args[3]) + 1)]
        if call.label == "jfrac.expand":
            return 0, jfraction.expand_jfraction(poly("q.json"), poly("p.json")).to_json_obj()
        if call.label == "jfrac.palindrome":
            d = jfraction.is_palindromic_jfraction(poly("q.json"), poly("p.json"))
            return 0, {**d.jfraction.to_json_obj(), "palindromic": d.palindromic,
                       "beta": polynomial.format_rational(d.beta),
                       "cofactor": d.cofactor.to_strings() if d.cofactor else None}
        if call.label == "jfrac.cheb":
            return 0, jfraction.chebyshev_jfraction(int(args[2])).to_json_obj()
        if call.label == "jacobi.eig":
            spectrum = jacobi.eigenvalues(jacobi.JacobiMatrix.from_json_obj(files["h.json"]), TOL)
            return 0, {"eigenvalues": list(spectrum.eigenvalues), "tolerance": spectrum.tolerance}
        if call.label == "pst.verify":
            return 0, pst.verify_pst(jacobi.JacobiMatrix.from_json_obj(files["h.json"]), TOL).to_json_obj()
        if call.label == "pst.design":
            spectrum = jacobi.Spectrum(files["s.json"]["eigenvalues"], TOL)
            return 0, pst.design_persymmetric(spectrum).to_json_obj()
        if call.label == "pst.simulate":
            step = float(args[4]) / 8  # the CLI's grid: t0 = 0, 9 steps
            times = [0.0 + i * step for i in range(9)]
            out = io.StringIO()
            pst.evolve(jacobi.JacobiMatrix.from_json_obj(files["h.json"]), times).to_csv(out)
            return 0, _parse_csv(out.getvalue())
        if call.label == "pfrac.expand":
            q, p = (Polynomial.from_strings(files[name]) for name in ("q.json", "p.json"))
            return 0, pfraction.expand_pfraction(q, p).to_json_obj()
        if call.label == "pfrac.palindrome":
            d = pfraction.is_palindromic_pfraction(poly("q.json"), poly("p.json"))
            return 0, {"palindromic": d.palindromic, "cofactor": d.cofactor.to_strings() if d.cofactor else None,
                       "termwise_palindromic": d.termwise_palindromic,
                       "partial_quotients": d.pfraction.to_json_obj()["partial_quotients"]}
    except PalinfracError as exc:  # a domain error is the expected result of this call
        return 1, {"error": exc.code}
    raise ValueError(f"no in-process counterpart for {call.label}")


def prepare(calls: list[Call], workdir: Path) -> list[Call]:
    """Write each call's input files under `workdir` and record its expected result."""
    prepared = []
    for index, call in enumerate(calls):
        folder = workdir / f"{index:02d}-{call.label}"
        folder.mkdir(parents=True, exist_ok=True)
        args = list(call.args)
        for name, payload in call.files.items():
            (folder / name).write_text(json.dumps(payload), encoding="utf-8")
            args = [str(folder / name) if a == name else a for a in args]
        prepared.append(replace(call, args=tuple(args), expected=_in_process(call), folder=folder))
    return prepared


# -- the op ----------------------------------------------------------------------


def reference() -> float:
    """Reference work of this workload: start a bare interpreter (no site
    module) and wait for it, the part of every op that is not palinfrac.
    Returns its time over BARE_START_S.  An in-process loop does not follow
    the speed of the children; this does, when they share the parent's CPU."""
    start = time.perf_counter()
    # No timeout: with one, Popen.wait polls with growing sleeps and the
    # time read here would be rounded up to the next poll.
    subprocess.run([sys.executable, "-S", "-c", "pass"], env=child_env(), check=True)
    return (time.perf_counter() - start) / BARE_START_S


def _alarm(signum, frame):
    raise TimeoutError(f"CLI child still running after {CHILD_TIMEOUT_S} s")


def spawn(run, call: Call) -> Finished:
    """Run one CLI child to completion and note its peak resident set."""
    with open(call.folder / "stdout", "w+") as out, open(call.folder / "stderr", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "palinfrac.cli", *call.args], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=child_env(), cwd=call.folder)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        run.note_max("child_max_rss_kb", usage.ru_maxrss)
        out.seek(0)
        err.seek(0)
        return Finished(proc.returncode, out.read(), err.read())


def _parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return [rows[0]] + [[float(cell) for cell in row] for row in rows[1:]]


def _same(got, want, path="") -> str | None:
    """First difference between two JSON values; floats within 1e-12 relative."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            return f"{path or 'value'}: {got!r} != {want!r}"
        return None
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return f"{path or 'object'}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            diff = _same(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path or 'list'}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = _same(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if type(got) is not type(want) or got != want:
        return f"{path or 'value'}: {got!r} != {want!r}"
    return None


def decode(call: Call, finished: Finished):
    """The child's result as (exit code, payload), as `_in_process` gives it."""
    if finished.code == 0:
        if call.label == "pst.simulate":
            return 0, _parse_csv(finished.stdout)
        return 0, json.loads(finished.stdout)
    return finished.code, {"error": json.loads(finished.stderr)["error"]}


def _check(call: Call):
    def check(result):
        code, payload = result
        if code != call.expected[0]:
            return f"exit code {code}, expected {call.expected[0]}"
        return _same(payload, call.expected[1])

    return check


def run_pass(run, calls: list[Call]) -> None:
    for call in calls:
        with run.task(call.label):
            run.op("cli." + call.label, "", lambda: decode(call, spawn(run, call)),
                   expect_value(_check(call)))
