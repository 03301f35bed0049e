"""Op runner, span recorder and statistics shared by the workloads.

An op is one call into a public function of palinfrac.  The runner times
the call, hands the value (or the exception) to the op's oracle, and
records an `Outcome`.  A failed oracle does not stop the run: the op is
counted as failed and the next one starts.  When tracing is on, every op
also leaves a span in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEPENDENCY_FAILED = "not run: an op it depends on failed"

# Host speed on a shared machine drifts (by 1.6x within minutes on a 2-vCPU
# VM), and every timing moves with it.  So a runner does a fixed piece of
# reference work before an op whenever a workload's REFERENCE_EVERY_S have
# passed since the last time, and records how much slower than nominal it
# ran: 1 on the reference host, 2 where it takes twice as long.
LOOP_S = 0.005  # calibration_loop on an idle 2-vCPU Xeon VM, Python 3.11.7

# workload name -> module in this directory
MODULES = {"chain-pst": "chain_pst", "exact-cf": "exact_cf", "cli-small": "cli_small"}


def calibration_loop() -> float:
    """Reference work of the in-process workloads: a fixed mix of float and
    Fraction arithmetic, the two kinds of work the library does in Python.
    Returns its time over LOOP_S."""
    start = time.perf_counter()
    x = 0.0
    for i in range(20000):
        x = (x * 0.999 + i * 1e-3) / 1.0001
        if x > 5.0:
            x -= 1.0
    f = Fraction(1, 3)
    for i in range(1, 300):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, i)
    return (time.perf_counter() - start) / LOOP_S


def mirror(half: list, length: int) -> list:
    """`half` followed by its reverse, cut to `length` entries in all."""
    return half + half[: length - len(half)][::-1]


def child_env() -> dict:
    """Environment for child interpreters: palinfrac from src/, default tolerance."""
    env = {k: v for k, v in os.environ.items() if k != "PALINFRAC_TOL"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


@dataclass(frozen=True)
class Outcome:
    """One attempted op.  ``seconds`` is None when the op could not run."""

    name: str
    size: str
    seconds: float | None
    failure: str | None
    wrong: bool  # the op returned an answer and the oracle rejected it

    @property
    def verified(self) -> bool:
        return self.failure is None


def expect_value(check: Callable[[object], str | None]):
    """Oracle for an op that must return: any exception is a failure."""

    def oracle(value, error):
        if error is not None:
            return f"unexpected {type(error).__name__}: {error}"
        return check(value)

    return oracle


def expect_error(*codes: str):
    """Oracle for an op that must raise a typed error with one of ``codes``."""

    def oracle(value, error):
        if error is None:
            return f"missing expected typed rejection {'/'.join(codes)}"
        code = getattr(error, "code", None)
        if code not in codes:
            return f"expected {'/'.join(codes)}, got {type(error).__name__}: {error}"
        return None

    return oracle


class Runner:
    """Closed loop with one client: each op starts after the previous returns.

    ``corrupt`` maps an op name to a function applied to the first non-None
    value that op returns, before the oracle sees it; the self-test uses it
    to show that every oracle can fail.  ``reference``, when given, is the
    workload's reference work (see LOOP_S), done before an op at most once
    per ``every_s`` seconds.
    """

    def __init__(self, trace: bool = False, corrupt: dict | None = None,
                 reference: Callable[[], float] | None = None, every_s: float = 0.0):
        self.outcomes: list[Outcome] = []
        self.spans: list[dict] | None = [] if trace else None
        self.notes: dict[str, float] = {}
        self.slowness: list[float] = []  # what `reference` returned, at most once per `every_s`
        self._reference, self._every_s = reference, every_s
        self._calibrated_at = float("-inf")
        self._corrupt = dict(corrupt or {})
        self._ids = itertools.count(1)
        self._task_span: int | None = None

    # -- spans -------------------------------------------------------------

    def _span(self, name, start, end, parent, op_id, **extra) -> dict:
        span = {"id": next(self._ids), "name": name, "start": start, "end": end,
                "parent": parent, "op": op_id, **extra}
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def task(self, kind: str):
        """Group the ops on one input under a parent span."""
        if self.spans is None:
            yield
            return
        span = self._span("task." + kind, time.perf_counter(), None, None, None)
        self._task_span = span["id"]
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._task_span = None

    # -- ops ---------------------------------------------------------------

    def op(self, name: str, size: str, call: Callable[[], object], oracle, ready: bool = True):
        """Run one op; returns (verified, value)."""
        if not ready:
            self.outcomes.append(Outcome(name, size, None, DEPENDENCY_FAILED, False))
            return False, None
        if self._reference is not None and time.perf_counter() - self._calibrated_at >= self._every_s:
            began = time.perf_counter()
            self.slowness.append(self._reference())
            self._calibrated_at = time.perf_counter()
            if self.spans is not None:
                self._span("bench.reference", began, self._calibrated_at, self._task_span, None)
        start = time.perf_counter()
        try:
            value, error = call(), None
        except Exception as exc:  # every exception the library raises is a counted outcome
            value, error = None, exc
        end = time.perf_counter()
        if value is not None and name in self._corrupt:
            value = self._corrupt.pop(name)(value)
        try:
            failure = oracle(value, error)
        except Exception as exc:  # an answer that breaks the oracle is a wrong answer
            failure = f"oracle rejected the answer: {type(exc).__name__}: {exc}"
        checked = time.perf_counter()
        wrong = failure is not None and error is None
        self.outcomes.append(Outcome(name, size, end - start, failure, wrong))
        if self.spans is not None:
            op_id = next(self._ids)
            self._span(name, start, end, self._task_span, op_id, size=size, ok=failure is None)
            self._span("bench.check", end, checked, self._task_span, op_id)
        return failure is None, value

    def note_max(self, key: str, value: float) -> None:
        self.notes[key] = max(self.notes.get(key, value), value)

    def note_add(self, key: str, value: float) -> None:
        self.notes[key] = self.notes.get(key, 0) + value


# -- statistics ----------------------------------------------------------------


def p90(values: list[float]) -> float:
    """90th percentile, Python's default (exclusive) quantile method."""
    return statistics.quantiles(values, n=10)[8]


def end_to_end(outcomes: list[Outcome]) -> dict:
    """Throughput, latency and failure figures of the timed ops."""
    ran = [o for o in outcomes if o.seconds is not None]
    latencies = [o.seconds for o in outcomes if o.verified]
    busy = sum(o.seconds for o in ran)
    failed = sum(1 for o in outcomes if not o.verified)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "wrong": sum(1 for o in outcomes if o.wrong),
        "verified": len(latencies),
        "busy_s": busy,
        "ops_per_s": len(latencies) / busy if busy else 0.0,
        "op_s.p50": statistics.median(latencies) if latencies else 0.0,
        "op_s.p90": p90(latencies) if len(latencies) >= 2 else 0.0,
        "ok_ratio": len(latencies) / len(outcomes) if outcomes else 0.0,
        "fail_ratio": failed / len(outcomes) if outcomes else 0.0,
    }


def _layers(name: str) -> tuple[str, ...]:
    """The layer names an op counts under: every CLI command enters through cli.main."""
    return (name, "cli.main") if name.startswith("cli.") else (name,)


def per_layer(spans: list[dict], outcomes: list[Outcome], traced_wall: float) -> dict[str, float]:
    """``<module>.<function>.<stat>`` figures of a traced run.

    Calls and times come from the op spans; `failed` comes from the
    outcomes, so that an op not run because an op it depends on failed (it
    has no span) counts as failed too.
    """
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        if "size" in span:
            for name in _layers(span["name"]):
                by_name.setdefault(name, []).append(span)
    failed: dict[str, int] = {}
    for o in outcomes:
        if not o.verified:
            for name in _layers(o.name):
                failed[name] = failed.get(name, 0) + 1
                by_name.setdefault(name, [])
    out: dict[str, float] = {}
    for name, group in by_name.items():
        busy = sum(s["end"] - s["start"] for s in group)
        out[f"{name}.calls"] = len(group)
        out[f"{name}.failed"] = failed.get(name, 0)
        out[f"{name}.busy_s"] = busy
        out[f"{name}.share"] = busy / traced_wall
        sizes: dict[str, list[float]] = {}
        for s in group:
            sizes.setdefault(s["size"], []).append(s["end"] - s["start"])
        for size, durations in sizes.items():
            out[f"{name}.p50_s" + (f".{size}" if size else "")] = statistics.median(durations)
    return out


def failure_summary(outcomes: list[Outcome]) -> list[str]:
    """One line per distinct (op, size, reason) with its count."""
    counts: dict[tuple, int] = {}
    for o in outcomes:
        if o.failure is not None:
            reason = o.failure if len(o.failure) <= 120 else o.failure[:117] + "..."
            key = (o.name, o.size, reason)
            counts[key] = counts.get(key, 0) + 1
    return [f"{n:4d} x {name} [{size}] {reason}" for (name, size, reason), n in sorted(counts.items())]
