"""Closed-loop runner: one client runs the workload's ops in a fixed order,
each under a per-op deadline, and checks every output.

The deadline is a ``signal.setitimer`` alarm in the main thread.  A missed
deadline, a domain error and a wrong output all count as failed ops, and a
failed op counts as taking the full deadline in the latency figures.
"""

from __future__ import annotations

import contextlib
import io
import math
import signal
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


CALIBRATE_EVERY_S = 0.25


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so library code cannot catch it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Op:
    """One closed-loop request.  ``run`` does the work and returns its
    output; ``check(output, ctx)`` returns None or a reason the output is
    wrong.  ``ctx`` is shared by the ops of one pass.  A ``frontier`` op is
    one that fails today; it stays in the workload so a fix shows."""

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], Optional[str]]
    frontier: bool = False


@dataclass
class Sample:
    op: int
    status: str  # ok | error:<Type> | timeout | wrong
    wall: float
    detail: str = ""


@dataclass
class RunResult:
    samples: list = field(default_factory=list)
    passes: int = 0
    calibration: list = field(default_factory=list)  # slice times, see calibrate.py


def capture_cli(run, argv):
    """cli.run(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def run_op(op: Op, deadline: float, tracer=None, op_id: int = 0):
    """(status, wall seconds, output, detail) of one op under the deadline."""
    output = None
    detail = ""
    row = tracer.begin_op(op_id) if tracer is not None else None
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            output = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except OpTimeout:
        status = "timeout"
    except Exception as exc:  # the op boundary: record and keep the loop going
        status = f"error:{type(exc).__name__}"
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()[:300]
    wall = perf_counter() - start
    if tracer is not None:
        tracer.end_op(row)
    return status, wall, output, detail


def run_passes(ops, seconds, deadline, tracer=None, cap=None, calibrate=None):
    """Run whole passes over ``ops`` while the next pass is expected to end
    within ``seconds`` of wall time, and at least one pass.  Only whole
    passes are measured, so every run holds the same op mix.  ``cap`` stops
    mid-pass as a safety net when ops get so slow that a pass would not end
    in time.  ``calibrate`` (a function returning a slice time) runs between
    ops at least CALIBRATE_EVERY_S apart, outside the op timings."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    result = RunResult()
    begin = perf_counter()
    if calibrate is not None:
        result.calibration.append(calibrate())
    calibrated = perf_counter()
    try:
        while True:
            pass_start = perf_counter()
            ctx: dict = {}
            for index, op in enumerate(ops):
                op_id = len(result.samples)
                status, wall, output, detail = run_op(op, deadline, tracer, op_id)
                if status == "ok":
                    try:
                        reason = op.check(output, ctx)
                    except Exception as exc:  # a malformed output is a wrong one
                        reason = f"check raised {type(exc).__name__}: {exc}"
                    if reason is not None:
                        status, detail = "wrong", reason
                result.samples.append(Sample(index, status, wall, detail))
                if calibrate is not None and perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                    result.calibration.append(calibrate())
                    calibrated = perf_counter()
                last = index + 1 == len(ops)
                if not last and cap is not None and perf_counter() - begin > cap:
                    return result
            result.passes += 1
            now = perf_counter()
            if now - begin + (now - pass_start) > seconds:
                return result
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile (q in (0, 100)) of a
    non-empty list: a weighted mean of the order statistics whose weights
    are the Beta((n+1)p, (n+1)(1-p)) probabilities of each 1/n slot, here
    with the normal approximation of that Beta distribution.  Unlike a
    single order statistic it does not jump between the latencies of two
    op kinds when one op moves past another."""
    ordered = sorted(values)
    n = len(ordered)
    p = q / 100.0
    sigma = math.sqrt(p * (1 - p) / (n + 2))

    def cdf(x):
        return 0.5 * (1 + math.erf((x - p) / (sigma * math.sqrt(2))))

    weights = [cdf(i / n) - cdf((i - 1) / n) for i in range(1, n + 1)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def median(values):
    return percentile(values, 50)


def summarize(ops, result: RunResult, deadline: float, speed: float = 1.0):
    """End-to-end figures of a run (without set-up time and memory).  Op
    times are divided by ``speed``, the run's machine-speed factor, except
    for timeouts, which last the deadline whatever the speed; in the
    latencies every failed op counts as the full deadline."""
    samples = result.samples
    attempted = len(samples)
    ok = [s for s in samples if s.status == "ok"]
    latencies = [s.wall / speed if s.status == "ok" else deadline for s in samples]
    busy = sum(s.wall if s.status == "timeout" else s.wall / speed for s in samples)
    failed = [s for s in samples if s.status != "ok"]
    unexpected = [s for s in failed if not ops[s.op].frontier]
    wrong = [s for s in samples if s.status == "wrong"]
    p90 = percentile(latencies, 90)
    return {
        "attempted": attempted,
        "ok": len(ok),
        "failed": len(failed),
        "failed_unexpected": len(unexpected),
        "wrong": len(wrong),
        "ops_per_s": len(ok) / busy if busy > 0 else 0.0,
        "op_p50_ms": 1000.0 * percentile(latencies, 50),
        "op_p90_ms": 1000.0 * p90,
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "ok_ratio": len(ok) / attempted,
        "fail_ratio": len(failed) / attempted,
        "busy_s": busy,
    }


def statuses(ops, result: RunResult):
    """Per op name: counts of each status over the run, plus the first
    detail message of every non-ok status."""
    table = {}
    for s in result.samples:
        entry = table.setdefault(ops[s.op].name, {"frontier": ops[s.op].frontier, "status": {}})
        entry["status"][s.status] = entry["status"].get(s.status, 0) + 1
        if s.status != "ok" and s.detail and "detail" not in entry:
            entry["detail"] = s.detail
    return table
