"""Closed-loop timing, in-memory spans, and the statistics the benchmark reports.

One caller runs the operations of a workload one after another; each
operation starts only after the previous one returned.  A timed phase runs
whole rounds of the workload's fixed operation list, so every phase sees
the same mix, and stops at the first round boundary after both its time
and its minimum operation count are reached.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass
class Op:
    """One call into a layer, made by the benchmark.

    key names the input uniquely within the workload, name is the span
    name "<layer>.<function>", and size is the input size used for slope
    fits.  check gets the output and the first outputs of all operations by
    key, and returns a description of what is wrong, or None.
    """

    key: str
    name: str
    size: int
    fn: Callable[..., Any]
    args: tuple
    check: Callable[[Any, dict], str | None]


class Tracer:
    """Spans kept in memory as (id, name, start, end, parent id, op id)."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the open one, from times taken
        elsewhere (perf_counter is one system-wide clock on Linux, so child
        processes can report their own)."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append((len(self.spans), name, start, end, parent, self.op))


CALIBRATE_EVERY = 0.5  # seconds of ops between two calibration loops


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of tuple slicing, concatenation,
    comparison and dict stores (the instruction mix of the queue and word
    kernels): a probe of how fast this machine runs the interpreter now.

    The CPUs of a shared host slow down and speed up by tens of percent over
    tens of seconds.  Timing this loop between ops and scaling a run's
    timings by it keeps that drift out of the end-to-end figures; it runs
    no quemon code, so a change to the program does not move it.
    """
    t0 = perf_counter()
    w = tuple(range(64)) * 40
    rotations = 0
    for k in range(1, 300):
        rotations += (w[k:] + w[:k]) == w
    table: dict[int, tuple] = {}
    for i in range(50_000):
        table[i & 1023] = (i, rotations)
    return perf_counter() - t0


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    rounds: int = 0
    errors: dict[int, str] = field(default_factory=dict)
    failed_runs: int = 0
    calibrations: list[float] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.elapsed


_MISSING = object()


def run_phase(ops: list[Op], seconds: float, min_ops: int, tracer: Tracer,
              first: list) -> Phase:
    """Run whole rounds of ops until seconds and min_ops are both reached.

    first holds each op's first output; later rounds must reproduce it
    exactly, or the op counts as failed.  An op that raises also counts as
    failed, and the loop goes on.  Calibration loops run between ops, at
    most every CALIBRATE_EVERY seconds, and their time is not part of the
    phase.
    """
    ph = Phase()
    paused = 0.0
    t_start = next_cal = perf_counter()
    while True:
        for i, op in enumerate(ops):
            if perf_counter() >= next_cal:
                ph.calibrations.append(calibrate())
                paused += ph.calibrations[-1]
                next_cal = perf_counter() + CALIBRATE_EVERY
            tracer.op = i
            t0 = perf_counter()
            try:
                with tracer.span("op"):
                    with tracer.span(op.name):
                        out = op.fn(*op.args)
            except Exception as exc:  # an op failure is a result, not a crash
                ph.latencies.append(perf_counter() - t0)
                ph.errors.setdefault(i, f"{type(exc).__name__}: {exc}")
                ph.failed_runs += 1
                continue
            ph.latencies.append(perf_counter() - t0)
            if first[i] is _MISSING:
                first[i] = out
            elif out != first[i]:
                ph.errors.setdefault(i, "output differs between rounds")
                ph.failed_runs += 1
        ph.rounds += 1
        ph.elapsed = perf_counter() - t_start - paused
        if ph.elapsed >= seconds and len(ph.latencies) >= min_ops:
            return ph


def new_first(ops: list[Op]) -> list:
    return [_MISSING] * len(ops)


# -- statistics -----------------------------------------------------------------

def median(xs: list[float]) -> float:
    return statistics.median(xs)


def percentile(xs: list[float], p: int) -> float:
    """The p-th percentile, interpolated between the two nearest samples."""
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def min_ops_for(p: int) -> int:
    """Fewest samples that leave at least ten above the p-th percentile,
    which percentile() places at rank (n - 1) * p / 100 counted from zero."""
    n = 11
    while n - 1 - (n - 1) * p // 100 < 10:
        n += 1
    return n


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 when fewer
    than two distinct sizes were measured."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def ladder_medians(spans: list[tuple], ops: list[Op], name: str) -> dict[int, float]:
    """Median seconds of the spans called name, per input size."""
    by_size: dict[int, list[float]] = {}
    for _, sname, start, end, _, op in spans:
        if sname == name:
            by_size.setdefault(ops[op].size, []).append(end - start)
    return {s: median(v) for s, v in sorted(by_size.items())}


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Seconds per span name not covered by that span's children."""
    covered = [0.0] * len(spans)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for sid, name, start, end, _, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start) - covered[sid]
    return out


def digest(ops: list[Op], first: list) -> str:
    """sha256 over every op's key and the repr of its first output."""
    h = hashlib.sha256()
    for op, out in zip(ops, first):
        if out is _MISSING:
            body = b"<no output>"
        else:
            body = out if isinstance(out, bytes) else repr(out).encode()
        h.update(op.key.encode() + b"\0" + body + b"\0")
    return h.hexdigest()
