"""Measurement helpers shared by the workloads.

Everything here is plain Python (numpy only for the schedule), so the
self-tests in ``perfbench/tests`` run without the ``repro`` package:

* percentiles by nearest rank, and the highest percentile a sample
  supports (at least ten samples beyond it);
* an in-memory span tracer with parent links and per-operation group
  ids, plus the self-time accounting over a finished span tree;
* load helpers: the request plan with its fixed repeat share, a seeded
  Poisson schedule, latency and lag measured from each request's due
  time, the backlog test, and the rate-ladder search behind
  ``http_max_rps``;
* the host description recorded with every result.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

#: Percentiles reported, highest first; one is shown only when at least
#: ``MIN_BEYOND`` samples lie beyond it.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


# -- percentiles -------------------------------------------------------------

def _rank(count: int, q: float) -> int:
    # Rounded first so 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q * count / 100.0, 9)))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return float(ordered[_rank(len(ordered), q) - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``."""
    return count - _rank(count, q)


def supports(count: int, q: float) -> bool:
    return count > 0 and samples_beyond(count, q) >= MIN_BEYOND


def highest_supported(count: int, candidates=PERCENTILES) -> float | None:
    """The highest percentile in ``candidates`` with enough samples beyond."""
    for q in sorted(candidates, reverse=True):
        if supports(count, q):
            return q
    return None


@dataclass
class Metric:
    """One reported number with its unit and the samples behind it."""

    value: float
    unit: str
    samples: int = 1
    note: str = ""


class Checks:
    """Counts attempted operations and the ones that failed, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, reason: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(reason)
        return ok

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# -- spans -------------------------------------------------------------------

@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    group: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records parent-linked spans in memory; written out when the run ends.

    The parent is the innermost open span on the calling thread unless
    given explicitly (a load-generator thread names the ladder step it
    serves).  ``group`` ties the spans of one candidate, training run or
    HTTP request together; children inherit it.
    """

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, group: int | None = None,
             parent: Span | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if group is None and parent is not None:
            group = parent.group
        with self._lock:
            span = Span(next(self._ids), name,
                        parent.id if parent is not None else None, group,
                        time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "name": span.name, "parent": span.parent,
                    "group": span.group, "start": span.start,
                    "end": span.end}) + "\n")


class NullTracer:
    """The untraced run: every span is a shared no-op context."""

    enabled = False
    _null = nullcontext()

    def span(self, name, group=None, parent=None):
        return self._null


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start,
                                                          span.end))
    result = {}
    for span in spans:
        covered = [(max(s, span.start), min(e, span.end))
                   for s, e in children.get(span.id, ())]
        covered = [(s, e) for s, e in covered if e > s]
        result[span.id] = span.duration - _union_length(covered)
    return result


def concurrent_excess(spans) -> float:
    """Time counted twice because sibling spans overlapped (threads).

    With it, the accounting identity holds for any span tree:
    ``sum(self times) - concurrent_excess == root duration``.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start,
                                                          span.end))
    return sum(sum(e - s for s, e in intervals) - _union_length(intervals)
               for intervals in children.values())


def layer_table(spans) -> dict[str, dict]:
    """Span name -> calls, busy seconds (sum of durations), self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span.name,
                               {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += span.duration
        row["self_s"] += selfs[span.id]
    return table


def attribute(spans, owners: dict, moved: dict) -> tuple[dict, float,
                                                           float]:
    """Split a traced run's wall time into per-layer self time.

    ``owners`` maps a span name to the per-layer metric that takes its
    self time; spans of any other name (the benchmark's own bookkeeping
    and the root) are unattributed.  ``moved`` maps a metric to seconds
    measured inside its spans by a finer layer (profiled ``repro.nn``
    leaves, the training eval hook) that reports them itself.  Returns
    ``(metric -> seconds, unattributed, concurrent)``; with ``moved``
    added back they satisfy ``sum + unattributed - concurrent == wall``.
    """
    selfs = self_times(spans)
    values = dict.fromkeys(owners.values(), 0.0)
    unattributed = 0.0
    for span in spans:
        metric = owners.get(span.name)
        if metric is None:
            unattributed += selfs[span.id]
        else:
            values[metric] += selfs[span.id]
    for metric, seconds in moved.items():
        values[metric] -= seconds
    return values, unattributed, concurrent_excess(spans)


def overdrawn(values: dict, moved: dict) -> list[str]:
    """Metrics left below zero by ``moved``: a finer layer reported more
    seconds than the spans they were moved out of hold."""
    return [metric for metric in moved if values[metric] < 0]


# -- load --------------------------------------------------------------------

def poisson_schedule(rate: float, count: int, rng) -> list[float]:
    """Due offsets (s) of ``count`` Poisson arrivals at exactly ``rate``.

    The exponential gaps are drawn stratified (one from each of ``count``
    equal-probability slices, in seeded order) and rescaled to sum to
    ``count / rate``: a Poisson process conditioned on its count, so the
    offered rate is the ladder rate on every seed, and so is the share
    of short gaps that make requests overlap.  The seed varies only the
    order of the bursts.
    """
    import numpy as np

    if rate <= 0 or count < 1:
        raise ValueError("rate and count must be positive")
    strata = (np.arange(count) + rng.random(count)) / count
    gaps = -np.log1p(-strata[rng.permutation(count)])
    gaps *= (count / rate) / gaps.sum()
    due = [0.0]
    for gap in gaps[:-1]:
        due.append(due[-1] + float(gap))
    return due


class RequestPlan:
    """Which input each request sends, drawn from a seeded ``rng``.

    Exactly one request in each run of ``every`` (at a seeded position)
    repeats an input sent within the last ``window``, so every phase has
    the same cache-hit share whatever the seed; the rest take fresh
    inputs in order.
    """

    def __init__(self, rng, every: int, window: int):
        self.rng, self.every, self.window = rng, every, window
        self.fresh = 0
        self.repeat_at = 0
        self.history: list[int] = []      # input index of each request

    def next(self, count: int) -> list[tuple[int, bool]]:
        """(input index, is a repeat) for the next ``count`` requests."""
        plan = []
        for _ in range(count):
            if len(self.history) % self.every == 0:
                self.repeat_at = int(self.rng.integers(self.every))
            if (self.history
                    and len(self.history) % self.every == self.repeat_at):
                window = self.history[-self.window:]
                plan.append((window[int(self.rng.integers(len(window)))],
                             True))
            else:
                plan.append((self.fresh, False))
                self.fresh += 1
            self.history.append(plan[-1][0])
        return plan


@dataclass
class Outcome:
    """One open-loop request: when it was due, sent and answered."""

    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency_ms(self) -> float:
        """Timed from the due time, so a stalled sender's wait counts."""
        return (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> float:
        """How late the generator sent the request against the schedule."""
        return (self.sent - self.due) * 1e3


def backlog_growing(lags_ms, limit_ms: float) -> bool:
    """The sender fell behind during the step and did not catch up.

    Compares the median lag of the last quarter of the step's requests
    (in due order) with the first quarter; growth by more than half the
    latency limit means requests queue up faster than they drain.
    """
    lags = list(lags_ms)
    quarter = max(1, len(lags) // 4)
    return (percentile(lags[-quarter:], 50)
            - percentile(lags[:quarter], 50)) > limit_ms / 2


@dataclass
class StepResult:
    rate: float
    outcomes: list[Outcome] = field(default_factory=list)

    def p90_ms(self) -> float:
        return percentile([o.latency_ms for o in self.outcomes], 90)

    def clean(self, limit_ms: float) -> bool:
        """Every request answered and checked, and no growing backlog."""
        if not self.outcomes or not all(o.ok for o in self.outcomes):
            return False
        ordered = sorted(self.outcomes, key=lambda o: o.due)
        return not backlog_growing([o.lag_ms for o in ordered], limit_ms)

    def passed(self, limit_ms: float) -> bool:
        return self.clean(limit_ms) and self.p90_ms() <= limit_ms


def max_rate(steps: list[StepResult], limit_ms: float) -> float:
    """Highest rate meeting the latency limit, from an ascending ladder.

    The ladder stops at its first failing step.  The result is the last
    passing rate, moved toward the failing one by linear interpolation
    of p90 against rate when the failure was on latency alone; a
    failure on errors or backlog gives the passing rate itself.  0 when
    even the lowest rate fails; the top rate when none fails.
    """
    passed = None
    for step in steps:
        if step.passed(limit_ms):
            passed = step
            continue
        if passed is None:
            return 0.0
        low, high = passed.p90_ms(), step.p90_ms()
        if step.clean(limit_ms) and high > limit_ms >= low:
            share = (limit_ms - low) / (high - low)
            return passed.rate + share * (step.rate - passed.rate)
        return passed.rate
    return passed.rate if passed is not None else 0.0


# -- host --------------------------------------------------------------------

def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float | None:
    """Peak resident memory of another live process, from /proc."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read (never set) through ctypes."""
    import ctypes

    try:
        import numpy
    except ImportError:
        return None
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    if not os.path.isdir(libs):
        return None
    for name in sorted(os.listdir(libs)):
        if "openblas" not in name:
            continue
        lib = ctypes.CDLL(os.path.join(libs, name))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return int(func())
    return None


def host_info(scale: str, seed: int) -> dict:
    """Host and settings recorded with every result."""
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:       # numpy < 1.26 has no mode="dicts"
        pass
    return {
        "cores": usable_cores(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")
                 if key in blas},
        "blas_threads": _blas_threads(),
        "REPRO_THREADS": os.environ.get("REPRO_THREADS"),
        "scale": scale,
        "seed": seed,
    }
