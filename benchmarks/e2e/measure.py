"""Order statistics, host speed and span self time for the e2e benchmark.

Percentiles use the nearest-rank rule: the p-th percentile of ``n``
samples is the value at rank ``ceil(p / 100 * n)``.  A percentile is only
*supported* by a sample when at least :data:`TAIL_SAMPLES` samples lie
beyond it; :func:`supported_percentile` names the highest one that is.

:class:`HostSpeed` puts every measured time on one scale.  On a shared
host the same code runs 10–70% slower for seconds to minutes at a time,
whenever neighbours load the machine; CPU time slows as much as wall
time.  So between operations the benchmark times a fixed pure-Python
probe that touches nothing of the system under test, and each
operation's time is scaled by how fast the probes around it ran:
``time × REFERENCE_PROBE_S / median(nearby probes)``.  A scaled time
reads as the time on a host where the probe takes
:data:`REFERENCE_PROBE_S`.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Iterable, Sequence

#: Samples that must lie beyond a percentile for it to be reported as
#: measured rather than extrapolated.
TAIL_SAMPLES = 10

#: The percentiles the benchmark reports, in increasing order.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n`` samples."""
    if n < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile out of (0, 100]: {p}")
    # round away float noise before the ceiling (99 / 100 * 1000 is
    # 989.9999999999999, whose ceiling would be one rank too low)
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def beyond(p: float, n: int) -> int:
    """How many of ``n`` samples lie strictly above the ``p``-th percentile."""
    return n - rank(p, n)


def supported_percentile(n: int) -> float | None:
    """The highest of :data:`PERCENTILES` with ≥ :data:`TAIL_SAMPLES` beyond it.

    ``None`` when even the median is unsupported (fewer than 20 samples).
    """
    supported = [p for p in PERCENTILES if n and beyond(p, n) >= TAIL_SAMPLES]
    return supported[-1] if supported else None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


#: The probe's time on the reference host (2-core x86_64 VM, CPython
#: 3.11) when it is quiet, so that scaled times read close to wall time
#: there.
REFERENCE_PROBE_S = 7e-5
#: Probes on each side of an operation whose median scales its time.
PROBE_WINDOW = 25

_PROBE_KEYS = [f"app/key{index:03d}/setting" for index in range(400)]
_PROBE_TABLE = {key: index for index, key in enumerate(_PROBE_KEYS)}
_PROBE_FLOATS = [((index * 7919) % 1000) / 7.0 for index in range(300)]


def _probe_pass() -> int:
    """Dict lookups, integer arithmetic and a sort: interpreter-bound work."""
    total = 0
    table = _PROBE_TABLE
    for key in _PROBE_KEYS:
        total += table[key] * 3 % 7
    return total + len(sorted(_PROBE_FLOATS))


class HostSpeed:
    """Probe timings interleaved with measured operations, to scale them.

    Call :meth:`sample` between operations and :meth:`mark` right after
    each one; :meth:`scale` then scales that operation's time by the
    median of the :data:`PROBE_WINDOW` probes on either side of its mark.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            _probe_pass()  # untimed: brings the probe's data back to cache
            started = time.perf_counter()
            _probe_pass()
            _probe_pass()
            self.samples.append(time.perf_counter() - started)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, seconds: float, mark: int) -> float:
        window = self.samples[max(0, mark - PROBE_WINDOW) : mark + PROBE_WINDOW]
        return seconds * REFERENCE_PROBE_S / statistics.median(window)

    def timed(self, operation):
        """``operation()``'s result and scaled time, probed on both sides."""
        self.sample(PROBE_WINDOW)
        started = time.perf_counter()
        result = operation()
        elapsed = time.perf_counter() - started
        mark = self.mark()
        self.sample(PROBE_WINDOW)
        return result, self.scale(elapsed, mark)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    covered = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans: Iterable[Sequence]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's union.

    ``spans`` rows are ``(id, name, start, end, parent, ...)``.  Children
    are clipped to their parent's interval, so a child span on another
    thread that outlives its parent only covers the overlap.
    """
    rows = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for row in rows:
        parent = row[4]
        if parent is not None:
            children.setdefault(parent, []).append((row[2], row[3]))
    result = {}
    for span_id, _, start, end, *_ in rows:
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(span_id, ())
            if min(e, end) > max(s, start)
        ]
        result[span_id] = (end - start) - union_length(clipped)
    return result
