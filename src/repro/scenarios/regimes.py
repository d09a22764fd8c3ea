"""Hostile workload regimes as pure, seeded event-stream transforms.

Each function either *generates* adversarial modification events (flash
crowds, churn storms) or *transforms* an existing journal-ordered stream
(clock skew, duplicate/late delivery floods).  All randomness flows
through an explicit ``random.Random`` seeded by the caller (the scenario
builder derives per-machine seeds from the config seed via
:func:`repro.common.hashing.stable_hash`), so regimes are byte-stable
across runs and platforms.

Two invariants every producer here maintains, because the TTKV enforces
them at append time:

- **per-key monotonic timestamps** — a key's events never go back in
  time (equal timestamps are legal: that is what a duplicate delivery
  looks like);
- **bounded correlation components** — scatter regimes confine each
  burst to one small key *bucket* and space bursts further apart than
  the clustering window, so a registry-scale key population stresses
  matrix and journal growth without chaining into one giant component
  that would make agglomeration quadratic in 10⁴ keys.

This module deliberately has no pydantic dependency: the reorder-flood
property tests drive :func:`flooded_delivery` directly even when the
``scenarios`` extra is not installed.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

Event = tuple[float, str, Any]

#: Spacing between flash-crowd waves; comfortably beyond any sane
#: clustering window so consecutive waves form distinct write groups.
WAVE_SPACING_SECONDS = 4 * 3600.0


def zipf_activity_scale(rank: int, skew: float) -> float:
    """Zipf-style per-machine activity decay: ``(rank + 1) ** -skew``.

    Rank 0 is the group's hottest machine; ``skew`` 0 keeps the group
    homogeneous.  Scenario population groups multiply this into their
    ``activity_scale`` so a group models a few busy machines and a long
    quiet tail.
    """
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    return float(rank + 1) ** -skew


def flash_crowd_events(
    *,
    keys: Sequence[str],
    start_time: float,
    waves: int,
    window_seconds: float,
    rng: random.Random,
    value_range: int = 1 << 16,
) -> list[Event]:
    """One machine's writes for a rollout-driven flash crowd.

    Every wave rewrites all ``keys`` (canonical app-config keys, shared
    across the whole population) inside a single ``window_seconds``
    burst, jittered per machine so the fleet's writes land scattered
    *within* the window rather than on one identical instant.  Waves are
    :data:`WAVE_SPACING_SECONDS` apart, so each forms its own write
    group on every machine and the fleet evidence for the rollout keys
    spikes once per wave.
    """
    if not keys:
        raise ValueError("a flash crowd needs at least one key")
    events: list[Event] = []
    for wave in range(waves):
        wave_start = start_time + wave * WAVE_SPACING_SECONDS
        burst = wave_start + rng.uniform(0.0, max(window_seconds - 1.0, 0.0))
        for offset, key in enumerate(keys):
            events.append((burst + offset * 0.01, key, rng.randrange(value_range)))
    return events


def churn_storm_keys(pool_size: int, prefix: str = "scatter/") -> list[str]:
    """The registry-scale synthetic key pool for a churn storm.

    Keys are disjoint from every app's canonical prefix, so a storm
    inflates the key population without perturbing the clusters the
    Table-I workloads produce.
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be positive, got {pool_size}")
    width = max(6, len(str(pool_size - 1)))
    return [f"{prefix}key{index:0{width}d}" for index in range(pool_size)]


def churn_storm_events(
    *,
    keys: Sequence[str],
    writes: int,
    bucket_size: int,
    start_time: float,
    end_time: float,
    min_gap_seconds: float,
    rng: random.Random,
    value_range: int = 1 << 16,
) -> list[Event]:
    """One machine's malware-like scatter writes over a huge key pool.

    The pool is partitioned into ``bucket_size`` families; each burst
    co-writes a random handful of keys from *one* bucket, with at least
    ``min_gap_seconds`` between bursts.  Writes stop when the budget or
    the time range runs out, whichever first — callers sizing a storm
    should keep ``min_gap_seconds`` above the clustering window
    (otherwise consecutive bursts chain into one endless write group)
    and expect roughly ``writes`` events when the range is long enough
    to hold ``writes / 4`` gaps.
    """
    if writes < 1:
        raise ValueError(f"writes must be positive, got {writes}")
    if bucket_size < 1 or bucket_size > len(keys):
        raise ValueError(
            f"bucket_size {bucket_size} must be in [1, {len(keys)}]"
        )
    if end_time <= start_time:
        raise ValueError("end_time must be after start_time")
    buckets = [
        keys[offset : offset + bucket_size]
        for offset in range(0, len(keys), bucket_size)
    ]
    events: list[Event] = []
    now = start_time
    while len(events) < writes and now < end_time:
        bucket = buckets[rng.randrange(len(buckets))]
        burst_size = min(
            rng.randint(2, max(2, min(6, len(bucket)))),
            len(bucket),
            writes - len(events),
        )
        for offset, key in enumerate(sorted(rng.sample(list(bucket), burst_size))):
            events.append((now + offset * 0.01, key, rng.randrange(value_range)))
        now += min_gap_seconds * rng.uniform(1.0, 1.5)
    return events


def skew_timestamps(
    events: Sequence[Event],
    *,
    max_skew_seconds: float,
    rng: random.Random,
) -> list[Event]:
    """Shift a machine's whole stream by one sampled clock offset.

    A machine's clock error is (to first order) constant over a trace,
    so the offset is sampled once per machine from
    ``[-max_skew_seconds, +max_skew_seconds]`` and applied uniformly —
    preserving per-key order by construction.  Timestamps are floored at
    zero (a monotone map, so per-key order still holds) to keep early
    events inside the collector's epoch.
    """
    if max_skew_seconds < 0:
        raise ValueError(
            f"max_skew_seconds must be non-negative, got {max_skew_seconds}"
        )
    offset = rng.uniform(-max_skew_seconds, max_skew_seconds)
    return [
        (max(0.0, timestamp + offset), key, value)
        for timestamp, key, value in events
    ]


def flooded_delivery(
    events: Sequence[Event],
    *,
    duplicate_fraction: float,
    late_fraction: float,
    max_displacement: int,
    rng: random.Random,
) -> list[Event]:
    """Re-order a journal-ordered stream into a hostile delivery order.

    Models a lossy collection path: ``late_fraction`` of events are
    withheld and re-delivered up to ``max_displacement`` arrivals later;
    ``duplicate_fraction`` are delivered a second time (same timestamp —
    a retransmission, not a new write).  Per-key timestamp order is
    preserved — before any event of key *k* is delivered, every withheld
    event of *k* is flushed first — because the loggers guarantee that
    order and the TTKV enforces it at append time.  Everything else may
    arrive arbitrarily shuffled within the displacement bound, which is
    precisely the regime the journal's reorder-tolerant reads and the
    engines' absorb / repair / rebuild logic exist for.

    The result is a permutation of ``events`` plus duplicates; feeding
    it to :meth:`repro.ttkv.store.TTKV.record_events` yields a journal
    equivalent to the original stream (duplicates collapse into the
    same write groups), which is what the flood property suite pins.
    """
    if not 0.0 <= duplicate_fraction <= 1.0:
        raise ValueError(f"duplicate_fraction out of [0, 1]: {duplicate_fraction}")
    if not 0.0 <= late_fraction <= 1.0:
        raise ValueError(f"late_fraction out of [0, 1]: {late_fraction}")
    if max_displacement < 1:
        raise ValueError(f"max_displacement must be >= 1, got {max_displacement}")

    delivered: list[Event] = []
    pending: list[tuple[int, Event]] = []  # (release_at_index, event)

    def flush(due_index: int | None = None, key: str | None = None) -> None:
        """Deliver withheld events that are due or collide on ``key``."""
        kept: list[tuple[int, Event]] = []
        for release_at, withheld in pending:
            due = due_index is not None and release_at <= due_index
            collides = key is not None and withheld[1] == key
            if due or collides:
                delivered.append(withheld)
            else:
                kept.append((release_at, withheld))
        pending[:] = kept

    for index, event in enumerate(events):
        flush(due_index=index)
        flush(key=event[1])
        if rng.random() < late_fraction:
            pending.append((index + 1 + rng.randint(1, max_displacement), event))
            continue
        delivered.append(event)
        if rng.random() < duplicate_fraction:
            pending.append((index + 1 + rng.randint(1, max_displacement), event))
    # drain the tail in release order (stable for equal release indices)
    for _, withheld in sorted(pending, key=lambda item: item[0]):
        delivered.append(withheld)
    return delivered
