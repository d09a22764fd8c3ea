"""Deterministic fault injection and supervised recovery for the fleet.

Three pieces, all seeded and pure so every hostile run is replayable:

- :class:`FaultInjector` — named injection points (machine update crash,
  hang, slow round, torn/corrupt checkpoint write, snapshot loss) whose
  every decision derives from ``FaultSpec.seed`` via
  :func:`~repro.common.hashing.stable_hash` over
  ``seed:point:machine:round:attempt``.  Probabilistic rates and an
  explicit :class:`ScheduledFault` list compose; the injector records
  each fired fault, and :meth:`FaultInjector.signature` renders the
  canonically ordered sequence as one JSON string — re-running the same
  seed reproduces it byte-for-byte.
- :class:`MachineSupervisor` — the per-machine health state machine
  (``HEALTHY → DEGRADED → UNHEALTHY``): failures accumulate, a success
  resets, and ``failure_threshold`` consecutive failures trip the
  circuit breaker (the driver then restarts the machine from its last
  good checkpoint).  Machines whose merge evidence may exceed their
  restored live state are flagged ``stale_evidence`` until the next
  merge re-syncs them.
- :class:`FleetResilience` — the bundle
  :meth:`~repro.fleet.pipeline.FleetPipeline.drive` takes: injector +
  supervisor + :class:`ResilienceConfig` (round timeout, bounded retry
  with deterministic exponential backoff, checkpoint cadence) + an
  optional :class:`~repro.fleet.checkpointing.FleetCheckpointStore` for
  restart-from-checkpoint and crash-safe generation writes.

Recovery is correct by construction: a machine's store/journal survives
its (injected) crash — only in-memory pipeline state is lost — so a
pipeline restarted from any checkpoint (or from scratch) converges back
to the same evidence once it re-reads the journal, and
:class:`~repro.fleet.merge.FleetCorrelationMerge`'s snapshot-diff ingest
retracts whatever the restart lost via ``apply_count_deltas``.  The
property suite pins the headline: under arbitrary seeded fault
schedules, final fleet clusters ≡
:func:`~repro.fleet.merge.concatenated_batch_clusters`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.common.hashing import stable_hash
from repro.fleet.checkpointing import FleetCheckpointStore

# -- injection points ---------------------------------------------------------

#: The machine's update raises mid-round (in-memory state is lost).
POINT_UPDATE_CRASH = "update_crash"
#: The machine's update wedges (recovered via the driver's round timeout).
POINT_UPDATE_HANG = "update_hang"
#: The machine's update is slow but completes (exercises retry-free paths).
POINT_SLOW_ROUND = "slow_round"
#: A checkpoint machine file is truncated mid-write.
POINT_TORN_WRITE = "torn_write"
#: A checkpoint machine file is bit-flipped after the write.
POINT_CORRUPT_CHECKPOINT = "corrupt_checkpoint"
#: The machine reboots at round start, losing its in-memory snapshot.
POINT_SNAPSHOT_LOSS = "snapshot_loss"

FAULT_POINTS = (
    POINT_UPDATE_CRASH,
    POINT_UPDATE_HANG,
    POINT_SLOW_ROUND,
    POINT_TORN_WRITE,
    POINT_CORRUPT_CHECKPOINT,
    POINT_SNAPSHOT_LOSS,
)

#: Crash placement within the update (derived from the seed per decision):
#: ``before`` loses the round's work, ``after`` completes the update but
#: dies before its evidence reaches the merge.
CRASH_BEFORE = "before"
CRASH_AFTER = "after"

_HASH_SPAN = float(1 << 32)


class InjectedFault(RuntimeError):
    """Base class for faults raised by the injector (not real errors)."""


class InjectedCrash(InjectedFault):
    """A deterministic injected machine crash."""


@dataclass(frozen=True)
class ScheduledFault:
    """One explicitly scheduled fault (fires regardless of rates).

    ``times`` makes the fault fire on attempts ``0 .. times-1`` of its
    round, so a single entry can hold a machine down long enough to trip
    the circuit breaker.
    """

    round_index: int
    machine_id: str
    point: str
    times: int = 1

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; "
                f"points: {list(FAULT_POINTS)}"
            )
        if self.times < 1:
            raise ValueError(f"times must be at least 1, got {self.times}")


@dataclass(frozen=True)
class FaultSpec:
    """A seeded fault schedule: per-point rates plus explicit entries.

    Rates are per (machine, round, attempt) probabilities in ``[0, 1)``;
    keep them strictly below 1 or retries can never succeed.  Durations
    are deliberately tiny defaults — tests scale them against the
    driver's ``round_timeout``.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    torn_write_rate: float = 0.0
    corrupt_rate: float = 0.0
    snapshot_loss_rate: float = 0.0
    hang_seconds: float = 0.05
    slow_seconds: float = 0.005
    scheduled: tuple[ScheduledFault, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "crash_rate",
            "hang_rate",
            "slow_rate",
            "torn_write_rate",
            "corrupt_rate",
            "snapshot_loss_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault (the injector's replayable record)."""

    round_index: int
    machine_id: str
    point: str
    attempt: int
    detail: str = ""

    @property
    def sort_key(self) -> tuple:
        return (self.round_index, self.machine_id, self.point, self.attempt)


@dataclass(frozen=True)
class UpdatePlan:
    """The injector's verdict for one update attempt."""

    slow_seconds: float = 0.0
    hang_seconds: float = 0.0
    crash: str | None = None  # None | CRASH_BEFORE | CRASH_AFTER


class FaultInjector:
    """Seeded, deterministic fault decisions at named injection points.

    Every decision is a pure function of
    ``(seed, point, machine_id, round_index, attempt)`` — concurrency,
    retries and wall-clock never perturb it.  Fired faults are recorded;
    :meth:`sequence` returns them in canonical order and
    :meth:`signature` serialises that order, so two runs with the same
    seed (and the same supervision outcome) compare byte-for-byte.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._scheduled: dict[tuple[int, str, str], int] = {
            (entry.round_index, entry.machine_id, entry.point): entry.times
            for entry in spec.scheduled
        }
        self._fired: list[FaultEvent] = []

    # -- decisions -----------------------------------------------------------

    def _chance(
        self, point: str, machine_id: str, round_index: int, attempt: int
    ) -> float:
        token = f"{self.spec.seed}:{point}:{machine_id}:{round_index}:{attempt}"
        return stable_hash(token) / _HASH_SPAN

    def _fires(
        self,
        point: str,
        rate: float,
        machine_id: str,
        round_index: int,
        attempt: int,
    ) -> bool:
        times = self._scheduled.get((round_index, machine_id, point), 0)
        if attempt < times:
            return True
        if rate <= 0.0:
            return False
        return self._chance(point, machine_id, round_index, attempt) < rate

    def _record(
        self,
        point: str,
        machine_id: str,
        round_index: int,
        attempt: int,
        detail: str = "",
    ) -> None:
        self._fired.append(
            FaultEvent(
                round_index=round_index,
                machine_id=machine_id,
                point=point,
                attempt=attempt,
                detail=detail,
            )
        )

    def decide_update(
        self, machine_id: str, round_index: int, attempt: int
    ) -> UpdatePlan:
        """Slow/hang/crash verdict for one machine-update attempt."""
        spec = self.spec
        slow = hang = 0.0
        crash: str | None = None
        if self._fires(
            POINT_SLOW_ROUND, spec.slow_rate, machine_id, round_index, attempt
        ):
            slow = spec.slow_seconds
            self._record(
                POINT_SLOW_ROUND, machine_id, round_index, attempt,
                detail=f"{slow}s",
            )
        if self._fires(
            POINT_UPDATE_HANG, spec.hang_rate, machine_id, round_index, attempt
        ):
            hang = spec.hang_seconds
            self._record(
                POINT_UPDATE_HANG, machine_id, round_index, attempt,
                detail=f"{hang}s",
            )
        if self._fires(
            POINT_UPDATE_CRASH, spec.crash_rate, machine_id, round_index, attempt
        ):
            mode_token = f"{spec.seed}:crash-mode:{machine_id}:{round_index}:{attempt}"
            crash = CRASH_AFTER if stable_hash(mode_token) % 2 else CRASH_BEFORE
            self._record(
                POINT_UPDATE_CRASH, machine_id, round_index, attempt,
                detail=crash,
            )
        return UpdatePlan(slow_seconds=slow, hang_seconds=hang, crash=crash)

    def decide_snapshot_loss(self, machine_id: str, round_index: int) -> bool:
        """Does this machine reboot (losing in-memory state) this round?"""
        if self._fires(
            POINT_SNAPSHOT_LOSS,
            self.spec.snapshot_loss_rate,
            machine_id,
            round_index,
            0,
        ):
            self._record(POINT_SNAPSHOT_LOSS, machine_id, round_index, 0)
            return True
        return False

    def decide_checkpoint_damage(
        self, machine_id: str, round_index: int
    ) -> str | None:
        """Damage verdict for one machine's checkpoint file this round."""
        if self._fires(
            POINT_TORN_WRITE,
            self.spec.torn_write_rate,
            machine_id,
            round_index,
            0,
        ):
            self._record(POINT_TORN_WRITE, machine_id, round_index, 0)
            return POINT_TORN_WRITE
        if self._fires(
            POINT_CORRUPT_CHECKPOINT,
            self.spec.corrupt_rate,
            machine_id,
            round_index,
            0,
        ):
            self._record(POINT_CORRUPT_CHECKPOINT, machine_id, round_index, 0)
            return POINT_CORRUPT_CHECKPOINT
        return None

    @staticmethod
    def damage_payload(payload: bytes, mode: str) -> bytes:
        """Apply one checkpoint-damage mode to a file's bytes."""
        if mode == POINT_TORN_WRITE:
            return payload[: max(1, len(payload) // 2)]
        if mode == POINT_CORRUPT_CHECKPOINT:
            index = len(payload) // 3
            return payload[:index] + bytes([payload[index] ^ 0xFF]) + payload[index + 1 :]
        raise ValueError(f"unknown damage mode {mode!r}")

    # -- the replayable record ----------------------------------------------

    @property
    def faults_fired(self) -> int:
        return len(self._fired)

    def sequence(self) -> tuple[FaultEvent, ...]:
        """Every fired fault in canonical (round, machine, point) order."""
        return tuple(sorted(self._fired, key=lambda event: event.sort_key))

    def signature(self) -> str:
        """The fired-fault sequence as one JSON string (byte-comparable)."""
        return json.dumps(
            [
                {
                    "round": event.round_index,
                    "machine": event.machine_id,
                    "point": event.point,
                    "attempt": event.attempt,
                    "detail": event.detail,
                }
                for event in self.sequence()
            ]
        )


# -- supervision --------------------------------------------------------------

HEALTH_HEALTHY = "HEALTHY"
HEALTH_DEGRADED = "DEGRADED"
HEALTH_UNHEALTHY = "UNHEALTHY"

ACTION_RETRY = "retry"
ACTION_RESTART = "restart"


@dataclass
class MachineHealth:
    """One machine's supervision record."""

    health: str = HEALTH_HEALTHY
    consecutive_failures: int = 0
    failures: int = 0
    timeouts: int = 0
    restarts: int = 0
    times_unhealthy: int = 0
    stale_evidence: bool = False
    last_fault: str | None = None

    def as_dict(self) -> dict:
        return {
            "health": self.health,
            "consecutive_failures": self.consecutive_failures,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "restarts": self.restarts,
            "times_unhealthy": self.times_unhealthy,
            "stale_evidence": self.stale_evidence,
            "last_fault": self.last_fault,
        }


class MachineSupervisor:
    """The per-machine health state machine and circuit breaker.

    ``HEALTHY`` — last attempt succeeded.  ``DEGRADED`` — failures since
    the last success (or a restart not yet re-proven).  ``UNHEALTHY`` —
    ``failure_threshold`` consecutive failures tripped the breaker; the
    driver must restart the machine from its last good checkpoint before
    retrying.  A timeout always returns :data:`ACTION_RESTART`: the
    wedged update thread cannot be cancelled, so the pipeline object it
    holds must be abandoned, never retried in place.
    """

    def __init__(self, failure_threshold: int = 3) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be at least 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self._records: dict[str, MachineHealth] = {}

    def record(self, machine_id: str) -> MachineHealth:
        return self._records.setdefault(machine_id, MachineHealth())

    def forget(self, machine_id: str) -> None:
        self._records.pop(machine_id, None)

    def record_failure(
        self, machine_id: str, reason: str, *, timeout: bool = False
    ) -> str:
        """Count one failed attempt; returns the recovery action."""
        record = self.record(machine_id)
        record.failures += 1
        record.consecutive_failures += 1
        record.last_fault = reason
        if timeout:
            record.timeouts += 1
        if record.consecutive_failures >= self.failure_threshold:
            if record.health != HEALTH_UNHEALTHY:
                record.times_unhealthy += 1
            record.health = HEALTH_UNHEALTHY
            return ACTION_RESTART
        record.health = HEALTH_DEGRADED
        return ACTION_RESTART if timeout else ACTION_RETRY

    def record_restart(self, machine_id: str) -> None:
        record = self.record(machine_id)
        record.restarts += 1
        record.consecutive_failures = 0
        record.health = HEALTH_DEGRADED
        record.stale_evidence = True

    def record_success(self, machine_id: str) -> None:
        record = self.record(machine_id)
        record.consecutive_failures = 0
        record.health = HEALTH_HEALTHY

    def mark_synced(self, machine_id: str) -> None:
        """The machine's evidence re-reached the merge; no longer stale."""
        self.record(machine_id).stale_evidence = False

    def report(self, machine_id: str) -> dict | None:
        record = self._records.get(machine_id)
        return None if record is None else record.as_dict()

    def stale_machines(self) -> list[str]:
        return sorted(
            machine_id
            for machine_id, record in self._records.items()
            if record.stale_evidence
        )

    def fleet_report(self) -> dict:
        counts = {HEALTH_HEALTHY: 0, HEALTH_DEGRADED: 0, HEALTH_UNHEALTHY: 0}
        for record in self._records.values():
            counts[record.health] += 1
        if counts[HEALTH_UNHEALTHY]:
            status = "unhealthy"
        elif counts[HEALTH_DEGRADED]:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "healthy": counts[HEALTH_HEALTHY],
            "degraded": counts[HEALTH_DEGRADED],
            "unhealthy": counts[HEALTH_UNHEALTHY],
            "stale_evidence": self.stale_machines(),
            "restarts": sum(r.restarts for r in self._records.values()),
            "failures": sum(r.failures for r in self._records.values()),
        }


@dataclass
class ResilienceConfig:
    """Supervision policy for :meth:`FleetPipeline.drive`.

    ``round_timeout`` is the per-attempt wall bound on one machine's
    update (``None``: unbounded — hangs are then unrecoverable, so set
    it whenever ``hang_rate > 0``).  Retries back off deterministically:
    attempt *k* sleeps ``min(backoff_max, backoff_base * factor**k)``.
    ``failure_threshold`` consecutive failures trip the circuit breaker
    (restart from the last good checkpoint); ``max_round_attempts``
    bounds the whole retry loop so a rate-1.0 misconfiguration surfaces
    as an error instead of a livelock.  ``checkpoint_every`` writes a
    crash-safe checkpoint generation every N completed rounds when the
    resilience bundle has a state dir (``None``: only on demand).
    """

    round_timeout: float | None = None
    failure_threshold: int = 3
    max_round_attempts: int = 12
    backoff_base: float = 0.002
    backoff_factor: float = 2.0
    backoff_max: float = 0.05
    checkpoint_every: int | None = 1
    keep_generations: int = 3

    def backoff_seconds(self, attempt: int) -> float:
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** attempt,
        )


class FleetResilience:
    """Everything :meth:`FleetPipeline.drive` needs to survive faults.

    ``injector`` may be ``None`` (pure supervision — recover from *real*
    failures only); ``state_dir`` may be ``None`` (no checkpoints —
    restarts rebuild from scratch by re-reading the store's journal,
    which is slower but equally correct).
    """

    def __init__(
        self,
        *,
        injector: FaultInjector | None = None,
        config: ResilienceConfig | None = None,
        state_dir: str | Path | None = None,
    ) -> None:
        self.injector = injector
        self.config = config or ResilienceConfig()
        self.supervisor = MachineSupervisor(self.config.failure_threshold)
        self.store = (
            FleetCheckpointStore(state_dir, keep=self.config.keep_generations)
            if state_dir is not None
            else None
        )

    def load_machine_state(self, machine_id: str) -> dict | None:
        """The machine's last good checkpoint state (``None``: none)."""
        if self.store is None:
            return None
        return self.store.load_machine(machine_id)

    def should_checkpoint(self, round_index: int) -> bool:
        every = self.config.checkpoint_every
        return (
            self.store is not None
            and every is not None
            and round_index % every == 0
        )

    def payload_filter(self, round_index: int):
        """The checkpoint-damage hook for this round's generation write."""
        if self.injector is None:
            return None

        def damage(machine_id: str, payload: bytes) -> bytes:
            mode = self.injector.decide_checkpoint_damage(
                machine_id, round_index
            )
            if mode is None:
                return payload
            return FaultInjector.damage_payload(payload, mode)

        return damage
