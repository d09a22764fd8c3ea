"""Scenario assembly: a generated trace plus one Table III error case.

``prepare_scenario`` reproduces §VI-B's experimental setup:

1. take a generated trace for the case's machine profile;
2. guarantee the offending settings have a pre-error modification history
   (the paper's traces guarantee this by case selection; the synthetic
   equivalent seeds coherent good-value writes when the random workload
   happened not to touch a key);
3. inject the erroneous values ``days_before_end`` days before the end of
   the trace (14 in the paper), dropping later legitimate writes of those
   keys so the error persists;
4. optionally add spurious wrong-value writes after the error (the user's
   failed fix attempts, Fig. 2b);
5. sync the application's live store to the trace's final state so the
   symptom actually shows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.apps.base import SimulatedApplication
from repro.common.format import SECONDS_PER_DAY, quantize_timestamp
from repro.common.hashing import stable_hash
from repro.core.pipeline import DEFAULT_CORRELATION_THRESHOLD, DEFAULT_WINDOW
from repro.errors.cases import ErrorCase
from repro.errors.injection import inject_events, sync_app_store
from repro.exceptions import InjectionError
from repro.repair.trial import Trial
from repro.ttkv.store import TTKV
from repro.workload.tracegen import GeneratedTrace


@dataclass
class ErrorScenario:
    """A ready-to-repair environment for one error case."""

    case: ErrorCase
    app: SimulatedApplication
    ttkv: TTKV
    injection_time: float
    end_time: float
    trial: Trial

    @property
    def window(self) -> float:
        """Effective clustering window for this case (tuned where needed)."""
        return self.case.tuned_window or DEFAULT_WINDOW

    @property
    def correlation_threshold(self) -> float:
        return self.case.tuned_threshold or DEFAULT_CORRELATION_THRESHOLD

    def is_fixed(self, screenshot) -> bool:
        return self.case.fixed(screenshot)


def _related_group_keys(app: SimulatedApplication, local_key: str) -> frozenset[str]:
    """The dependency group containing ``local_key`` (or the key alone)."""
    for group in app.schema.groups:
        if local_key in group.keys():
            return group.keys()
    return frozenset((local_key,))


def _seed_events(
    app: SimulatedApplication,
    store: TTKV,
    offending_locals: list[str],
    injection_time: float,
    precision: float,
    seed: int | None = None,
) -> list[tuple[float, str, Any]]:
    """Good-value writes for offending-group keys lacking history.

    Each seeding round co-writes the whole group inside one quantised
    second, so the clustering pipeline sees the same signal a real
    preference change would have produced.  Values are the keys' current
    good values (the schema defaults the live app still holds).
    """
    groups_to_seed: list[frozenset[str]] = []
    seen: set[frozenset[str]] = set()
    for local in offending_locals:
        group_keys = _related_group_keys(app, local)
        if group_keys in seen:
            continue
        seen.add(group_keys)
        missing = any(
            app.canonical_key(member) not in store
            or store.record_for(app.canonical_key(member)).modifications == 0
            for member in group_keys
        )
        if missing:
            groups_to_seed.append(group_keys)
    if not groups_to_seed:
        return []

    # Seed the *whole* group coherently: a lone write of one member would
    # itself destroy the always-modified-together signal the clustering
    # relies on.  Values are the keys' historical values at the seed time
    # (falling back to defaults / sampled values for unborn keys).
    events: list[tuple[float, str, Any]] = []
    for fraction in (0.25, 0.5, 0.75):
        base = quantize_timestamp(injection_time * fraction, precision)
        for group_keys in groups_to_seed:
            for offset, member in enumerate(sorted(group_keys)):
                canonical = app.canonical_key(member)
                value = None
                if canonical in store:
                    from repro.ttkv.store import DELETED, MISSING

                    historical = store.value_at(canonical, base)
                    if historical is not MISSING and historical is not DELETED:
                        value = historical
                if value is None:
                    value = app.spec(member).default
                if value is None:
                    # Sampling falls back to a per-key RNG so repeated
                    # preparations agree; when the caller provides a
                    # scenario seed it participates in the derivation so
                    # distinct scenarios draw distinct values (and a
                    # fixed seed stays byte-reproducible).
                    token = (
                        member if seed is None else f"{seed}:{member}"
                    )
                    value = app.spec(member).domain.sample(
                        random.Random(stable_hash(token, mask=0xFFFF))
                    )
                events.append((base + offset * 0.01, canonical, value))
    return events


def prepare_scenario(
    trace: GeneratedTrace,
    case: ErrorCase,
    days_before_end: float = 14.0,
    spurious_writes: int = 0,
    precision: float = 1.0,
    seed: int | None = None,
) -> ErrorScenario:
    """Assemble the repair environment for ``case`` on ``trace``.

    ``days_before_end`` positions the injection (the paper uses 14);
    ``spurious_writes`` (0–2) adds the user's failed fix attempts from the
    case's ``spurious_options``.  ``seed`` scopes the (rare) sampled
    seed-event values to the caller's scenario so every random choice in
    an assembled scenario derives from one configured seed; ``None``
    keeps the legacy per-key derivation byte-for-byte.
    """
    if case.app_name not in trace.apps:
        raise InjectionError(
            f"trace {trace.profile.name!r} does not run {case.app_name!r}"
        )
    if spurious_writes > len(case.spurious_options):
        raise InjectionError(
            f"case #{case.case_id} defines only "
            f"{len(case.spurious_options)} spurious options"
        )
    app = trace.apps[case.app_name]
    end_time = trace.end_time
    injection_time = quantize_timestamp(
        max(1.0, end_time - days_before_end * SECONDS_PER_DAY), precision
    )

    offending_locals = list(case.injection)
    canonical_assignments = {
        app.canonical_key(local): value for local, value in case.injection.items()
    }

    events: list[tuple[float, str, Any]] = _seed_events(
        app, trace.ttkv, offending_locals, injection_time, precision, seed
    )

    # The application worked until the error occurred: write the case's
    # known-good values shortly before the injection.  This is the state
    # the successful rollback restores.
    good_time = quantize_timestamp(max(0.0, injection_time - 120.0), precision)
    good_canonical = {
        app.canonical_key(local): value
        for local, value in case.good_values.items()
    }
    events.extend(
        (good_time + index * 0.01, key, value)
        for index, (key, value) in enumerate(good_canonical.items())
    )

    events.extend(
        (injection_time, key, value)
        for key, value in canonical_assignments.items()
    )
    for index in range(spurious_writes):
        at = quantize_timestamp(
            injection_time + (index + 1) * 6 * 3600, precision
        )
        if at >= end_time:
            at = quantize_timestamp(end_time - (spurious_writes - index), precision)
        for local, value in case.spurious_options[index].items():
            events.append((at, app.canonical_key(local), value))

    # Keep both the offending keys and their good-value companions stable
    # after the error: the user stopped (successfully) touching the broken
    # feature, and a later legitimate rewrite would have cured the error.
    drop_after = {key: injection_time for key in canonical_assignments}
    for key in good_canonical:
        drop_after.setdefault(key, injection_time)
    ttkv = inject_events(trace.ttkv, events, drop_after=drop_after)
    sync_app_store(app, ttkv)

    trial = Trial.record(case.app_name, list(case.trial_actions))
    return ErrorScenario(
        case=case,
        app=app,
        ttkv=ttkv,
        injection_time=injection_time,
        end_time=end_time,
        trial=trial,
    )
