"""Seeded inputs of the end-to-end workloads, cached on disk.

Three generators, each a pure function of its arguments:

- :func:`desktop_part` — one of a pool of independent five-application
  Linux desktop traces (the Table-I shape: many small co-written groups
  over a few hundred keys);
- :func:`hot_component` — one large component of co-written blocks bridged
  by a few high-churn keys, plus a tail of churn-pair writes;
- :func:`fleet_rollout` — the committed flash-crowd scenario, resized
  through its ``REPRO__*`` environment layer.

The generators are re-implemented here rather than imported from the
``bench_*.py`` scripts, so editing those scripts cannot move this
benchmark's workloads.

Generated traces are written by :class:`TraceCache` with
:func:`~repro.ttkv.columnar.save_columnar`: every file lands through a
temporary name and a rename, and a sha256 over all of them is stored
beside them, last.  A trace is only loaded when that digest verifies;
anything else — a missing, torn or altered file — is regenerated.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Callable

from repro.common.format import SECONDS_PER_DAY
from repro.common.hashing import stable_hash
from repro.ttkv.columnar import ColumnarJournal, load_columnar, save_columnar

Event = tuple

#: Joins a stream name to a key inside the cache's single journal.
_SEP = "\x1f"

#: The five applications of the desktop profile.
DESKTOP_APPS = (
    "Chrome Browser",
    "GNOME Edit",
    "Eye of GNOME",
    "Acrobat Reader",
    "Evolution Mail",
)

#: Generator seeds: the first desktop part's, and the ones seed 0 of the
#: benchmark gives the hot component and the flood.
DESKTOP_SEED = 2024
HOT_SEED = 20260729
FLOOD_SEED = 9003

#: The committed scenario the fleet workload resizes.
FLASH_CROWD_YAML = Path(__file__).resolve().parents[2] / "scenarios" / "flash_crowd.yaml"


@dataclass
class Trace:
    """Named event streams plus JSON-safe facts about them."""

    streams: dict[str, list[Event]]
    meta: dict = field(default_factory=dict)


def stream_sha256(chunks) -> str:
    """sha256 of an event stream exactly as fed (one ``repr`` per event)."""
    digest = hashlib.sha256()
    for chunk in chunks:
        for event in chunk:
            digest.update(repr(event).encode("utf-8"))
            digest.update(b"\n")
    return digest.hexdigest()


# -- generators ---------------------------------------------------------------


def desktop_seed(part: int) -> int:
    """Generator seed of one part of the desktop pool."""
    if part == 0:
        return DESKTOP_SEED
    return stable_hash(f"desktop:0:{part}")


def desktop_part(part: int, days: float) -> Trace:
    """The five-app desktop profile: one machine, ``days`` of writes.

    The parts of the pool are independent traces of the same key
    population.
    """
    from repro.workload.machines import PLATFORM_LINUX, MachineProfile
    from repro.workload.tracegen import generate_trace

    profile = MachineProfile(
        name="e2e-desktop",
        platform=PLATFORM_LINUX,
        days=days,
        apps=DESKTOP_APPS,
        sessions_per_day=6,
        actions_per_session=12,
        pref_edits_per_day=3.0,
        noise_keys=150,
        noise_writes_per_day=1300,
        reads_per_day=0,
        seed=desktop_seed(part),
    )
    trace = generate_trace(profile)
    return Trace(
        streams={"events": trace.ttkv.write_events()},
        meta={
            "prefixes": [trace.apps[name].key_prefix for name in DESKTOP_APPS]
        },
    )


def hot_component(
    seed: int, *, blocks: int, churn: int, rounds: int, tail: int
) -> Trace:
    """A hot component and a tail of one churn-pair write per update.

    Tight four-key blocks are written together (strong correlation, low
    linkage distance); a few churn keys — counters, MRU lists — fire
    beside single block members and alone, so they correlate weakly with
    everything and stitch the blocks into one component.  Tail writes
    land on the churn keys, whose splice line sits above the block
    merges: every update repairs the top of one large dendrogram.
    """
    rng = random.Random(HOT_SEED + seed)
    block_keys = [
        [f"app/block{b:03d}/s{i}" for i in range(4)] for b in range(blocks)
    ]
    churn_keys = [f"app/churn{c}" for c in range(churn)]
    warm: list[Event] = []
    now = 0.0
    group = 0

    def burst(names) -> None:
        nonlocal now, group
        now += 100.0
        for name in sorted(set(names)):
            warm.append((now, name, group))
        group += 1

    for r in range(rounds):
        for b in range(blocks):
            burst(block_keys[b])
            if (b + r) % 5 == 0:
                burst([churn_keys[(b + r) % churn], rng.choice(block_keys[b])])
        for name in churn_keys:
            burst([name])  # solo churn writes dilute their correlations
    writes: list[Event] = []
    for u in range(tail):
        now += 100.0
        writes.extend((now, name, f"tail{u}") for name in sorted(rng.sample(churn_keys, 2)))
    return Trace(streams={"warm": warm, "tail": writes})


def fleet_rollout(*, population: tuple[int, int, int], days: float) -> Trace:
    """The flash-crowd scenario at ``population`` machines and ``days``.

    Every group runs for ``days``.  The scenario keeps its committed
    seed; the sizes go through its environment layer.
    """
    from repro.scenarios.build import build_scenario
    from repro.scenarios.config import load_scenario

    env = {}
    for index, machines in enumerate(population):
        env[f"REPRO__POPULATION__{index}__MACHINES"] = str(machines)
        env[f"REPRO__POPULATION__{index}__DAYS"] = repr(float(days))
    config = load_scenario(FLASH_CROWD_YAML, env=env)
    built = build_scenario(config)
    return Trace(
        streams={machine.machine_id: machine.delivery for machine in built.machines},
        meta={
            "rounds": config.fleet.rounds,
            "span": days * SECONDS_PER_DAY,
            "machines": [
                {
                    "id": machine.machine_id,
                    "prefixes": list(machine.shard_prefixes),
                    "join_round": machine.join_round,
                    "leave_round": machine.leave_round,
                }
                for machine in built.machines
            ],
        },
    )


# -- cache --------------------------------------------------------------------


class TraceCache:
    """Generated traces on disk, integrity-checked before every use."""

    SUFFIXES = (".npy", ".npy.meta", ".json")

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def _paths(self, name: str, stem: str | None = None) -> list[Path]:
        stem = stem or name
        return [self.root / f"{stem}{suffix}" for suffix in self.SUFFIXES]

    def _digest_path(self, name: str) -> Path:
        return self.root / f"{name}.sha256"

    @staticmethod
    def _digest(paths: list[Path]) -> str:
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.read_bytes())
        return digest.hexdigest()

    def verified(self, name: str) -> bool:
        """True when ``name`` is cached and its stored sha256 matches."""
        try:
            expected = self._digest_path(name).read_text(encoding="ascii").strip()
            return self._digest(self._paths(name)) == expected
        except OSError:
            return False

    def ensure(self, name: str, build: Callable[[], Trace]) -> None:
        """Build and store ``name`` unless a verified copy is cached."""
        if not self.verified(name):
            self.store(name, build())

    def get(self, name: str, build: Callable[[], Trace]) -> Trace:
        """The cached trace ``name``, built and stored first if needed.

        The returned trace is always the one read back from disk, so a
        run that generated it feeds exactly what later runs will load.
        """
        self.ensure(name, build)
        return self.load(name)

    def store(self, name: str, trace: Trace) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        journal = ColumnarJournal()
        tagged = []
        for stream, events in trace.streams.items():
            if any(a[0] > b[0] for a, b in zip(events, events[1:])):
                raise ValueError(f"stream {stream!r} is not in timestamp order")
            tagged.extend((t, f"{stream}{_SEP}{key}", value) for t, key, value in events)
        # a stable sort keeps every stream's own order among equal stamps
        for event in sorted(tagged, key=itemgetter(0)):
            journal.append_event(event)
        stem = f"{name}.tmp{os.getpid()}"
        tmp = self._paths(name, stem)
        save_columnar(journal, str(tmp[0]))
        tmp[2].write_text(
            json.dumps({"streams": list(trace.streams), "meta": trace.meta}),
            encoding="utf-8",
        )
        digest = self._digest(tmp)
        for source, target in zip(tmp, self._paths(name)):
            os.replace(source, target)
        # the digest is the commit point: written last, also via rename
        digest_tmp = self.root / f"{stem}.sha256"
        digest_tmp.write_text(digest + "\n", encoding="ascii")
        os.replace(digest_tmp, self._digest_path(name))

    def load(self, name: str) -> Trace:
        npy, _, info = self._paths(name)
        header = json.loads(info.read_text(encoding="utf-8"))
        journal = load_columnar(str(npy), mmap=False)
        streams: dict[str, list[Event]] = {stream: [] for stream in header["streams"]}
        for t, tagged, value in journal.events():
            stream, key = tagged.split(_SEP, 1)
            streams[stream].append((t, key, value))
        return Trace(streams=streams, meta=header["meta"])
