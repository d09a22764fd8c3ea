"""Columnar journal backbone: batch ingest and mmap resume.

PR 7 re-platformed the event journal on columnar numpy segments and gave
the correlation matrix a vectorised closed-group ingest
(:meth:`~repro.core.correlation.CorrelationMatrix.observe_groups_batch`).
This benchmark pins the two claims that motivated it, on one seeded
dense co-written trace:

1. ``ingest_speedup`` — folding closed write groups into the matrix in
   vectorised batches (bincount key occurrences, unique-coded pairs)
   versus the per-event streaming loop (one ``update_groups`` + compact
   per group, the pre-batch engine's cadence).  Full mode enforces the
   ≥5x acceptance floor.
2. ``resume_speedup`` — re-opening a persisted journal via
   :func:`~repro.ttkv.columnar.load_columnar` (mmap + cursor seek)
   versus decoding a JSON event log and replaying it into a list
   journal.  Full mode enforces the ≥10x acceptance floor.

**Correctness is asserted inside every timed run**: the batch-ingested
matrix must equal the loop-ingested one, the resumed journal must equal
the original, and a columnar-backend pipeline must produce the list backend's exact clusters
at several stream prefixes (``columnar_equals_list``).

Run as a script for CI/quick use::

    python benchmarks/bench_ingest.py --quick --out benchmarks/out/BENCH_ingest.json

or through the benchmark harness (``pytest benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.correlation import CorrelationMatrix
from repro.core.pipeline import cluster_settings
from repro.core.sharded import ShardedPipeline
from repro.ttkv.columnar import (
    ColumnarJournal,
    columnar_available,
    load_columnar,
    save_columnar,
)
from repro.ttkv.journal import EventJournal, encode_event
from repro.ttkv.store import DELETED, TTKV

#: Trace-generation seed; recorded in the JSON so the CI regression gate
#: only ever compares runs over the identical trace.
SEED = 20260807

#: Closed write groups ingested into the matrix (quick / full).
QUICK_GROUPS = 4096
FULL_GROUPS = 12_000

#: Journal events persisted and resumed (quick / full).
QUICK_EVENTS = 20_000
FULL_EVENTS = 120_000

#: Groups folded per batch on the vectorised path (the engine batches one
#: update's closed groups; a chunked stream closes whole chunks' worth —
#: hundreds to thousands — per update).
BATCH = 2048

#: Timed repetitions (the best is recorded).
REPEATS = 5

#: Full-mode acceptance floors.
INGEST_FLOOR = 5.0
RESUME_FLOOR = 10.0


def _write_groups(count: int, rng: random.Random) -> list[frozenset[str]]:
    """Dense co-written groups over a fixed key population.

    A machine's settings do not multiply as the trace grows — a longer
    trace re-observes the *same* keys (that repetition is the entire
    premise of the clustering), so the key space stays fixed while the
    group count scales with the mode.
    """
    names = [f"app/k{i:04d}" for i in range(120)]
    return [
        frozenset(rng.sample(names, rng.randint(3, 9))) for _ in range(count)
    ]


def _events(count: int, rng: random.Random) -> list[tuple]:
    """A journal-shaped modification stream (monotonic per key)."""
    keys = [f"app/k{i:03d}" for i in range(80)]
    out = []
    t = 0.0
    for i in range(count):
        t += rng.choice([0.0, 0.25, 0.25, 1.5])
        value = rng.choice([0, 1, "on", "off", None, DELETED])
        out.append((t, rng.choice(keys), value))
    return out


def _best(fn) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _matrix_fingerprint(matrix: CorrelationMatrix) -> tuple:
    return (
        dict(matrix._base_counts),
        dict(matrix._base_common),
        matrix._compacted_count,
        sorted(map(sorted, matrix.connected_components())),
    )


def _time_ingest(groups: list[frozenset[str]]) -> dict:
    def per_event():
        matrix = CorrelationMatrix()
        for index, members in enumerate(groups):
            matrix.update_groups(added=[(index, members)])
            matrix.compact(index + 1)
        return matrix

    def batched():
        matrix = CorrelationMatrix()
        for start in range(0, len(groups), BATCH):
            batch = groups[start:start + BATCH]
            matrix.observe_groups_batch(start, batch)
            matrix.compact(start + len(batch))
        return matrix

    loop_seconds, loop_matrix = _best(per_event)
    batch_seconds, batch_matrix = _best(batched)
    if _matrix_fingerprint(loop_matrix) != _matrix_fingerprint(batch_matrix):
        raise AssertionError("batch ingest diverged from the per-event loop")
    return {
        "groups": len(groups),
        "per_event_seconds": loop_seconds,
        "batch_seconds": batch_seconds,
        "ingest_speedup": (
            loop_seconds / batch_seconds if batch_seconds else float("inf")
        ),
        "ingest_throughput": (
            len(groups) / batch_seconds if batch_seconds else float("inf")
        ),
    }


def _time_resume(events: list[tuple], workdir: Path) -> dict:
    journal = ColumnarJournal()
    for event in events:
        journal.append_event(event)
    columnar_path = str(workdir / "journal.npy")
    save_columnar(journal, columnar_path)
    json_path = workdir / "journal.json"
    json_path.write_text(
        json.dumps([encode_event(e) for e in journal.events()]),
        encoding="utf-8",
    )

    def resume_json():
        replayed = EventJournal()
        from repro.ttkv.journal import decode_event

        for record in json.loads(json_path.read_text(encoding="utf-8")):
            replayed.append_event(decode_event(record))
        return replayed

    def resume_mmap():
        resumed = load_columnar(columnar_path, mmap=True)
        # the consumer's first action after resume: seek its cursor
        resumed.events_from(len(resumed) - 1)
        return resumed

    json_seconds, json_journal = _best(resume_json)
    mmap_seconds, mmap_journal = _best(resume_mmap)
    if mmap_journal.events() != json_journal.events():
        raise AssertionError("mmap resume diverged from the JSON replay")
    return {
        "events": len(events),
        "json_decode_seconds": json_seconds,
        "mmap_seconds": mmap_seconds,
        "resume_speedup": (
            json_seconds / mmap_seconds if mmap_seconds else float("inf")
        ),
        "journal_bytes": Path(columnar_path).stat().st_size,
        "json_bytes": json_path.stat().st_size,
    }


def _pipelines_agree(events: list[tuple], prefixes: int, rng) -> bool:
    """Columnar and list pipelines must agree at several stream prefixes."""
    stores = {b: TTKV(journal_backend=b) for b in ("list", "columnar")}
    pipelines = {
        b: ShardedPipeline(stores[b], shard_prefixes=(), journal_backend=b)
        for b in stores
    }
    cuts = sorted(rng.sample(range(1, len(events) + 1), prefixes - 1))
    cuts.append(len(events))
    consumed = 0
    try:
        for cut in cuts:
            chunk = events[consumed:cut]
            consumed = cut
            shapes = {}
            for backend, store in stores.items():
                store.record_events(chunk)
                shapes[backend] = [
                    tuple(c.sorted_keys()) for c in pipelines[backend].update()
                ]
            batch = [
                tuple(c.sorted_keys())
                for c in cluster_settings(stores["list"])
            ]
            if shapes["columnar"] != shapes["list"] or shapes["list"] != batch:
                return False
    finally:
        for pipeline in pipelines.values():
            pipeline.close()
    return True


def run_benchmark(quick: bool = False) -> dict:
    if not columnar_available():
        raise RuntimeError("bench_ingest needs numpy (pip install numpy)")
    rng = random.Random(SEED)
    groups = _write_groups(QUICK_GROUPS if quick else FULL_GROUPS, rng)
    events = _events(QUICK_EVENTS if quick else FULL_EVENTS, rng)
    record: dict = {"seed": SEED, "quick": quick}
    record.update(_time_ingest(groups))
    with tempfile.TemporaryDirectory(prefix="bench_ingest_") as workdir:
        record.update(_time_resume(events, Path(workdir)))
    record["columnar_equals_list"] = _pipelines_agree(
        events[: 3000 if quick else 8000], prefixes=5, rng=rng
    )
    return record


def render(record: dict) -> str:
    return "\n".join(
        [
            "columnar journal backbone (batch ingest / mmap resume):",
            f"  matrix ingest, {record['groups']} closed groups : "
            f"per-event {record['per_event_seconds'] * 1000:8.1f} ms, "
            f"batched {record['batch_seconds'] * 1000:7.1f} ms "
            f"({record['ingest_speedup']:5.1f}x, "
            f"{record['ingest_throughput']:,.0f} groups/s)",
            f"  journal resume, {record['events']} events   : "
            f"json replay {record['json_decode_seconds'] * 1000:8.1f} ms, "
            f"mmap {record['mmap_seconds'] * 1000:7.1f} ms "
            f"({record['resume_speedup']:5.1f}x)",
            f"  columnar ≡ list ≡ batch   : {record['columnar_equals_list']}",
        ]
    )


def _gate(record: dict, quick: bool) -> list[str]:
    """Human-readable failures; empty when the record passes its gates."""
    failures = []
    if not record["columnar_equals_list"]:
        failures.append("columnar pipeline diverged from the list backend")
    if quick:
        return failures
    if record["ingest_speedup"] < INGEST_FLOOR:
        failures.append(
            f"batch ingest speedup {record['ingest_speedup']:.2f}x below "
            f"the {INGEST_FLOOR}x floor"
        )
    if record["resume_speedup"] < RESUME_FLOOR:
        failures.append(
            f"mmap resume speedup {record['resume_speedup']:.2f}x below "
            f"the {RESUME_FLOOR}x floor"
        )
    return failures


def test_ingest_speedup(benchmark, report):
    record = benchmark.pedantic(
        lambda: run_benchmark(quick=True), rounds=1, iterations=1
    )
    report("bench_ingest", render(record))
    (Path(__file__).parent / "out" / "BENCH_ingest.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    assert record["columnar_equals_list"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller trace; skip the speedup floors",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write the JSON record here"
    )
    args = parser.parse_args(argv)
    record = run_benchmark(quick=args.quick)
    print(render(record))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    failures = _gate(record, quick=args.quick)
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
