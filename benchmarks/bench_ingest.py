"""Batch matrix ingest: vectorised closed-group fold vs the per-group loop.

The correlation matrix folds closed write groups either one at a time
(``update_groups`` + ``compact`` per group) or in vectorised batches
(:meth:`~repro.core.correlation.CorrelationMatrix.observe_groups_batch`:
bincount key occurrences, unique-coded pairs).  This benchmark pins the
batch path's claim on one seeded dense co-written trace:
``ingest_speedup`` is the per-group loop's time over the batched time.
Full mode enforces the ≥5x acceptance floor.

**Correctness is asserted inside every timed run**: the batch-ingested
matrix must equal the loop-ingested one.

Run as a script for CI/quick use::

    python benchmarks/bench_ingest.py --quick --out benchmarks/out/BENCH_ingest.json

or through the benchmark harness (``pytest benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.correlation import CorrelationMatrix

#: Trace-generation seed; recorded in the JSON so the CI regression gate
#: only ever compares runs over the identical trace.
SEED = 20260807

#: Closed write groups ingested into the matrix (quick / full).
QUICK_GROUPS = 4096
FULL_GROUPS = 12_000

#: Groups folded per batch on the vectorised path (the engine batches one
#: update's closed groups; a chunked stream closes whole chunks' worth —
#: hundreds to thousands — per update).
BATCH = 2048

#: Timed repetitions (the best is recorded).
REPEATS = 5

#: Full-mode acceptance floor.
INGEST_FLOOR = 5.0


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
        matrix.pairwise_counts(),
        matrix.compacted_state(),
        matrix.compacted_groups,
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


def run_benchmark(quick: bool = False) -> dict:
    rng = random.Random(SEED)
    groups = _write_groups(QUICK_GROUPS if quick else FULL_GROUPS, rng)
    record: dict = {"seed": SEED, "quick": quick}
    record.update(_time_ingest(groups))
    return record


def render(record: dict) -> str:
    return "\n".join(
        [
            "batch matrix ingest:",
            f"  {record['groups']} closed groups : "
            f"per-event {record['per_event_seconds'] * 1000:8.1f} ms, "
            f"batched {record['batch_seconds'] * 1000:7.1f} ms "
            f"({record['ingest_speedup']:5.1f}x, "
            f"{record['ingest_throughput']:,.0f} groups/s)",
        ]
    )


def _gate(record: dict, quick: bool) -> list[str]:
    """Human-readable failures; empty when the record passes its gates."""
    failures = []
    if not quick and record["ingest_speedup"] < INGEST_FLOOR:
        failures.append(
            f"batch ingest speedup {record['ingest_speedup']:.2f}x below "
            f"the {INGEST_FLOOR}x floor"
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller trace; skip the speedup floor",
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
