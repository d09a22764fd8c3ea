"""Spliced vs wholesale dendrogram repair on a hot-component trace.

The scenario is the worst case the ROADMAP called out after sharding
landed: one application whose settings form a single large connected
component (a "hot" component), receiving a steady trickle of writes that
each touch only a couple of keys.  The sharded engine already confines
every update to that dirty component — but before spliced repair it still
re-agglomerated the *whole* component per update, O(n²) in its size, so
the hot component dominated incremental update cost.

Two identical single-stream :class:`~repro.core.sharded.ShardedPipeline`
sessions (one catch-all shard) consume the same warmed store, then the
same appended tail in slices, timing each ``update()``:

- **rebuild**: ``repair_mode="rebuild"`` — every dirty component is
  re-agglomerated from singletons (the pre-splice behaviour);
- **splice**: ``repair_mode="splice"`` — cached dendrogram merges below
  the first affected linkage distance are kept verbatim and only the
  surviving super-clusters re-agglomerate
  (:mod:`repro.core.dendro_repair`).

Clusters are asserted bit-identical between the two modes after every
update, and against the batch ``cluster_settings`` reference at the end
— the speedup must not come at the price of a different answer.

Run as a script for CI/quick use::

    python benchmarks/bench_splice.py --quick --out benchmarks/out/BENCH_splice.json

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

from repro.core.pipeline import cluster_settings
from repro.core.sharded import ShardedPipeline
from repro.ttkv.sharding import CATCH_ALL
from repro.ttkv.store import TTKV

#: Trace-generation seed; recorded in the JSON so the CI regression gate
#: only ever compares runs over the identical trace.
SEED = 20260729

#: How many update() calls the appended tail is spread over.
TAIL_UPDATES = 40


def _trace(quick: bool) -> tuple[list[tuple], list[list[tuple]]]:
    """A hot-component stream: warm prefix plus per-update tail bursts.

    The component mirrors what real config stores look like: tight
    *blocks* of settings written together (strong correlation, low
    linkage distance) plus a handful of high-churn keys — counters,
    timestamps, MRU lists — that co-occur with everything occasionally
    but correlate with nothing (weak correlation, high distance).  The
    churny keys stitch the blocks into one large component, and the tail
    writes land on them: exactly the updates whose splice line sits above
    the block merges, and exactly the kind of key that fires constantly
    in practice.
    """
    blocks = 40 if quick else 100
    churn = 6 if quick else 8
    rounds = 24
    rng = random.Random(SEED)
    block_keys = [
        [f"app/block{b:03d}/s{i}" for i in range(4)] for b in range(blocks)
    ]
    churn_keys = [f"app/churn{c}" for c in range(churn)]

    events: list[tuple] = []
    t = 0.0
    group = 0

    def burst(names: list[str]) -> None:
        nonlocal t, group
        t += 100.0
        for name in sorted(set(names)):
            events.append((t, name, group))
        group += 1

    for r in range(rounds):
        for b in range(blocks):
            burst(block_keys[b])
            if (b + r) % 5 == 0:
                # a churny key fires alongside one block member: the weak
                # bridge that keeps the component connected
                burst([
                    churn_keys[(b + r) % churn],
                    rng.choice(block_keys[b]),
                ])
        for name in churn_keys:
            burst([name])  # solo churn writes dilute their correlations

    tails: list[list[tuple]] = []
    for u in range(TAIL_UPDATES):
        t += 100.0
        pair = rng.sample(churn_keys, 2)
        tails.append([(t, name, f"tail{u}") for name in sorted(pair)])
    return events, tails


def _key_sets(cluster_set) -> list[tuple[str, ...]]:
    return [tuple(cluster.sorted_keys()) for cluster in cluster_set]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run_benchmark(quick: bool = False) -> dict:
    warm, tails = _trace(quick)

    stores = {mode: TTKV() for mode in ("rebuild", "splice")}
    pipelines = {
        mode: ShardedPipeline(store, repair_mode=mode)
        for mode, store in stores.items()
    }
    for mode, store in stores.items():
        store.record_events(warm)
        pipelines[mode].update()  # warm both sessions

    seconds = {"rebuild": 0.0, "splice": 0.0}
    merges_reused = merges_recomputed = 0
    equal = True
    for tail in tails:
        sets = {}
        for mode, store in stores.items():
            store.record_events(tail)
            elapsed, clusters = _timed(pipelines[mode].update)
            seconds[mode] += elapsed
            sets[mode] = _key_sets(clusters)
        stats = pipelines["splice"].last_stats
        merges_reused += stats.merges_reused
        merges_recomputed += stats.merges_recomputed
        if sets["splice"] != sets["rebuild"]:
            equal = False

    batch = cluster_settings(stores["splice"])
    matches_batch = _key_sets(pipelines["splice"].cluster_set) == _key_sets(batch)

    matrix = pipelines["splice"].matrix_for(CATCH_ALL)
    component_keys = max(
        (len(c) for c in matrix.connected_components()), default=0
    )
    events = len(warm) + sum(len(tail) for tail in tails)
    record = {
        "events": events,
        "tail_events": sum(len(tail) for tail in tails),
        "tail_updates": len(tails),
        "hot_component_keys": component_keys,
        "seed": SEED,
        "quick": quick,
        "rebuild_seconds": seconds["rebuild"],
        "splice_seconds": seconds["splice"],
        "splice_speedup": (
            seconds["rebuild"] / seconds["splice"]
            if seconds["splice"]
            else float("inf")
        ),
        "merges_reused": merges_reused,
        "merges_recomputed": merges_recomputed,
        "merge_reuse_fraction": (
            merges_reused / (merges_reused + merges_recomputed)
            if merges_reused + merges_recomputed
            else 0.0
        ),
        "clusters": len(pipelines["splice"].cluster_set),
        "splice_equals_rebuild": equal,
        "splice_equals_batch": matches_batch,
    }
    for pipeline in pipelines.values():
        pipeline.close()
    return record


def render(record: dict) -> str:
    return (
        "spliced vs wholesale dendrogram repair "
        f"({record['events']} events, "
        f"{record['hot_component_keys']}-key hot component, "
        f"{record['tail_events']} appended over {record['tail_updates']} updates):\n"
        f"  rebuild update total : {record['rebuild_seconds'] * 1000:8.2f} ms\n"
        f"  splice update total  : {record['splice_seconds'] * 1000:8.2f} ms\n"
        f"  speedup              : {record['splice_speedup']:8.1f}x\n"
        f"  merges               : {record['merges_reused']} spliced, "
        f"{record['merges_recomputed']} recomputed "
        f"({record['merge_reuse_fraction']:.0%} reused)\n"
        f"  clusters             : {record['clusters']}; "
        f"splice == rebuild: {record['splice_equals_rebuild']}; "
        f"== batch: {record['splice_equals_batch']}"
    )


def test_splice_speedup(benchmark, report):
    record = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    report("bench_splice", render(record))
    (Path(__file__).parent / "out" / "BENCH_splice.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    assert record["splice_equals_rebuild"]
    assert record["splice_equals_batch"]
    assert record["splice_speedup"] >= 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small trace, no speedup gate"
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
    if not record["splice_equals_rebuild"]:
        print("ERROR: spliced clusters diverged from wholesale", file=sys.stderr)
        return 1
    if not record["splice_equals_batch"]:
        print("ERROR: spliced clusters diverged from batch", file=sys.stderr)
        return 1
    if not args.quick and record["splice_speedup"] < 2.0:
        print(
            "ERROR: splice speedup below the 2x acceptance floor", file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
