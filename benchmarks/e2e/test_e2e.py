"""Tests of the end-to-end benchmark's own machinery, at tiny sizes."""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

pytest.importorskip("numpy")
pytest.importorskip("pydantic")
pytest.importorskip("yaml")

import run  # noqa: E402
from compare import incomparable, verdict  # noqa: E402
from inputs import Trace, TraceCache  # noqa: E402
from measure import (  # noqa: E402
    PROBE_WINDOW,
    REFERENCE_PROBE_S,
    HostSpeed,
    beyond,
    percentile,
    self_times,
    supported_percentile,
)
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DesktopStream,
    FleetRollout,
    FloodedStream,
    HotComponent,
    fastest,
)

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)

#: Every workload at a size that runs in well under a second.
TINY = {
    "desktop_stream": DesktopStream(days=1.0, parts=2),
    "hot_component": HotComponent(blocks=10, churn=4, rounds=4),
    "flooded_stream": FloodedStream(
        days=1.0, parts=2, events_per_second=3000.0, warm=100
    ),
    "fleet_rollout": FleetRollout(population=(2, 1, 1), days_per_second=10.0),
}
TINY_SECONDS = 0.1


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One trace cache for the module: tiny traces are generated once."""
    return TraceCache(tmp_path_factory.mktemp("cache"))


def test_percentile_rule_needs_ten_samples_beyond():
    assert beyond(99, 1000) == 10
    assert supported_percentile(1000) == 99.0
    assert supported_percentile(999) == 95.0
    assert supported_percentile(20) == 50.0
    assert supported_percentile(19) is None
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([5.0], 99) == 5.0


def test_host_speed_scaling_cancels_a_host_slowdown():
    speed = HostSpeed()
    # the host runs at half speed for the second half of the run: the
    # probes and the operation there take twice as long
    speed.samples = [1e-4] * 60 + [2e-4] * 60
    fast = speed.scale(0.003, 20)
    slow = speed.scale(0.006, 100)
    assert fast == pytest.approx(slow)
    assert fast == pytest.approx(0.003 * REFERENCE_PROBE_S / 1e-4)
    # a burst of slow probes beside one operation is outvoted by the window
    speed.samples = [1e-4] * 60
    speed.samples[30:33] = [9e-4] * 3
    assert speed.scale(0.003, 31) == pytest.approx(fast)
    _, seconds = speed.timed(lambda: None)
    assert seconds >= 0 and len(speed.samples) == 60 + 2 * PROBE_WINDOW


def test_each_operation_counts_with_its_fastest_pass():
    passes = [
        [(1.0, 3.0), None, (2.0, 2.0), (4.0, 4.0)],  # op 1 failed here
        [(1.5, 1.0), (5.0, 5.0), (3.0, 3.0)],  # this pass stopped early
    ]
    latencies, raw, events = fastest(passes, [10, 20, 30, 40])
    assert latencies == [1.0, 2.0]
    assert raw == 3.5
    assert events == 40


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "round", 0.0, 10.0, None),
        (2, "a", 1.0, 4.0, 1),
        (3, "b", 3.0, 6.0, 1),  # overlaps a
        (4, "c", 8.0, 12.0, 1),  # another thread: outlives its parent
        (5, "d", 2.0, 3.0, 2),  # a grandchild only lowers a's self time
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)  # [1, 6] and [8, 10]
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(4.0)


def test_tracer_parents_other_threads_on_the_operation_and_restores():
    from repro.ttkv.store import TTKV

    original = TTKV.record_events
    store = TTKV()
    with Tracer() as tracer:
        tracer.active = True
        tracer.begin("fleet.pipeline.round")
        store.record_events([(1.0, "a/x", 1)])
        worker = threading.Thread(
            target=store.record_events, args=([(2.0, "a/y", 2)],)
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        tracer.end()
    assert TTKV.record_events is original
    (root,) = [row for row in tracer.spans if row[1] == "fleet.pipeline.round"]
    calls = [row for row in tracer.spans if row[1] == "ttkv.record_events"]
    assert [row[4] for row in calls] == [root[0], root[0]]
    assert len({row[6] for row in calls}) == 2
    assert tracer.layer_metrics()["ttkv.events_appended"] == 2


def test_tracer_counts_every_event_from_concurrent_threads():
    from repro.ttkv.store import TTKV

    threads, calls = 8, 200
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer() as tracer:
            tracer.active = True
            workers = [
                threading.Thread(
                    target=lambda store: [
                        store.record_events([(float(t), "a/x", t)]) for t in range(calls)
                    ],
                    args=(TTKV(),),
                )
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert tracer.counters["ttkv.events_appended"] == threads * calls


def test_corrupted_cache_file_regenerates(tmp_path):
    built = []

    def build() -> Trace:
        built.append(1)
        return Trace(
            streams={"a": [(1.0, "k", 1), (2.0, "k", [1, 2])], "b": [(1.0, "j", "v")]},
            meta={"x": 1},
        )

    cache = TraceCache(tmp_path)
    first = cache.get("t", build)
    assert cache.get("t", build).streams == first.streams
    assert len(built) == 1
    npy = tmp_path / "t.npy"
    damaged = bytearray(npy.read_bytes())
    damaged[-1] ^= 0xFF
    npy.write_bytes(bytes(damaged))
    assert not cache.verified("t")
    again = cache.get("t", build)
    assert len(built) == 2
    assert again.streams == first.streams
    assert again.meta == {"x": 1}


@pytest.mark.parametrize("name", ["hot_component", "fleet_rollout"])
def test_seed_fixes_the_fed_trace(name, tmp_path):
    workload = TINY[name]

    def sha(cache_dir: str, seed: int) -> str:
        cache = TraceCache(tmp_path / cache_dir)
        return workload.prepare(cache, seed, TINY_SECONDS).sha256()

    assert sha("a", 0) == sha("b", 0)
    assert sha("a", 0) != sha("a", 1)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_passes_the_gates_and_emits_every_declared_metric(
    name, cache, tmp_path
):
    plain = run.measure_once(TINY[name], cache, 0, TINY_SECONDS)
    assert plain["correct"] and plain["failed"] == 0
    declared = {metric["name"] for metric in SPEC["end_to_end"]}
    assert set(plain["end_to_end"]) == declared
    assert all(value > 0 for value in plain["end_to_end"].values())
    spans = tmp_path / "spans.json"
    traced = run.measure_once(TINY[name], cache, 0, TINY_SECONDS, spans)
    assert traced["correct"]
    assert traced["clusters_sha256"] == plain["clusters_sha256"]
    assert {metric["name"] for metric in SPEC["per_layer"]} <= set(traced["layers"])
    assert json.loads(spans.read_text())["spans"]


def test_compare_verdicts_and_refusal():
    base = [100.0, 101.0, 99.0]
    assert verdict(base, [100.5, 99.5, 100.0], "higher", 0.1)["verdict"] == "unchanged"
    assert verdict(base, [80.0, 81.0, 79.0], "higher", 0.1)["verdict"] == (
        "worse beyond bound"
    )
    assert verdict([50.0, 100.0, 150.0], base, "lower", 0.1)["verdict"] == "unresolved"
    # a gain needs ten runs a side: three a side win every pair by chance
    assert verdict(base, [120.0, 121.0, 119.0], "higher", 0.1)["verdict"] == (
        "unresolved"
    )
    assert verdict([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], "lower", 0.1)["verdict"] == (
        "unresolved"
    )
    ten = [99.0 + 0.2 * index for index in range(10)]
    assert verdict(ten, [20.0 + value for value in ten], "higher", 0.1)[
        "verdict"
    ] == "improved"
    record = {"identity": {"seed": 0}, "workloads": {"w": {"trace_sha256": "x"}}}
    other = {"identity": {"seed": 1}, "workloads": {"w": {"trace_sha256": "y"}}}
    assert len(incomparable(record, other)) == 2
    assert incomparable(record, record) == []
