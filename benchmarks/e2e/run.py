"""End-to-end benchmark: four seeded workloads, every metric with its unit.

Run every workload (each repeat in a fresh child process, then one traced
run per workload that reports the per-layer metrics)::

    python benchmarks/e2e/run.py [--seed N] [--repeats 3] [--seconds S] [--out FILE]

Run one workload once, ending with one JSON line of its end-to-end
(``--trace 0``) or per-layer (``--trace 1``) metrics::

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0

Metric names, units and regression bounds come from ``BENCHMARK.json``
at the repository root.  Every run checks the final clusters against
the batch oracle; a mismatch reports no metrics and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CACHE = HERE / ".cache"
OUT = HERE / "out"

#: Set-ups before each pass of an untraced run; ``setup_s`` is the
#: median of all of them.
SETUPS = 3
#: Children hash strings alike, so set iteration — and work — repeats.
PYTHONHASHSEED = "0"
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT = 160.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _identity(seed: int, seconds: float) -> dict:
    """Fields that must match for two records to be comparable."""
    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "pythonhashseed": PYTHONHASHSEED,
        "seed": seed,
        "seconds": seconds,
    }


# -- one measured run -------------------------------------------------------


def measure_once(
    workload, cache, seed: int, seconds: float, spans: Path | None = None
) -> dict:
    """Run ``workload`` once in this process and return its record.

    With ``spans`` set the run is traced, reports the per-layer metrics
    and writes its spans there; otherwise it reports the end-to-end ones.
    """
    from tracing import Tracer
    from workloads import frozen_heap

    traced = spans is not None
    inputs = workload.prepare(cache, seed, seconds)
    layers: dict = {}
    with frozen_heap():
        if traced:
            with Tracer() as tracer:
                result = workload.run(inputs, setups=1, tracer=tracer)
            layers = tracer.layer_metrics()
        else:
            result = workload.run(inputs, setups=SETUPS)
    if traced:
        tracer.write(spans, workload.name)
    record = {
        "workload": workload.name,
        "traced": traced,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "samples": len(result.latencies),
        "events": result.events,
        "trace_sha256": result.trace_sha256,
        "clusters_sha256": result.clusters_sha256,
        "end_to_end": result.end_to_end() if result.correct else {},
        "unscaled": result.unscaled(),
        "queries": result.query_metrics(),
        "layers": layers,
    }
    if traced and result.correct:
        layers.update(record["queries"])
        layers["tracing.events_per_s"] = record["end_to_end"]["events_per_s"]
    return record


def spawn(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run of ``name`` in a fresh interpreter; its record."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload", name,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", "1" if traced else "0",
    ]
    env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED)
    completed = subprocess.run(
        command,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        timeout=CHILD_TIMEOUT,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{name}: child run exited with {completed.returncode}"
        )
    return json.loads(lines[-1])


def ensure_inputs(name: str, seed: int, seconds: float) -> None:
    """Generate and cache the workload's trace here, outside any child."""
    from inputs import TraceCache
    from workloads import WORKLOADS

    cache = TraceCache(CACHE)
    for source in WORKLOADS[name].sources(seed, seconds):
        cache.ensure(*source)


# -- one workload, one run ----------------------------------------------------


def single(name: str, seed: int, seconds: float, traced: bool) -> int:
    spec = _spec()
    ensure_inputs(name, seed, seconds)
    record = spawn(name, seed, seconds, traced)
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    values = record["layers"] if traced else record["end_to_end"]
    correct = record["correct"]
    print(
        f"{name} seed={seed} seconds={seconds:g} trace={int(traced)}: "
        f"{record['samples']} operations, {record['attempted']} attempted, "
        f"{record['failed']} failed, "
        f"{'matches the batch oracle' if correct else 'DIVERGED from the batch oracle'}"
    )
    metrics = {}
    if correct:
        for metric in declared:
            value = values[metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"  {metric['name']:<36} {value:>14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# -- every workload, repeated -------------------------------------------------


def full(seed: int, seconds: float, repeats: int, out: Path) -> int:
    from measure import quartiles, supported_percentile

    spec = _spec()
    metrics = spec["end_to_end"]
    record = {"identity": _identity(seed, seconds), "repeats": repeats, "workloads": {}}
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        ensure_inputs(name, seed, seconds)
        runs = [spawn(name, seed, seconds, False) for _ in range(repeats)]
        traced = spawn(name, seed, seconds, True)
        problems = [
            f"run {index + 1} diverged from the batch oracle"
            for index, run in enumerate(runs)
            if not run["correct"]
        ]
        if not traced["correct"]:
            problems.append("the traced run diverged from the batch oracle")
        if len({run["clusters_sha256"] for run in [*runs, traced]}) != 1:
            problems.append("runs disagree on the final clusters")
        if len({run["trace_sha256"] for run in [*runs, traced]}) != 1:
            problems.append("runs were fed different event streams")
        print(f"\n== {name} ({entry['why']})")
        if problems:
            for problem in problems:
                print(f"  ERROR: {problem}")
            status = 1
            continue
        samples = runs[0]["samples"]
        support = supported_percentile(samples)
        print(
            f"  {samples} operations per run, {runs[0]['events']} events; "
            f"{repeats} runs; highest supported percentile: p{support:g}"
            if support is not None
            else f"  {samples} operations per run: too few for any percentile"
        )
        summary = {}
        for metric in metrics:
            values = [run["end_to_end"][metric["name"]] for run in runs]
            q1, median, q3 = quartiles(values)
            summary[metric["name"]] = {
                "unit": metric["unit"],
                "values": values,
                "median": median,
                "q1": q1,
                "q3": q3,
            }
            print(
                f"  {metric['name']:<16} {median:>12.4f} {metric['unit']:<9} "
                f"[q1 {q1:.4f}, q3 {q3:.4f}]  runs: "
                + ", ".join(f"{value:.4f}" for value in values)
            )
        print(
            "  unscaled events/s runs: "
            + ", ".join(f"{run['unscaled']['events_per_s']:.4f}" for run in runs)
            + "; probe µs runs: "
            + ", ".join(f"{run['unscaled']['probe_s'] * 1e6:.2f}" for run in runs)
        )
        untraced = summary["events_per_s"]["median"]
        overhead = 1.0 - traced["layers"]["tracing.events_per_s"] / untraced
        print(f"  tracing overhead: {overhead:.1%} of events/s")
        layers = traced["layers"]
        timed = {
            key: value for key, value in layers.items() if key.endswith(".self_s")
        }
        total = sum(timed.values()) or 1.0
        top = sorted(timed, key=timed.get, reverse=True)[:3]
        print(
            "  top layers by self time: "
            + ", ".join(f"{key[:-7]} {timed[key] / total:.0%}" for key in top)
        )
        queries = [run["queries"] for run in runs]
        if name == "fleet_rollout":
            for key in ("fleet.api.query_p50_ms", "fleet.api.query_p99_ms"):
                values = [query[key] for query in queries]
                print(
                    f"  {key:<28} {quartiles(values)[1]:>10.4f} ms  runs: "
                    + ", ".join(f"{value:.4f}" for value in values)
                )
        print("  per-layer metrics (traced run):")
        for metric in spec["per_layer"]:
            print(
                f"    {metric['name']:<40} {layers[metric['name']]:>14.6g} "
                f"{metric['unit']}"
            )
        record["workloads"][name] = {
            "trace_sha256": runs[0]["trace_sha256"],
            "clusters_sha256": runs[0]["clusters_sha256"],
            "samples": samples,
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "end_to_end": summary,
            "unscaled": [run["unscaled"] for run in runs],
            "queries": queries,
            "layers": layers,
            "tracing_overhead": overhead,
            "top_layers": top,
        }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload once")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="run length (default: run_seconds in BENCHMARK.json)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    if args.seconds <= 0 or args.repeats < 1:
        parser.error("--seconds and --repeats must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: {ROOT} holds no src/repro; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        from inputs import TraceCache
        from workloads import WORKLOADS

        spans = OUT / f"spans-{args.workload}.json" if args.trace else None
        record = measure_once(
            WORKLOADS[args.workload], TraceCache(CACHE), args.seed, args.seconds, spans
        )
        print(json.dumps(record))
        return 0
    if args.workload is not None:
        if args.workload not in {entry["name"] for entry in _spec()["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        return single(args.workload, args.seed, args.seconds, bool(args.trace))
    out = args.out or OUT / f"e2e-seed{args.seed}.json"
    return full(args.seed, args.seconds, args.repeats, out)


if __name__ == "__main__":
    sys.exit(main())
