"""CI benchmark-regression gate: compare BENCH_*.json against baselines.

Each quick-mode benchmark publishes a JSON record into ``benchmarks/out/``;
committed reference records live in ``benchmarks/baselines/``.  This script
fails (exit 1) when a headline metric of any current record is more than
``--tolerance`` (default 25%) worse than its baseline, when a correctness
invariant is false, or when the run is not comparable to the baseline in
the first place (different trace seed or event count — the gate only ever
compares like with like).

Headline metrics of the three local microbenches are deliberately
*ratios* (numpy-kernel-vs-Python agglomeration speedup, batch-vs-loop
matrix ingest speedup, faulted-vs-clean drive overhead): ratios measured within one run cancel out most of
the machine-to-machine absolute-speed variance that makes wall-clock
gates flaky on shared CI runners.  Absolute end-to-end throughput and
latency are measured by ``benchmarks/e2e/`` instead.

Usage::

    python benchmarks/bench_kernel.py --quick --out benchmarks/out/BENCH_kernel.json
    python benchmarks/bench_ingest.py --quick --out benchmarks/out/BENCH_ingest.json
    python benchmarks/bench_faults.py --quick --out benchmarks/out/BENCH_faults.json
    python benchmarks/check_regression.py

Refreshing a baseline (after a deliberate perf change) is the same run
with the output redirected at ``benchmarks/baselines/`` — commit the
result and say why in the commit message.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Per-benchmark gate specification.
#:
#: ``headline``   — (metric, direction) pairs; ``higher`` means a drop
#:                  beyond tolerance fails, ``lower`` means a rise does.
#: ``invariants`` — boolean fields that must be true in the current run.
#: ``identity``   — fields that must match the baseline exactly for the
#:                  comparison to be meaningful (seeds, trace size).
GATES: dict[str, dict] = {
    "BENCH_kernel.json": {
        "headline": [("kernel_speedup", "higher")],
        "invariants": ["kernels_agree"],
        "identity": ["seed", "quick", "sizes"],
    },
    "BENCH_ingest.json": {
        "headline": [
            ("ingest_speedup", "higher"),
            ("ingest_throughput", "higher"),
        ],
        # the bench raises when the batch fold diverges from the loop
        "invariants": [],
        "identity": ["seed", "quick", "groups"],
    },
    "BENCH_faults.json": {
        "headline": [
            ("fault_overhead", "lower"),
            ("recovery_rounds", "lower"),
        ],
        "invariants": [
            "faulted_equals_batch",
            "faulted_matches_clean_each_round",
            "deterministic_schedule",
        ],
        # the fault schedule is a pure function of fault_seed, so the
        # injected-fault count is identity, not a metric
        "identity": [
            "events", "seed", "fault_seed", "machines", "quick",
            "faults_injected",
        ],
    },
}

DEFAULT_TOLERANCE = 0.25


def _load(path: Path) -> dict | None:
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def check_record(
    name: str,
    current: dict | None,
    baseline: dict | None,
    tolerance: float,
) -> list[str]:
    """All gate violations for one benchmark (empty list: pass)."""
    spec = GATES[name]
    if current is None:
        return [f"{name}: no current record — did the benchmark run?"]
    if baseline is None:
        return [
            f"{name}: no committed baseline — run the benchmark with "
            "--out benchmarks/baselines/" + name + " and commit it"
        ]
    failures = []
    for field in spec["identity"]:
        if current.get(field) != baseline.get(field):
            failures.append(
                f"{name}: {field} changed ({baseline.get(field)!r} -> "
                f"{current.get(field)!r}); the baseline no longer matches "
                "this trace — refresh benchmarks/baselines/"
            )
    if failures:
        return failures
    for field in spec["invariants"]:
        if not current.get(field):
            failures.append(f"{name}: invariant {field} is false")
    for metric, direction in spec["headline"]:
        now = current.get(metric)
        ref = baseline.get(metric)
        if not isinstance(now, (int, float)) or not isinstance(ref, (int, float)):
            failures.append(
                f"{name}: headline metric {metric} missing "
                f"(current={now!r}, baseline={ref!r})"
            )
            continue
        if direction == "higher":
            floor = ref * (1.0 - tolerance)
            if now < floor:
                failures.append(
                    f"{name}: {metric} regressed {ref:.3f} -> {now:.3f} "
                    f"(more than {tolerance:.0%} below baseline)"
                )
        else:
            ceiling = ref * (1.0 + tolerance)
            if now > ceiling:
                failures.append(
                    f"{name}: {metric} regressed {ref:.3f} -> {now:.3f} "
                    f"(more than {tolerance:.0%} above baseline)"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir", type=Path, default=Path(__file__).parent / "out",
        help="directory holding the freshly produced BENCH_*.json records",
    )
    parser.add_argument(
        "--baseline-dir", type=Path,
        default=Path(__file__).parent / "baselines",
        help="directory holding the committed baseline records",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed relative slack on headline metrics (default 0.25)",
    )
    args = parser.parse_args(argv)

    all_failures = []
    for name, spec in GATES.items():
        current = _load(args.out_dir / name)
        baseline = _load(args.baseline_dir / name)
        failures = check_record(name, current, baseline, args.tolerance)
        if failures:
            all_failures.extend(failures)
            for failure in failures:
                print(f"FAIL  {failure}", file=sys.stderr)
        else:
            summary = ", ".join(
                f"{metric} {current[metric]:.2f} (baseline "
                f"{baseline[metric]:.2f})"
                for metric, _ in spec["headline"]
            )
            print(f"ok    {name}: {summary}")
    if all_failures:
        print(
            f"\n{len(all_failures)} benchmark gate violation(s)",
            file=sys.stderr,
        )
        return 1
    print("\nall benchmark gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
