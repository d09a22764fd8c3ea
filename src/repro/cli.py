"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro table1
    python -m repro table2 --window 1 --threshold 2
    python -m repro table4
    python -m repro fig2a --points 2,6,10,14
    python -m repro fig3a
    python -m repro fig4
    python -m repro ablations
    python -m repro stream --app "Chrome Browser" --chunks 10
    python -m repro stream --shards 4 --state session.json
    python -m repro stream --shards 8 --timings
    python -m repro stream --scenario scenarios/clock_skew.yaml
    python -m repro fleet --machines 4 --chunks 6 --state fleet-state/
    python -m repro fleet --scenario scenarios/flash_crowd.yaml
    python -m repro validate-scenarios
    python -m repro repair --case 13 [--bfs] [--spurious 2]
    python -m repro list-cases
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ocasta reproduction: regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I: trace statistics")

    table2 = sub.add_parser("table2", help="Table II: clustering accuracy")
    table2.add_argument("--window", type=float, default=1.0)
    table2.add_argument("--threshold", type=float, default=2.0)
    table2.add_argument("--days", type=int, default=45)
    table2.add_argument("--seed", type=int, default=7)

    sub.add_parser("table3", help="Table III: the 16 configuration errors")

    table4 = sub.add_parser("table4", help="Table IV: recovery performance")
    table4.add_argument(
        "--quick", action="store_true",
        help="stop each search at the fix instead of exhausting candidates",
    )
    table4.add_argument("--no-noclust", action="store_true")

    for name, default in (
        ("fig2a", "2,6,10,14"),
        ("fig2b", "0,1,2"),
        ("fig2c", "10,20,40,80"),
    ):
        fig = sub.add_parser(name, help=f"Figure {name[-2:]}: DFS vs BFS trials")
        fig.add_argument("--points", type=_parse_floats, default=_parse_floats(default))

    sub.add_parser("fig3a", help="Figure 3a: cluster size vs window")
    sub.add_parser("fig3b", help="Figure 3b: cluster size vs threshold")

    fig4 = sub.add_parser("fig4", help="Figure 4: user study")
    fig4.add_argument("--seed", type=int, default=19)

    sub.add_parser("ablations", help="design-choice ablations")

    stream = sub.add_parser(
        "stream",
        help="replay a generated trace through the sharded streaming pipeline",
    )
    stream.add_argument("--app", default="Chrome Browser")
    stream.add_argument("--days", type=int, default=20)
    stream.add_argument("--seed", type=int, default=7)
    stream.add_argument("--chunks", type=int, default=10)
    stream.add_argument("--window", type=float, default=1.0)
    stream.add_argument("--threshold", type=float, default=2.0)
    stream.add_argument(
        "--shards", type=int, default=1,
        help="generate a machine trace with this many applications and "
        "shard the pipeline on their key prefixes",
    )
    stream.add_argument(
        "--shard-prefix", action="append", dest="shard_prefixes", default=None,
        metavar="PREFIX",
        help="shard on this explicit key prefix (repeatable; overrides the "
        "prefixes derived from --shards)",
    )
    stream.add_argument(
        "--state", default=None, metavar="FILE",
        help="session checkpoint: resume from FILE if it exists, and write "
        "the session state back to it on exit",
    )
    stream.add_argument(
        "--scenario", default=None, metavar="YAML",
        help="run one machine of a declarative scenario config instead of "
        "the ad-hoc trace flags; the YAML (plus REPRO__* environment "
        "overrides) governs profile, regime and pipeline parameters, and "
        "the run is gated on incremental clusters equalling the batch "
        "reference (needs the 'scenarios' extra; incompatible with "
        "--state)",
    )
    stream.add_argument(
        "--timings", action="store_true",
        help="append ingest timing (journal append + shard routing, "
        "separate from compute), per-shard timing (slowest shard), "
        "dendrogram-repair counters (merges spliced vs recomputed) and "
        "kernel dispatch (components on the numpy kernel) to each "
        "progress line",
    )

    fleet = sub.add_parser(
        "fleet",
        help="drive a fleet of machines through the asyncio aggregation tier",
    )
    fleet.add_argument(
        "--machines", type=int, default=3,
        help="number of simulated machines (each gets its own seeded trace)",
    )
    fleet.add_argument(
        "--profile", default="Linux-1",
        help="machine profile every fleet member runs "
        "(see repro.workload.machines.PROFILES)",
    )
    fleet.add_argument("--days", type=int, default=2)
    fleet.add_argument(
        "--seed", type=int, default=7,
        help="base trace seed; machine i streams the trace seeded seed+i",
    )
    fleet.add_argument(
        "--chunks", type=int, default=5,
        help="feed each machine's trace in this many chunks (one per round)",
    )
    fleet.add_argument("--window", type=float, default=1.0)
    fleet.add_argument("--threshold", type=float, default=2.0)
    fleet.add_argument(
        "--state", default=None, metavar="DIR",
        help="fleet checkpoint directory: resume from it if it exists, and "
        "write per-machine checkpoints plus a manifest back on exit",
    )
    fleet.add_argument(
        "--max-lag", type=int, default=None, dest="max_lag", metavar="N",
        help="per-machine backpressure bound: stop feeding a machine once "
        "it has N journaled-but-unconsumed events (default: unbounded; "
        "with --scenario the flag overrides the config as a "
        "REPRO__FLEET__MAX_LAG environment override would)",
    )
    fleet.add_argument(
        "--scenario", default=None, metavar="YAML",
        help="drive a declarative scenario config instead of the ad-hoc "
        "fleet flags; the YAML (plus REPRO__* environment overrides) "
        "governs the population, regime, schedule and pipeline "
        "parameters, and the run is gated on the fleet merge equalling "
        "the concatenated-batch reference (needs the 'scenarios' extra; "
        "incompatible with --state)",
    )

    validate = sub.add_parser(
        "validate-scenarios",
        help="load every committed scenario YAML through the full "
        "three-layer config path (schema drift fails the command)",
    )
    validate.add_argument(
        "paths", nargs="*", metavar="YAML",
        help="scenario files to validate (default: scenarios/*.yaml)",
    )

    repair = sub.add_parser("repair", help="repair one Table III error")
    repair.add_argument("--case", type=int, required=True, choices=range(1, 17))
    repair.add_argument("--bfs", action="store_true", help="use BFS instead of DFS")
    repair.add_argument("--spurious", type=int, default=0, choices=(0, 1, 2))
    repair.add_argument("--days-before-end", type=float, default=14.0)
    repair.add_argument("--noclust", action="store_true", help="run the baseline")

    sub.add_parser("list-cases", help="list the 16 error cases")
    return parser


def _cmd_table1() -> str:
    from repro.experiments.table1 import render_table1, run_table1

    return render_table1(run_table1())


def _cmd_table2(args) -> str:
    from repro.experiments.table2 import render_table2, run_table2

    return render_table2(
        run_table2(
            window=args.window,
            correlation_threshold=args.threshold,
            days=args.days,
            seed=args.seed,
        )
    )


def _cmd_table3() -> str:
    from repro.experiments.table3 import render_table3

    return render_table3()


def _cmd_table4(args) -> str:
    from repro.experiments.recovery import render_table4, run_table4

    return render_table4(
        run_table4(exhaustive=not args.quick, with_noclust=not args.no_noclust)
    )


def _cmd_fig2(which: str, points) -> str:
    from repro.experiments import fig2

    runners = {
        "fig2a": (
            fig2.run_fig2a,
            "injection days",
            "Figure 2a: trials vs time of error",
        ),
        "fig2b": (
            fig2.run_fig2b,
            "spurious writes",
            "Figure 2b: trials vs spurious writes",
        ),
        "fig2c": (
            fig2.run_fig2c,
            "time bound (days)",
            "Figure 2c: trials vs search bound",
        ),
    }
    run, x_label, title = runners[which]
    if which == "fig2b":
        points = tuple(int(p) for p in points)
    series = run(points)
    return fig2.render_fig2(x_label, points, series, title)


def _cmd_fig3(which: str) -> str:
    from repro.experiments.fig3 import render_fig3, run_fig3a, run_fig3b

    if which == "fig3a":
        x, sizes = run_fig3a()
        return render_fig3(
            "window (s)", x, sizes, "Figure 3a: avg cluster size vs window"
        )
    x, sizes = run_fig3b()
    return render_fig3(
        "corr threshold", x, sizes, "Figure 3b: avg cluster size vs threshold"
    )


def _cmd_fig4(args) -> str:
    from repro.experiments.fig4 import render_fig4, run_fig4

    return render_fig4(run_fig4(seed=args.seed))


def _cmd_ablations() -> str:
    from repro.experiments.ablations import (
        render_ablations,
        run_linkage_ablation,
        run_quantisation_ablation,
        run_sort_ablation,
        run_window_ablation,
    )

    rows = []
    rows += run_window_ablation()
    rows += run_linkage_ablation()
    rows += run_sort_ablation()
    rows += run_quantisation_ablation()
    return render_ablations(rows)


def _stream_trace(args):
    """The generated trace and shard prefixes for the stream command."""
    from repro.apps.catalog import app_names
    from repro.experiments.table2 import lab_profile
    from repro.workload.machines import MachineProfile, PLATFORM_LINUX
    from repro.workload.tracegen import generate_trace

    if args.shards < 1:
        raise ValueError(f"--shards must be at least 1, got {args.shards}")
    if args.shards == 1:
        trace = generate_trace(lab_profile(args.app, days=args.days, seed=args.seed))
        apps = (args.app,)
    else:
        apps = (args.app,) + tuple(
            name for name in app_names() if name != args.app
        )[: args.shards - 1]
        if len(apps) < args.shards:
            raise ValueError(
                f"--shards {args.shards} exceeds the {len(apps)} known applications"
            )
        profile = MachineProfile(
            name=f"stream:{len(apps)}apps",
            platform=PLATFORM_LINUX,
            days=args.days,
            apps=apps,
            sessions_per_day=4,
            actions_per_session=10,
            pref_edits_per_day=2.0,
            noise_keys=50,
            noise_writes_per_day=120,
            reads_per_day=0,
            seed=args.seed,
        )
        trace = generate_trace(profile)
    if args.shard_prefixes is not None:
        prefixes = tuple(args.shard_prefixes)
    elif args.shards > 1:
        prefixes = tuple(trace.apps[name].key_prefix for name in apps)
    else:
        prefixes = ()
    return trace, apps, prefixes


def _ingest_suffix(ingest_seconds: float) -> str:
    """Ingest tail for one progress line (``--timings``).

    Covers journal append plus shard routing only — the pipeline compute
    is reported separately by :func:`_timing_suffix`, so the two phases
    can be compared.
    """
    return f"; ingest {ingest_seconds * 1000:.1f}ms (append + routing)"


def _timing_suffix(stats) -> str:
    """Per-shard timing tail for one progress line (``--timings``)."""
    if not stats.shard_timings:
        return "; no shard ran"
    slowest = stats.slowest_shard
    label = slowest if slowest else "<catch-all>"
    kernel = (
        f"numpy kernel on {stats.kernel_components} component(s)"
        if stats.kernel_used
        else "python kernel"
    )
    return (
        f"; slowest shard {label} "
        f"{stats.shard_timings[slowest] * 1000:.1f}ms; "
        f"merges {stats.merges_reused} spliced/"
        f"{stats.merges_recomputed} recomputed; {kernel}"
    )


def _cmd_stream(args) -> str:
    import time
    from pathlib import Path

    from repro.core.sharded import ShardedPipeline
    from repro.ttkv.store import TTKV

    trace, apps, prefixes = _stream_trace(args)
    events = trace.ttkv.write_events()
    state_path = Path(args.state) if args.state else None
    lines = []

    if state_path is not None and state_path.exists():
        # Resume: the deployment re-opens its recorded store and the
        # session picks up at its checkpointed cursors — consumed events
        # are never read again.
        from repro.fleet.checkpointing import load_json_checkpoint

        live = TTKV()
        ingest_start = time.perf_counter()
        live.record_events(events)
        ingest_seconds = time.perf_counter() - ingest_start
        pipeline = ShardedPipeline.from_state(
            live,
            load_json_checkpoint(state_path, kind="session checkpoint"),
        )
        clusters = pipeline.update()
        stats = pipeline.last_stats
        lines.append(
            f"resumed session from {state_path} "
            "(checkpoint parameters take precedence)"
        )
        line = (
            f"  {stats.events_consumed} new event(s) consumed, "
            f"{len(events) - stats.events_consumed} already-read event(s) "
            f"skipped -> {len(clusters)} clusters "
            f"({len(clusters.multi_clusters())} multi-key)"
        )
        if args.timings:
            line += _ingest_suffix(ingest_seconds) + _timing_suffix(stats)
        lines.append(line)
    else:
        live = TTKV()
        pipeline = ShardedPipeline(
            live,
            shard_prefixes=prefixes,
            window=args.window,
            correlation_threshold=args.threshold,
        )
        chunk_size = max(1, -(-len(events) // max(1, args.chunks)))
        chunks = -(-len(events) // chunk_size) if events else 0
        sharded = (
            f", sharded on {len(prefixes)} app prefix(es)" if prefixes else ""
        )
        lines.append(
            f"streaming {len(events)} modification events from a "
            f"{args.days}-day trace of {len(apps)} app(s) in {chunks} "
            f"chunk(s){sharded}"
        )
        for start in range(0, len(events), chunk_size):
            ingest_start = time.perf_counter()
            live.record_events(events[start:start + chunk_size])
            ingest_seconds = time.perf_counter() - ingest_start
            clusters = pipeline.update()
            stats = pipeline.last_stats
            line = (
                f"  +{stats.events_consumed:5d} events -> "
                f"{len(clusters):4d} clusters "
                f"({len(clusters.multi_clusters())} multi-key); "
                f"{stats.components_reclustered}/{stats.components_total} "
                "components re-agglomerated"
            )
            if stats.shards_total > 1:
                line += (
                    f"; {stats.shards_updated}/{stats.shards_total} "
                    "shards updated"
                )
            if args.timings:
                line += _ingest_suffix(ingest_seconds) + _timing_suffix(stats)
            lines.append(line)

    if state_path is not None:
        from repro.fleet.checkpointing import atomic_write_json

        state_path.parent.mkdir(parents=True, exist_ok=True)
        # tmp+fsync+rename: a crash mid-write can never leave a torn
        # checkpoint at the final name
        atomic_write_json(state_path, pipeline.to_state())
        lines.append(f"session state checkpointed to {state_path}")
    pipeline.close()
    return "\n".join(lines)


def _cmd_fleet(args) -> str:
    import asyncio
    from pathlib import Path

    from repro.fleet import FleetPipeline
    from repro.ttkv.store import TTKV
    from repro.workload.machines import profile_by_name
    from repro.workload.tracegen import generate_trace

    if args.machines < 1:
        raise ValueError(f"--machines must be at least 1, got {args.machines}")
    profile = profile_by_name(args.profile)
    machine_events: dict[str, list] = {}
    machine_prefixes: dict[str, tuple[str, ...]] = {}
    for index in range(args.machines):
        machine_id = f"m{index:03d}"
        trace = generate_trace(profile, days=args.days, seed=args.seed + index)
        machine_events[machine_id] = trace.ttkv.write_events()
        machine_prefixes[machine_id] = tuple(
            app.key_prefix for app in trace.apps.values()
        )
    total_events = sum(len(events) for events in machine_events.values())
    state_dir = Path(args.state) if args.state else None
    lines = []

    if state_dir is not None and (state_dir / "fleet.json").exists():
        # Resume: each machine re-opens its recorded store; the
        # restored sessions pick up at their checkpointed cursors and
        # the merge rebuilds from their live evidence snapshots.
        stores = {}
        for machine_id, events in machine_events.items():
            store = TTKV()
            store.record_events(events)
            stores[machine_id] = store
        fleet = FleetPipeline.from_state_dir(
            state_dir, stores, max_lag=args.max_lag
        )
        clusters = fleet.update()
        stats = fleet.last_stats
        lines.append(
            f"resumed fleet session from {state_dir} "
            f"({len(stores)} machine checkpoint(s))"
        )
        lines.append(
            f"  {stats.events_consumed} new event(s) consumed, "
            f"{total_events - stats.events_consumed} already-read "
            f"event(s) skipped -> {len(clusters)} fleet clusters "
            f"({len(clusters.multi_clusters())} multi-key)"
        )
    else:
        fleet = FleetPipeline(
            window=args.window,
            correlation_threshold=args.threshold,
            max_lag=args.max_lag,
        )
        for machine_id in machine_events:
            fleet.add_machine(
                machine_id, TTKV(), machine_prefixes[machine_id]
            )
        lines.append(
            f"fleet of {args.machines} machine(s) [{args.profile}] "
            f"streaming {total_events} events over {args.chunks} "
            "round(s)"
        )
        feeds = {}
        for machine_id, events in machine_events.items():
            size = max(1, -(-len(events) // max(1, args.chunks)))
            feeds[machine_id] = [
                events[start : start + size]
                for start in range(0, len(events), size)
            ]

        def on_round(report):
            lines.append(
                f"  round {report.index}: +{report.events_fed:5d} events "
                f"-> {len(report.clusters):4d} fleet clusters "
                f"({len(report.clusters.multi_clusters())} multi-key); "
                f"{report.machines_updated}/{report.machines_total} "
                "machines updated; "
                f"{report.merge.components_reclustered}/"
                f"{report.merge.components_total} "
                "fleet components re-agglomerated"
            )

        asyncio.run(fleet.drive(feeds, on_round=on_round))

    if state_dir is not None:
        fleet.to_state_dir(state_dir)
        lines.append(f"fleet state checkpointed to {state_dir}")
    fleet.close()
    return "\n".join(lines)


def _load_cli_scenario(path: str, extra_env: dict | None = None):
    """Load a scenario through all three layers, env overrides included.

    CLI flags that shadow config fields (``--max-lag``) are folded in as
    synthetic ``REPRO__*`` variables, so flag > environment > YAML >
    default precedence falls out of the one override mechanism.
    """
    import os

    from repro.scenarios import load_scenario

    env = dict(os.environ)
    if extra_env:
        env.update(extra_env)
    return load_scenario(path, env)


def _cmd_stream_scenario(args) -> str:
    from repro.scenarios import build_scenario, run_stream_scenario

    if args.state is not None:
        raise ValueError(
            "--scenario and --state are incompatible: scenario runs are "
            "self-contained equality gates, not resumable sessions"
        )
    config = _load_cli_scenario(args.scenario)
    built = build_scenario(config)
    machine = built.machines[0]
    lines = [
        f"scenario {config.name!r} [{config.regime.kind}]: streaming "
        f"machine {machine.machine_id} ({machine.profile_name}), "
        f"{len(machine.delivery)} delivered event(s) on "
        f"{len(machine.shard_prefixes)} shard prefix(es)"
    ]

    def on_update(events_so_far: int, clusters: int) -> None:
        lines.append(
            f"  {events_so_far:6d} events -> {clusters:4d} clusters"
        )

    chunk_events = max(1, -(-len(machine.delivery) // max(1, args.chunks)))
    result = run_stream_scenario(
        built, chunk_events=chunk_events, on_update=on_update
    )
    lines.append(
        f"  {result.updates} update(s); "
        f"{result.reorders_absorbed} reorder(s) absorbed, "
        f"{result.reorders_repaired} repaired, "
        f"{result.rebuilds} rebuild(s); "
        f"{len(result.clusters)} clusters "
        f"({len(result.clusters.multi_clusters())} multi-key)"
    )
    lines.append("  gate: incremental equals batch: passed")
    return "\n".join(lines)


def _cmd_fleet_scenario(args) -> str:
    from repro.scenarios import build_scenario, run_fleet_scenario

    if args.state is not None:
        raise ValueError(
            "--scenario and --state are incompatible: scenario runs are "
            "self-contained equality gates, not resumable sessions"
        )
    extra_env = (
        {"REPRO__FLEET__MAX_LAG": str(args.max_lag)}
        if args.max_lag is not None
        else None
    )
    config = _load_cli_scenario(args.scenario, extra_env)
    built = build_scenario(config)
    population = ", ".join(
        f"{group.machines}x {group.profile}" for group in config.population
    )
    lines = [
        f"scenario {config.name!r} [{config.regime.kind}]: "
        f"{config.total_machines} machine(s) ({population}), "
        f"{built.total_events} event(s) over {config.fleet.rounds} "
        "scheduled round(s)"
        + (
            f", max_lag {config.fleet.max_lag}"
            if config.fleet.max_lag is not None
            else ""
        )
    ]

    def on_round(report) -> None:
        line = (
            f"  round {report.index}: +{report.events_fed:5d} events "
            f"-> {len(report.clusters):4d} fleet clusters "
            f"({len(report.clusters.multi_clusters())} multi-key); "
            f"{report.machines_updated}/{report.machines_total} "
            "machines updated"
        )
        if report.merge is not None:
            line += (
                f"; {report.merge.components_reclustered}/"
                f"{report.merge.components_total} "
                "fleet components re-agglomerated"
            )
        lines.append(line)

    result = run_fleet_scenario(built, on_round=on_round)
    lines.append(
        f"  {len(result.rounds)} round(s) driven, "
        f"{result.events_consumed} event(s) consumed, "
        f"{len(result.machines_final)} machine(s) attached at the end"
    )
    lines.append("  gate: fleet merge equals concatenated batch: passed")
    return "\n".join(lines)


def _cmd_validate_scenarios(args) -> str:
    from pathlib import Path

    from repro.scenarios import ScenarioConfigError, load_scenario

    paths = [Path(p) for p in args.paths] or sorted(
        Path("scenarios").glob("*.yaml")
    )
    if not paths:
        raise ValueError(
            "no scenario files found (looked in scenarios/*.yaml); "
            "pass explicit paths"
        )
    lines = []
    failures = []
    for path in paths:
        try:
            # env={}: validate the file exactly as committed, without
            # whatever REPRO__* happens to be set in this shell
            config = load_scenario(path, env={})
        except ScenarioConfigError as error:
            failures.append(str(error))
            lines.append(f"FAIL  {path}")
        else:
            lines.append(
                f"ok    {path}: {config.name!r} [{config.regime.kind}] "
                f"{config.total_machines} machine(s), "
                f"{config.fleet.rounds} round(s), seed {config.seed}"
            )
    if failures:
        raise SystemExit("\n".join(lines + [""] + failures))
    return "\n".join(lines)


def _cmd_repair(args) -> str:
    from repro.common.format import format_mmss
    from repro.core.search import SearchStrategy
    from repro.errors.cases import case_by_id
    from repro.experiments.recovery import run_case

    case = case_by_id(args.case)
    strategy = SearchStrategy.BFS if args.bfs else SearchStrategy.DFS
    report, scenario = run_case(
        case,
        strategy=strategy,
        days_before_end=args.days_before_end,
        spurious_writes=args.spurious,
        use_clustering=not args.noclust,
    )
    outcome = report.outcome
    lines = [
        f"error #{case.case_id} ({case.app_name}): {case.description}",
        f"trace: {case.trace_name}; strategy: {strategy.name}"
        + ("; baseline: Ocasta-NoClust" if args.noclust else ""),
    ]
    if report.fixed:
        lines.append(
            f"FIXED after {outcome.trials_to_fix} trials "
            f"({format_mmss(outcome.time_to_fix)} simulated), "
            f"{outcome.unique_screenshots} unique screenshot(s)"
        )
        lines.append(
            "offending cluster "
            f"({report.offending_cluster_size} setting(s)): "
            + ", ".join(sorted(report.offending_cluster.keys))
        )
    else:
        lines.append(
            f"NOT FIXED after {outcome.total_trials} trials — "
            "the rollback granularity cannot repair this error"
        )
    return "\n".join(lines)


def _cmd_list_cases() -> str:
    from repro.experiments.table3 import render_table3

    return render_table3()


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    if command == "table1":
        output = _cmd_table1()
    elif command == "table2":
        output = _cmd_table2(args)
    elif command == "table3":
        output = _cmd_table3()
    elif command == "table4":
        output = _cmd_table4(args)
    elif command in ("fig2a", "fig2b", "fig2c"):
        output = _cmd_fig2(command, args.points)
    elif command in ("fig3a", "fig3b"):
        output = _cmd_fig3(command)
    elif command == "fig4":
        output = _cmd_fig4(args)
    elif command == "ablations":
        output = _cmd_ablations()
    elif command == "stream":
        output = (
            _cmd_stream_scenario(args) if args.scenario else _cmd_stream(args)
        )
    elif command == "fleet":
        output = (
            _cmd_fleet_scenario(args) if args.scenario else _cmd_fleet(args)
        )
    elif command == "validate-scenarios":
        output = _cmd_validate_scenarios(args)
    elif command == "repair":
        output = _cmd_repair(args)
    else:
        output = _cmd_list_cases()
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
