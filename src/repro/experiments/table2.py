"""Table II: clustering accuracy per application.

Each application is exercised on a dedicated "lab" deployment (same user
model as the Table I machines) and its clustering is scored against the
schema's ground-truth dependency groups.
"""

from __future__ import annotations

from repro.analysis.tables import ascii_table, format_percent
from repro.common.hashing import stable_hash
from repro.apps.catalog import APP_FACTORIES, app_names
from repro.core.accuracy import (
    ClusteringReport,
    evaluate_clustering,
    mean_accuracy,
    overall_accuracy,
)
from repro.core.sharded import ShardedPipeline
from repro.workload.machines import MachineProfile, PLATFORM_LINUX
from repro.workload.tracegen import GeneratedTrace, generate_trace


def lab_profile(app_name: str, days: int = 45, seed: int = 7) -> MachineProfile:
    """A single-application deployment used to exercise clustering."""
    return MachineProfile(
        name=f"lab:{app_name}",
        platform=PLATFORM_LINUX,
        days=days,
        apps=(app_name,),
        sessions_per_day=4,
        actions_per_session=10,
        pref_edits_per_day=2.0,
        noise_keys=0,
        noise_writes_per_day=0,
        reads_per_day=2000,
        seed=seed + stable_hash(app_name, mask=0xFF),
    )


def evaluate_app(
    app_name: str,
    trace: GeneratedTrace | None = None,
    window: float = 1.0,
    correlation_threshold: float = 2.0,
    days: int = 45,
    seed: int = 7,
) -> ClusteringReport:
    """Cluster one application's trace and score it (one Table II row)."""
    if trace is None:
        trace = generate_trace(lab_profile(app_name, days=days, seed=seed))
    app = trace.apps[app_name]
    # One-shot consumption of the trace through the streaming pipeline,
    # sharded on the application's prefix — equivalent to batch
    # cluster_settings with key_filter, and the path a live deployment
    # would be on when the table is regenerated mid-recording.
    pipeline = ShardedPipeline(
        trace.ttkv,
        shard_prefixes=(app.key_prefix,),
        window=window,
        correlation_threshold=correlation_threshold,
        catch_all=False,
    )
    try:
        cluster_set = pipeline.update()
    finally:
        # one-shot consumption: detach so a reused trace store does not
        # keep feeding an abandoned session
        pipeline.close()
    return evaluate_clustering(
        app_name,
        cluster_set,
        app.canonical_ground_truth_groups(),
        total_keys=len(app.schema),
    )


def run_table2(
    window: float = 1.0,
    correlation_threshold: float = 2.0,
    days: int = 45,
    seed: int = 7,
) -> list[ClusteringReport]:
    """All eleven Table II rows."""
    return [
        evaluate_app(
            name,
            window=window,
            correlation_threshold=correlation_threshold,
            days=days,
            seed=seed,
        )
        for name in app_names()
    ]


def render_table2(reports: list[ClusteringReport]) -> str:
    headers = [
        "Application", "#Keys", "#Clusters", "%Accuracy", "paper:%Accuracy",
    ]
    rows = []
    for report in reports:
        info = APP_FACTORIES[report.app_name]
        rows.append(
            [
                report.app_name,
                report.total_keys,
                f"{report.multi_clusters}/{report.total_clusters}",
                format_percent(report.accuracy),
                format_percent(info.paper_accuracy),
            ]
        )
    total_keys = sum(r.total_keys for r in reports)
    total_multi = sum(r.multi_clusters for r in reports)
    total_all = sum(r.total_clusters for r in reports)
    rows.append(
        [
            "Total",
            total_keys,
            f"{total_multi}/{total_all}",
            format_percent(overall_accuracy(reports)),
            "88.6%",
        ]
    )
    table = ascii_table(headers, rows, title="Table II: clustering accuracy")
    mean = mean_accuracy(reports)
    return (
        table
        + f"\nmean per-app accuracy: {format_percent(mean)} (paper: 72.3%)"
    )
