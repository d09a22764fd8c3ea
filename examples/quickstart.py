#!/usr/bin/env python3
"""Quickstart: cluster configuration settings from an access trace.

This is the smallest end-to-end use of the library's core: feed a
modification history into the time-travel key-value store, run the
paper's clustering (1-second sliding window, complete linkage,
correlation threshold 2), and inspect the clusters and their historical
versions.  The second half shows the way Ocasta actually runs — a live
:class:`ShardedPipeline` session, one shard per application prefix,
updating only the shards whose journals advanced.

Run:  python examples/quickstart.py
"""

from repro import TTKV, ShardedPipeline, cluster_settings
from repro.core.cluster_model import cluster_versions


def main() -> None:
    ttkv = TTKV()

    # A user enables a "mark seen" feature twice and disables it once;
    # the enabler and its timeout are always written together...
    for t, enabled, timeout in ((100.0, True, 1500), (2000.0, False, 1500), (9000.0, True, 2500)):
        ttkv.record_write("mail/mark_seen", enabled, t)
        ttkv.record_write("mail/mark_seen_timeout", timeout, t)

    # ...while an unrelated zoom setting changes on its own schedule.
    for t, zoom in ((500.0, 1.0), (2000.5, 1.25), (7000.0, 1.5)):
        ttkv.record_write("view/zoom", zoom, t)

    clusters = cluster_settings(ttkv)  # paper defaults: window 1 s, corr 2

    print("Clusters found:")
    for cluster in clusters:
        print(f"  cluster {cluster.cluster_id}: {cluster.sorted_keys()}")

    mark_seen = clusters.cluster_of("mail/mark_seen")
    assert "mail/mark_seen_timeout" in mark_seen, "related keys must cluster"
    assert clusters.cluster_of("view/zoom").is_singleton()

    print("\nHistorical versions of the mark-seen cluster (rollback candidates):")
    for version in cluster_versions(ttkv, mark_seen):
        print(f"  t={version.timestamp:8.1f}  {version.values}")

    # Rolling back the cluster restores *both* settings together — the
    # capability that lets Ocasta fix multi-setting configuration errors.
    plan = cluster_versions(ttkv, mark_seen)[0].rollback_plan()
    print(f"\nRollback plan to the first version: {plan.assignments}")

    # Deployment mode: clustering runs continuously alongside logging.
    # A ShardedPipeline keeps one engine per application prefix; only
    # shards whose journals advanced do any work at all.
    live = ShardedPipeline(ttkv, shard_prefixes=("mail/", "view/"))
    live_clusters = live.update()
    stats = live.last_stats
    print(
        f"\nLive sharded session: {len(live_clusters)} clusters from "
        f"{stats.shards_updated}/{stats.shards_total} shards "
        f"(slowest {stats.slowest_shard!r})"
    )
    assert [c.sorted_keys() for c in live_clusters] == [
        c.sorted_keys() for c in clusters
    ], "streaming must equal batch"
    live.close()


if __name__ == "__main__":
    main()
