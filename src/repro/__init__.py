"""Ocasta: clustering configuration settings for error recovery.

A from-scratch reproduction of Huang & Lie, DSN 2014.  The library has
three layers:

- **substrates** — a time-travel key-value store (:mod:`repro.ttkv`),
  configuration-store emulators with loggers (:mod:`repro.stores`,
  :mod:`repro.loggers`), eleven simulated desktop applications
  (:mod:`repro.apps`) and a workload generator (:mod:`repro.workload`);
- **core** — the paper's contribution: sliding-window write groups, the
  correlation metric, complete-linkage hierarchical clustering with
  threshold pruning, cluster-version search and the repair engine
  (:mod:`repro.core`);
- **evaluation** — the sixteen Table III error cases
  (:mod:`repro.errors`), the GUI-repair-tool equivalent
  (:mod:`repro.repair`), the simulated user study (:mod:`repro.study`)
  and one experiment driver per paper table/figure
  (:mod:`repro.experiments`).

Quickstart — streaming, the way Ocasta actually runs.  Clustering runs
continuously alongside logging on machines hosting many applications, so
the front door is the :class:`ShardedPipeline`: one engine per application
key prefix, fed from per-shard journal cursors.  Call
:meth:`~repro.core.sharded.ShardedPipeline.update` whenever you want
current clusters; only shards whose journals advanced do any work, and
each consumes just the events appended since its previous read.

>>> from repro import TTKV, ShardedPipeline
>>> ttkv = TTKV()
>>> live = ShardedPipeline(ttkv, shard_prefixes=("mail/", "editor/"))
>>> ttkv.record_write("mail/mark_seen", True, 10.0)
>>> ttkv.record_write("mail/mark_seen_timeout", 1500, 10.0)
>>> ttkv.record_write("editor/zoom", 1.25, 10.0)   # same tick, other app
>>> [c.sorted_keys() for c in live.update()]
[['mail/mark_seen', 'mail/mark_seen_timeout'], ['editor/zoom']]
>>> ttkv.record_write("editor/zoom", 1.5, 300.0)
>>> clusters = live.update()                   # only the editor shard ran
>>> live.last_stats.shards_updated, live.last_stats.shards_total
(1, 3)

A deployment checkpoints its session to a JSON-safe dict and, after a
restart, resumes from its cursors instead of replaying the journal (the
``python -m repro stream --state FILE`` flag does exactly this):

>>> import json
>>> blob = json.dumps(live.to_state())         # persist alongside the TTKV
>>> resumed = ShardedPipeline.from_state(ttkv, json.loads(blob))
>>> [c.sorted_keys() for c in resumed.update()] == \\
...     [c.sorted_keys() for c in clusters]
True
>>> resumed.last_stats.events_consumed         # zero already-read events
0

An update walks only the shards whose journals advanced, one after
another in the calling thread; per-shard wall times and the slowest shard
land in ``last_stats``.  Concurrency lives one tier up:
:class:`FleetPipeline` runs each machine's update on the event loop's
default thread pool.

>>> ttkv.record_write("editor/zoom", 2.0, 900.0)
>>> _ = resumed.update()
>>> list(resumed.last_stats.shard_timings), resumed.last_stats.slowest_shard
(['editor/'], 'editor/')

Single-application stores need no prefixes: ``ShardedPipeline(store)``
is one session with a single catch-all shard.  One-shot batch clustering
over a recorded trace gives identical results per prefix — the
equivalence is property-tested for arbitrary stream prefixes:

>>> from repro import cluster_settings
>>> [c.sorted_keys() for c in cluster_settings(ttkv, key_filter="mail/")]
[['mail/mark_seen', 'mail/mark_seen_timeout']]
"""

from repro.exceptions import OcastaError
from repro.ttkv import (
    DELETED,
    MISSING,
    TTKV,
    RollbackPlan,
    ShardedJournal,
    SnapshotView,
)
from repro.core import (
    Cluster,
    ClusterSet,
    ClusterVersion,
    RepairEngine,
    SearchStrategy,
    ShardEngine,
    ShardedPipeline,
    UpdateStats,
    cluster_settings,
    singleton_clusters,
)
from repro.fleet import FleetCorrelationMerge, FleetPipeline, FleetQueryServer
from repro.apps import SimulatedApplication, Screenshot, create_app, app_names
from repro.workload import generate_trace, profile_by_name, PROFILES
from repro.errors import ERROR_CASES, case_by_id, prepare_scenario
from repro.repair import OcastaRepairTool, Trial

__version__ = "1.0.0"

__all__ = [
    "OcastaError",
    "DELETED",
    "MISSING",
    "TTKV",
    "RollbackPlan",
    "SnapshotView",
    "Cluster",
    "ClusterSet",
    "ClusterVersion",
    "RepairEngine",
    "SearchStrategy",
    "ShardEngine",
    "ShardedJournal",
    "ShardedPipeline",
    "UpdateStats",
    "cluster_settings",
    "singleton_clusters",
    "FleetCorrelationMerge",
    "FleetPipeline",
    "FleetQueryServer",
    "SimulatedApplication",
    "Screenshot",
    "create_app",
    "app_names",
    "generate_trace",
    "profile_by_name",
    "PROFILES",
    "ERROR_CASES",
    "case_by_id",
    "prepare_scenario",
    "OcastaRepairTool",
    "Trial",
    "__version__",
]
