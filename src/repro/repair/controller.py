"""The repair controller: Ocasta's recovery mode, end to end.

Given an application with an error, its recorded TTKV trace and a
user-provided trial, the controller clusters the application's settings,
sorts the clusters, enumerates (cluster, historical version) candidates
with DFS or BFS, and drives the repair engine through sandboxed trial
executions until a screenshot shows a fixed application.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import SimulatedApplication
from repro.common.clock import SimClock
from repro.core.cluster_model import Cluster, ClusterSet
from repro.core.pipeline import (
    DEFAULT_CORRELATION_THRESHOLD,
    DEFAULT_WINDOW,
    singleton_clusters,
)
from repro.core.sharded import ShardedPipeline
from repro.core.repair import FixOracle, RepairEngine, RepairOutcome
from repro.core.search import (
    SearchStrategy,
    candidate_versions,
    search_order,
    total_candidates,
)
from repro.core.sorting import SORT_MODCOUNT, sort_clusters_for_search
from repro.repair.sandbox import Sandbox
from repro.repair.trial import Trial
from repro.ttkv.store import TTKV


@dataclass
class RepairReport:
    """Outcome of one recovery run plus the clustering context."""

    outcome: RepairOutcome
    cluster_set: ClusterSet
    searched_candidates: int
    strategy: SearchStrategy

    @property
    def fixed(self) -> bool:
        return self.outcome.fixed

    @property
    def offending_cluster(self) -> Cluster | None:
        if self.outcome.fix_candidate is None:
            return None
        return self.outcome.fix_candidate.cluster

    @property
    def offending_cluster_size(self) -> int | None:
        cluster = self.offending_cluster
        return None if cluster is None else len(cluster)


class OcastaRepairTool:
    """Recovery-mode Ocasta for one application.

    Parameters
    ----------
    app:
        The live (misconfigured) application.
    ttkv:
        The recorded trace covering the application's history.
    window, correlation_threshold:
        Clustering parameters (paper defaults: 1 s, 2).  "In practice, a
        user can adjust these settings in case they fail to cluster the
        configuration settings that cause the configuration problem."
    use_clustering:
        ``False`` gives the Ocasta-NoClust baseline of Table IV.
    """

    def __init__(
        self,
        app: SimulatedApplication,
        ttkv: TTKV,
        window: float = DEFAULT_WINDOW,
        correlation_threshold: float = DEFAULT_CORRELATION_THRESHOLD,
        sort_policy: str = SORT_MODCOUNT,
        use_clustering: bool = True,
        clock: SimClock | None = None,
    ) -> None:
        self.app = app
        self.ttkv = ttkv
        self.window = window
        self.correlation_threshold = correlation_threshold
        self.sort_policy = sort_policy
        self.use_clustering = use_clustering
        self.clock = clock if clock is not None else SimClock()
        self._pipeline: ShardedPipeline | None = None

    @property
    def last_update_stats(self):
        """The clustering session's :class:`~repro.core.sharded.UpdateStats`
        from the most recent :meth:`build_clusters` (``None`` before the
        first run or under ``use_clustering=False``)."""
        return None if self._pipeline is None else self._pipeline.last_stats

    def build_clusters(self) -> ClusterSet:
        """Cluster this application's settings from the recorded trace.

        The tool keeps a :class:`ShardedPipeline` session alive across
        repair runs — one shard on the application's key prefix, no
        catch-all, so foreign applications' writes never even reach the
        engine: after :meth:`apply_fix` writes the rollback through the
        logger (Ocasta "returns back to recording mode"), the next repair
        only consumes the newly recorded events instead of re-clustering
        the whole trace.  The user may retune ``window`` or
        ``correlation_threshold`` between runs; that restarts the session.
        """
        if not self.use_clustering:
            return singleton_clusters(self.ttkv, key_filter=self.app.key_prefix)
        if self._pipeline is None:
            self._pipeline = ShardedPipeline(
                self.ttkv,
                shard_prefixes=(self.app.key_prefix,),
                window=self.window,
                correlation_threshold=self.correlation_threshold,
                catch_all=False,
            )
        else:
            # the pipeline detects retuned parameters and restarts itself
            self._pipeline.window = self.window
            self._pipeline.correlation_threshold = self.correlation_threshold
        return self._pipeline.update()

    def repair(
        self,
        trial: Trial,
        is_fixed: FixOracle,
        start_time: float | None = None,
        end_time: float | None = None,
        strategy: SearchStrategy = SearchStrategy.DFS,
        exhaustive: bool = False,
    ) -> RepairReport:
        """Run the recovery search.

        ``start_time``/``end_time`` bound the historical values searched —
        the paper's optional user-supplied hints on when the error could
        have been introduced.  ``is_fixed`` stands in for the user
        examining the screenshot gallery.
        """
        cluster_set = self.build_clusters()
        ordered = sort_clusters_for_search(
            cluster_set, self.ttkv, policy=self.sort_policy
        )
        versions = candidate_versions(
            self.ttkv, ordered, start=start_time, end=end_time
        )
        candidates = search_order(ordered, versions, strategy=strategy)

        sandbox = Sandbox(self.app)
        engine = RepairEngine(
            execute_trial=lambda plan: sandbox.execute(trial, plan),
            is_fixed=is_fixed,
            clock=self.clock,
            trial_cost=self.app.trial_cost_seconds,
        )
        outcome = engine.run(candidates, exhaustive=exhaustive)
        return RepairReport(
            outcome=outcome,
            cluster_set=cluster_set,
            searched_candidates=total_candidates(versions),
            strategy=strategy,
        )

    def apply_fix(self, report: RepairReport) -> None:
        """Permanently roll the live store back to the fixing version.

        The writes go through the normal store interface, so an attached
        logger records them — Ocasta "returns back to recording mode".
        """
        plan = report.outcome.fix_plan
        if plan is None:
            raise ValueError("report contains no fix to apply")
        for canonical, value in plan.assignments.items():
            local = self.app.setting_name(canonical)
            store_key = self.app.store_key(local)
            from repro.ttkv.store import DELETED, MISSING

            if value is DELETED or value is MISSING:
                self.app.store.delete(store_key)
            else:
                self.app.store.set(store_key, value)
