"""DiAS on stage DAGs: the DAG-aware controller and simulation driver.

:class:`DagSimulation` is a :class:`~repro.core.dias.DiASSimulation`: the
priority buffers, non-preemptive (or preemptive) head-of-line dispatching,
eviction, fault recovery, sprinting, energy accounting, span probes and
samplers are the DiAS controller's own.  The subclass supplies only what is
specific to DAGs:

* the drop plan — a class's drop ratio ``θ_k`` is applied to every droppable
  stage of the DAG through
  :meth:`~repro.core.dropper.TaskDropper.plan_stages`; with
  ``slack_biased=True`` the ratios are first reweighted by
  :func:`~repro.dag.analytics.slack_biased_drop_ratios` so dropping
  concentrates on off-critical-path stages at the same overall accuracy cost;
* the execution — each job is a :class:`~repro.dag.graph.DagJob` run by a
  :class:`~repro.dag.execution.DagExecution`, whose pluggable stage scheduler
  (or external decision hook) chooses which ready stage gets free slots;
* per-job critical-path analytics, the ``run_start`` fields and the
  :class:`DagSimulationResult` (the execution adds its PERT predictions to
  its attempt span);
* streaming arrivals from a lazy ``job_source`` through an
  :class:`~repro.simulation.des.ArrivalPump`.

The DAG controller keeps no backlog estimate (``work_left``): estimating a
DAG's service time would cost a critical-path analysis per arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.dias import DiASSimulation, SimulationResult
from repro.core.dropper import DropPlan
from repro.core.policies import SchedulingPolicy
from repro.dag.analytics import slack_biased_drop_ratios
from repro.dag.execution import DagExecution
from repro.dag.graph import DagJob
from repro.dag.schedulers import StageScheduler, make_stage_scheduler
from repro.engine.cluster import Cluster
from repro.faults.spec import FaultSpec, parse_fault_spec
from repro.models.accuracy import AccuracyModel
from repro.simulation.decisions import DecisionHook
from repro.simulation.des import ArrivalPump, Simulator
from repro.simulation.metrics import MetricsCollector
from repro.simulation.random_streams import RandomStreams
from repro.telemetry import NULL_HUB, TelemetryHub


@dataclass
class DagSimulationResult(SimulationResult):
    """A :class:`~repro.core.dias.SimulationResult` plus DAG analytics."""

    scheduler_name: str = "fifo"
    dag_rows: List[Dict[str, float]] = field(default_factory=list)
    #: Online critical-path-stretch accumulators (kept in completion order,
    #: so the mean is bitwise-identical to the row-based computation; they
    #: also serve streaming runs, which retain no ``dag_rows``).
    cp_stretch_sum: float = 0.0
    cp_stretch_count: int = 0

    def mean_makespan(self, priority: Optional[int] = None) -> float:
        """Mean per-job makespan (execution wall time) in seconds."""
        if self.metrics.streaming:
            if priority is not None:
                cm = self.metrics.class_metrics(priority)
                return cm.execution_time.mean if cm.job_count else float("nan")
            total = jobs = 0.0
            for p in self.metrics.priorities():
                cm = self.metrics.class_metrics(p)
                total += cm.execution_time.mean * cm.job_count
                jobs += cm.job_count
            return total / jobs if jobs else float("nan")
        records = (
            self.metrics.records
            if priority is None
            else self.metrics.records_for_priority(priority)
        )
        if not records:
            return float("nan")
        return sum(r.execution_time for r in records) / len(records)

    def mean_critical_path_stretch(self) -> float:
        """Mean makespan over its per-job lower bound (1.0 = optimal)."""
        if not self.cp_stretch_count:
            return float("nan")
        return self.cp_stretch_sum / self.cp_stretch_count


class DagSimulation(DiASSimulation):
    """Simulates one scheduling policy over a fixed DAG-job trace.

    Parameters
    ----------
    policy:
        The DiAS scheduling policy (preemption, per-class drop ratios,
        sprinting) applied to the trace.
    jobs:
        The DAG-job trace (sorted by arrival time internally).
    scheduler:
        Stage-scheduler name or instance.  When a *name* is given, a fresh
        instance is built per dispatched job; a passed-in *instance* is
        shared across all jobs of the run, so it must not keep per-job
        state (the built-in schedulers are stateless).
    slack_biased:
        When ``True``, per-class drop ratios are reweighted by per-stage
        slack before planning which tasks to drop.
    job_source:
        Alternative to ``jobs``: a lazy, arrival-ordered iterable of
        :class:`DagJob` (e.g. a DAG-mode
        :class:`~repro.traces.replay.ReplaySource`) pulled one job at a time
        as the simulation advances.  Pair with ``streaming_metrics=True``
        for constant-memory replays (no per-job records or DAG rows kept).
    streaming_metrics:
        Collect metrics online (:class:`MetricsCollector` with
        ``streaming=True``) instead of retaining per-job records.
    decision_hook:
        Optional external agent consulted at every stage decision of every
        execution; ``None`` keeps the built-in scheduler path untouched.
    """

    tracks_backlog = False

    def __init__(
        self,
        policy: SchedulingPolicy,
        jobs: Sequence[DagJob] = (),
        scheduler: Union[str, StageScheduler] = "fifo",
        cluster: Optional[Cluster] = None,
        accuracy_model: Optional[AccuracyModel] = None,
        streams: Optional[RandomStreams] = None,
        seed: int = 0,
        slack_biased: bool = False,
        telemetry: TelemetryHub = NULL_HUB,
        faults: Union[str, FaultSpec, None] = None,
        job_source: Optional[Iterable[DagJob]] = None,
        streaming_metrics: bool = False,
        decision_hook: Optional[DecisionHook] = None,
    ) -> None:
        if job_source is not None:
            if jobs:
                raise ValueError("pass either jobs or job_source, not both")
        elif not jobs:
            raise ValueError("the DAG job trace must not be empty")
        # The kernel is built here and passed in because a streaming run has
        # no batch trace, which the base class refuses for a kernel it owns.
        super().__init__(
            policy,
            jobs=jobs,
            cluster=cluster,
            accuracy_model=accuracy_model,
            streams=streams,
            seed=seed,
            simulator=Simulator(telemetry=telemetry),
            stream_namespace="dag/",
            telemetry=telemetry,
            metrics=MetricsCollector(streaming=True) if streaming_metrics else None,
            telemetry_src="dag",
            faults=faults,
        )
        self.job_source = job_source
        self.slack_biased = slack_biased
        self._scheduler_spec = scheduler
        self._decision_hook = decision_hook
        self.dag_rows: List[Dict[str, float]] = []
        self._cp_stretch_sum = 0.0
        self._cp_stretch_count = 0

    @property
    def scheduler_name(self) -> str:
        return make_stage_scheduler(self._scheduler_spec).name

    # --------------------------------------------------------------- arrivals
    def schedule_trace(self) -> None:
        """Schedule the batch trace, or start pulling from ``job_source``."""
        if self.job_source is None:
            super().schedule_trace()
        else:
            ArrivalPump(
                self.sim, self.job_source, self._on_arrival, self._source_exhausted
            ).start()

    def _source_exhausted(self, total: int) -> None:
        # The workload drains once every job the source yielded completes.
        self._drain_target = total

    # ---------------------------------------------------- DAG-specific hooks
    def _run_start_fields(self) -> Dict[str, Any]:
        return {"run": "dag", "policy": self.policy.name, "scheduler": self.scheduler_name}

    def _make_result(self, **fields: Any) -> "DagSimulationResult":
        return DagSimulationResult(
            **fields,
            scheduler_name=self.scheduler_name,
            dag_rows=list(self.dag_rows),
            cp_stretch_sum=self._cp_stretch_sum,
            cp_stretch_count=self._cp_stretch_count,
        )

    def _plan_drops(self, job: DagJob) -> Tuple[DropPlan, float, float]:
        base = self.policy.map_drop_ratio(job.priority)
        if self.slack_biased and base > 0.0:
            map_ratios = slack_biased_drop_ratios(job.dag, base, self.cluster.slots)
        else:
            map_ratios = {stage.index: base for stage in job.dag if stage.droppable}
        reduce_base = self.policy.reduce_drop_ratio(job.priority)
        reduce_ratios = {
            stage.index: reduce_base for stage in job.dag if stage.droppable
        }
        plan = self.dropper.plan_stages(job, map_ratios, reduce_ratios)
        return plan, plan.map_drop_ratio, plan.reduce_drop_ratio

    def _make_execution(
        self, job: DagJob, plan: DropPlan, map_drop: float, reduce_drop: float,
        trace_parent: int,
    ) -> DagExecution:
        return DagExecution(
            self.sim,
            self.cluster,
            job,
            scheduler=make_stage_scheduler(self._scheduler_spec),
            on_complete=self._on_complete,
            kept_map_indices=plan.kept_map_indices,
            kept_reduce_indices=plan.kept_reduce_indices,
            setup_drop_ratio=min(map_drop, 0.9),
            telemetry=self.telemetry,
            telemetry_src=self.telemetry_src,
            trace_parent=trace_parent,
            faults=self.faults,
            on_give_up=(
                self._on_task_exhausted if self.faults is not None else None
            ),
            decision_hook=self._decision_hook,
        )

    def _on_complete(self, execution: DagExecution) -> None:
        # Critical-path stretch, accumulated in completion order; streaming
        # runs keep only the running sum, batch runs one row per job too.
        job = execution.job
        lower_bound = execution.lower_bound_makespan
        cp_stretch = execution.elapsed / lower_bound if lower_bound > 0 else 1.0
        self._cp_stretch_sum += cp_stretch
        self._cp_stretch_count += 1
        if not self.metrics.streaming:
            self.dag_rows.append(
                {
                    "job_id": job.job_id,
                    "priority": job.priority,
                    "stages": job.num_stages,
                    "makespan_s": execution.elapsed,
                    "lower_bound_s": lower_bound,
                    "cp_stretch": cp_stretch,
                    "critical_path_len": len(execution.analysis.critical_path),
                }
            )
        super()._on_complete(execution)


def replicate_dag(
    scenario,
    policy: SchedulingPolicy,
    replications: int,
    scheduler: Union[str, StageScheduler] = "fifo",
    slack_biased: bool = False,
    base_seed: int = 0,
    jobs: int = 1,
    telemetry_base: Optional[str] = None,
    telemetry_interval: Optional[float] = None,
    faults: Union[str, FaultSpec, None] = None,
    decision_hook: Optional[DecisionHook] = None,
):
    """Replicate one DAG configuration over independent seeds.

    Each replication regenerates the scenario's DAG-job trace from its
    :func:`~repro.simulation.replication.replication_seed` and runs a fresh
    :class:`DagSimulation`, collecting makespan/latency/energy headline
    metrics.  ``jobs`` fans the replications across worker processes with
    metrics bitwise-identical to a serial run.  ``telemetry_base`` writes each
    replication's telemetry to a per-seed part file and merges the parts, in
    replication order, into one JSONL file at that path.  Returns
    ``{metric_name: ReplicatedMetric}``.
    """
    from repro.experiments.parallel import DagExperiment, merge_replication_parts
    from repro.simulation.replication import ReplicationRunner

    experiment = DagExperiment(
        scenario=scenario,
        policy=policy,
        scheduler=scheduler if isinstance(scheduler, str) else scheduler.name,
        slack_biased=slack_biased,
        telemetry_base=telemetry_base,
        telemetry_interval=telemetry_interval,
        faults=parse_fault_spec(faults),
        decision_hook=decision_hook,
    )
    metrics = ReplicationRunner(experiment).run(
        replications, base_seed=base_seed, jobs=jobs
    )
    merge_replication_parts(telemetry_base, base_seed, replications)
    return metrics


def run_dag_policy(
    policy: SchedulingPolicy,
    jobs: Sequence[DagJob],
    scheduler: Union[str, StageScheduler] = "fifo",
    cluster: Optional[Cluster] = None,
    seed: int = 0,
    slack_biased: bool = False,
) -> DagSimulationResult:
    """Convenience wrapper: build a :class:`DagSimulation` and run it."""
    simulation = DagSimulation(
        policy=policy,
        jobs=jobs,
        scheduler=scheduler,
        cluster=cluster,
        seed=seed,
        slack_biased=slack_biased,
    )
    return simulation.run()
