"""DAG layer: stage-dependency jobs with pluggable stage schedulers.

This package generalises the paper's linear map/reduce stage chains to
**stage DAGs** — the execution model of Spark/GraphX query plans, SQL
physical plans and ML pipelines:

* :mod:`repro.dag.graph` — :class:`DagStage` (a
  :class:`~repro.engine.job.StageSpec` with dependency edges),
  :class:`StageDAG` (validated acyclicity, deterministic topological
  iteration) and :class:`DagJob`.
* :mod:`repro.dag.analytics` — PERT-style critical-path analysis: one
  :class:`CriticalPathAnalysis` holds each stage's slack and HEFT-style
  upward rank and the lower-bound makespan; slack-biased drop ratios shift
  task dropping off the critical path.
* :mod:`repro.dag.schedulers` — pluggable stage schedulers (``fifo``,
  ``critical_path_first``, ``shortest_remaining_work``, ``widest_first``)
  choosing which ready stage gets free slots.
* :mod:`repro.dag.execution` — :class:`DagExecution`, the frontier-driven
  engine running ready stages concurrently on the cluster's slots (with DVFS
  rescaling and eviction, like the linear engine).
* :mod:`repro.dag.simulation` — :class:`DagSimulation`, the DiAS
  controller (:class:`~repro.core.dias.DiASSimulation`, subclassed) with a
  per-stage drop plan and a :class:`DagExecution` per dispatched job.
"""

from repro.dag.analytics import (
    CriticalPathAnalysis,
    analyze_critical_path,
    slack_biased_drop_ratios,
    stage_duration,
)
from repro.dag.execution import DagExecution, StageRun
from repro.dag.graph import DagJob, DagStage, StageDAG
from repro.dag.schedulers import (
    STAGE_SCHEDULERS,
    CriticalPathFirstScheduler,
    FifoStageScheduler,
    ShortestRemainingWorkScheduler,
    StageScheduler,
    WidestFirstScheduler,
    make_stage_scheduler,
)
from repro.dag.simulation import DagSimulation, DagSimulationResult, replicate_dag, run_dag_policy

__all__ = [
    "CriticalPathAnalysis",
    "analyze_critical_path",
    "slack_biased_drop_ratios",
    "stage_duration",
    "DagExecution",
    "StageRun",
    "DagJob",
    "DagStage",
    "StageDAG",
    "STAGE_SCHEDULERS",
    "CriticalPathFirstScheduler",
    "FifoStageScheduler",
    "ShortestRemainingWorkScheduler",
    "StageScheduler",
    "WidestFirstScheduler",
    "make_stage_scheduler",
    "DagSimulation",
    "DagSimulationResult",
    "replicate_dag",
    "run_dag_policy",
]
