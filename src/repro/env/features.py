"""Typed observation vectors for the decision environments.

One feature row per candidate, raw (unnormalised) values — the schema is
documented in :mod:`repro.env`.  Extraction is lazy: the decision hooks only
call into this module for agents that declare ``needs_features``, so the
built-in agents (and the hookless direct path) never pay for it.
"""

from typing import List

from repro.simulation.decisions import ROUTE, STAGE, DecisionPoint

__all__ = [
    "STAGE_FEATURE_NAMES",
    "CLUSTER_FEATURE_NAMES",
    "stage_features",
    "cluster_features",
    "features_for",
]

#: Per-candidate features at a ``stage`` decision (candidates = dispatchable
#: stages of the running DAG job).
STAGE_FEATURE_NAMES = (
    "heft_rank",
    "pert_slack",
    "remaining_work",
    "pending_tasks",
    "frontier_width",
)

#: Per-candidate features at a ``route`` decision (candidates = per-cluster
#: DiAS controllers).
CLUSTER_FEATURE_NAMES = (
    "queue_depth",
    "work_left",
    "sprint_budget",
    "utilisation",
    "running",
    "job_priority",
)


def stage_features(point: DecisionPoint) -> List[List[float]]:
    """Feature rows for a stage decision, ordered like ``point.candidates``."""
    slack = point.context.analysis.slack
    width = float(len(point.candidates))
    return [
        [
            float(run.rank),
            float(slack.get(run.index, 0.0)),
            float(run.remaining_work()),
            float(run.pending_tasks),
            width,
        ]
        for run in point.candidates
    ]


def cluster_features(point: DecisionPoint) -> List[List[float]]:
    """Feature rows for a routing decision, ordered like ``point.candidates``."""
    priority = float(point.job.priority)
    rows: List[List[float]] = []
    for controller in point.candidates:
        sprinter = controller.sprinter
        if sprinter is None:
            budget = 0.0
        else:
            remaining = sprinter.available_budget()
            # ``None`` means sprinting is unmetered; -1 keeps the column
            # numeric while staying distinguishable from an empty budget.
            budget = -1.0 if remaining is None else float(remaining)
        # telemetry_rows() is the documented read-only state snapshot; it
        # must not mutate, so sampling features cannot perturb the episode.
        sample = controller.telemetry_rows((controller.sim.now,))[0]
        rows.append(
            [
                float(controller.queue_length),
                float(sample["work_left"]),
                budget,
                float(sample["utilisation"]),
                float(sample["running"]),
                priority,
            ]
        )
    return rows


def features_for(point: DecisionPoint) -> List[List[float]]:
    """Dispatch on the decision kind."""
    if point.kind == STAGE:
        return stage_features(point)
    if point.kind == ROUTE:
        return cluster_features(point)
    raise ValueError(f"unknown decision kind {point.kind!r}")
