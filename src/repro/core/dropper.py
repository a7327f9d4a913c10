"""Task dropping — the approximation mechanism (§3.1, §3.3).

Spark computes the partitions a stage still has to execute through
``findMissingPartitions()``; DiAS modifies that function to return only
``⌈n(1 − θ_k)⌉`` of the ``n`` partitions.  :func:`find_missing_partitions`
reproduces that computation, and :class:`TaskDropper` builds a full
:class:`DropPlan` for a job: which map/reduce tasks of which stages are kept,
and the resulting effective drop ratio used to estimate accuracy loss.

Dropped tasks are chosen uniformly at random (the paper: "we randomly choose
one map task and drop it before its execution"), which is what makes the
analysis an unbiased sample of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.engine.job import Job, effective_task_count
from repro.models.accuracy import compose_stage_drop_ratios


def find_missing_partitions(num_partitions: int, drop_ratio: float) -> int:
    """Number of partitions Spark should still compute: ``⌈n(1 − θ)⌉``."""
    return effective_task_count(num_partitions, drop_ratio)


@dataclass
class DropPlan:
    """The concrete set of tasks kept for one job dispatch."""

    job_id: int
    map_drop_ratio: float
    reduce_drop_ratio: float
    kept_map_indices: Dict[int, List[int]]
    kept_reduce_indices: Dict[int, List[int]]
    dropped_map_tasks: int
    dropped_reduce_tasks: int
    total_map_tasks: int
    total_reduce_tasks: int
    effective_drop_ratio: float

    @property
    def kept_map_tasks(self) -> int:
        return self.total_map_tasks - self.dropped_map_tasks

    @property
    def kept_reduce_tasks(self) -> int:
        return self.total_reduce_tasks - self.dropped_reduce_tasks

    @property
    def drops_anything(self) -> bool:
        return self.dropped_map_tasks > 0 or self.dropped_reduce_tasks > 0


class TaskDropper:
    """Builds :class:`DropPlan` objects for dispatched jobs."""

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def plan(
        self,
        job: Job,
        map_drop_ratio: float,
        reduce_drop_ratio: float = 0.0,
    ) -> DropPlan:
        """Select which tasks of ``job`` to keep under the given drop ratios.

        The same per-stage ratio is applied to every droppable stage, as in
        the triangle-count experiments (§5.2.4); non-droppable stages always
        keep all tasks.  The effective (overall) drop ratio composes the
        per-stage ratios across the job's droppable stages.
        """
        uniform_map = {stage.index: map_drop_ratio for stage in job.stages}
        uniform_reduce = {stage.index: reduce_drop_ratio for stage in job.stages}
        return self.plan_stages(
            job,
            uniform_map,
            uniform_reduce,
            requested_map_ratio=map_drop_ratio,
            requested_reduce_ratio=reduce_drop_ratio,
        )

    def plan_stages(
        self,
        job: Job,
        stage_map_ratios: Mapping[int, float],
        stage_reduce_ratios: Optional[Mapping[int, float]] = None,
        requested_map_ratio: Optional[float] = None,
        requested_reduce_ratio: Optional[float] = None,
    ) -> DropPlan:
        """Select kept tasks under *per-stage* drop ratios.

        This is the DAG-aware entry point: stages of one job may drop at
        different ratios (e.g. slack-biased dropping keeps critical-path
        stages intact and drops more off the critical path).  Stages missing
        from the mappings, and non-droppable stages, keep all their tasks.
        Works on any job exposing ``job_id`` and a ``stages`` sequence —
        linear :class:`~repro.engine.job.Job` and DAG jobs alike.
        """
        stage_reduce_ratios = stage_reduce_ratios or {}
        for label, ratios in (("map", stage_map_ratios), ("reduce", stage_reduce_ratios)):
            for index, ratio in ratios.items():
                if not 0.0 <= ratio < 1.0:
                    raise ValueError(
                        f"{label} drop ratio for stage {index} must be in [0, 1), got {ratio!r}"
                    )

        kept_map: Dict[int, List[int]] = {}
        kept_reduce: Dict[int, List[int]] = {}
        dropped_map = 0
        dropped_reduce = 0
        total_map = 0
        total_reduce = 0
        applied_map_ratios: List[float] = []
        droppable_map_tasks = 0
        droppable_reduce_tasks = 0
        weighted_map = 0.0
        weighted_reduce = 0.0

        for stage in job.stages:
            num_maps = stage.num_map_tasks
            num_reduces = stage.num_reduce_tasks
            total_map += num_maps
            total_reduce += num_reduces
            if stage.droppable:
                stage_map_drop = float(stage_map_ratios.get(stage.index, 0.0))
                stage_reduce_drop = float(stage_reduce_ratios.get(stage.index, 0.0))
                applied_map_ratios.append(stage_map_drop)
                droppable_map_tasks += num_maps
                droppable_reduce_tasks += num_reduces
                weighted_map += stage_map_drop * num_maps
                weighted_reduce += stage_reduce_drop * num_reduces
            else:
                stage_map_drop = 0.0
                stage_reduce_drop = 0.0

            keep_maps = find_missing_partitions(num_maps, stage_map_drop)
            keep_reduces = find_missing_partitions(num_reduces, stage_reduce_drop)
            kept_map[stage.index] = self._select(num_maps, keep_maps)
            kept_reduce[stage.index] = self._select(num_reduces, keep_reduces)
            dropped_map += num_maps - keep_maps
            dropped_reduce += num_reduces - keep_reduces

        if any(ratio > 0 for ratio in applied_map_ratios):
            effective = compose_stage_drop_ratios(applied_map_ratios)
        else:
            effective = 0.0
        if requested_map_ratio is None:
            requested_map_ratio = (
                weighted_map / droppable_map_tasks if droppable_map_tasks else 0.0
            )
        if requested_reduce_ratio is None:
            requested_reduce_ratio = (
                weighted_reduce / droppable_reduce_tasks if droppable_reduce_tasks else 0.0
            )
        return DropPlan(
            job_id=job.job_id,
            map_drop_ratio=requested_map_ratio,
            reduce_drop_ratio=requested_reduce_ratio,
            kept_map_indices=kept_map,
            kept_reduce_indices=kept_reduce,
            dropped_map_tasks=dropped_map,
            dropped_reduce_tasks=dropped_reduce,
            total_map_tasks=total_map,
            total_reduce_tasks=total_reduce,
            effective_drop_ratio=effective,
        )

    def _select(self, total: int, keep: int) -> List[int]:
        """Uniformly select ``keep`` of ``total`` task indices (sorted)."""
        if keep >= total:
            return list(range(total))
        if keep <= 0:
            return []
        chosen = self._rng.choice(total, size=keep, replace=False)
        return sorted(chosen.tolist())
