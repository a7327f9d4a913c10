"""Cobham's formula as an oracle for the simulated ``NP`` queue.

A DiAS cluster under non-preemptive priority (``NP``) runs one job at a time
on all its slots, with no dropping, sprinting or eviction: it is an M/G/1
non-preemptive priority queue.  Cobham's mean waiting time per class, fed
the run's own arrival rates and service-time moments, must then fall inside
a 95 % batch-means confidence interval of the class's simulated mean
``queueing_time``.

The seeds, the run length and the tolerance (the 95 % interval of 20
batches, in arrival order) are fixed here, not tuned to the results.  A
dispatcher that served jobs in arrival order instead of by priority fails:
the high class would wait as long as the low one.
"""

from __future__ import annotations

import math
from statistics import fmean, stdev

import pytest

from repro.core.dias import run_policy
from repro.core.policies import SchedulingPolicy
from repro.models.mg1 import ServiceMoments, nonpreemptive_priority_waiting_times
from repro.workloads.scenarios import reference_two_priority_scenario

SEEDS = range(5)
NUM_JOBS = 5000
LOAD = 0.5
BATCHES = 20
#: Two-sided 95 % Student t quantile with ``BATCHES - 1`` degrees of freedom.
T_975_19 = 2.093


def _batch_means_interval(values):
    """95 % batch-means interval of the mean of ``values`` (in order)."""
    size = len(values) // BATCHES
    means = [fmean(values[b * size:(b + 1) * size]) for b in range(BATCHES)]
    centre = fmean(means)
    half = T_975_19 * stdev(means) / math.sqrt(BATCHES)
    return centre - half, centre + half


@pytest.mark.parametrize("seed", SEEDS)
def test_np_class_waits_match_cobham(seed):
    # ``with_utilisation`` recomputes the arrival rates for the new load.
    scenario = reference_two_priority_scenario().with_utilisation(LOAD)
    jobs = scenario.generate_trace(seed=seed, num_jobs=NUM_JOBS)
    result = run_policy(
        SchedulingPolicy.non_preemptive_priority(), jobs,
        cluster=scenario.cluster, seed=seed,
    )
    records = sorted(result.metrics.records, key=lambda r: r.arrival_time)
    assert len(records) == NUM_JOBS
    assert all(record.evictions == 0 for record in records)
    horizon = records[-1].arrival_time
    by_class = {}
    for record in records:
        by_class.setdefault(record.priority, []).append(record)
    assert len(by_class) == 2
    rates = {k: len(rs) / horizon for k, rs in by_class.items()}
    services = {
        k: ServiceMoments(
            mean=fmean(r.execution_time for r in rs),
            second_moment=fmean(r.execution_time ** 2 for r in rs),
        )
        for k, rs in by_class.items()
    }
    expected = nonpreemptive_priority_waiting_times(rates, services)
    for k, rs in by_class.items():
        low, high = _batch_means_interval([r.queueing_time for r in rs])
        assert low <= expected[k] <= high, (k, expected[k], (low, high))
