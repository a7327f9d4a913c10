"""Golden floats of the streaming extra-quantile path (``--quantiles``).

``run_policies(..., quantiles=(0.9, 0.999))`` switches every run to a
streaming collector whose response-time P² estimators track p90 and p99.9
next to the default p50/p95/p99 (queueing and execution times keep only the
defaults: no report reads them at other quantiles).  No digest in
``test_golden_runs.py`` covers those extra estimators, so this test pins the
``repr`` of every p90/p99.9 estimate of the reference two-priority scenario
(300 jobs, seed 2) under P, NP and DA(0/20): the response-time tails overall
and per class.  Any change to the P² update, the
order records reach the collector, or the simulation itself moves at least
one float and fails here.  A change that moves them on purpose must say why
in ``CHANGES.md`` and re-record :data:`GOLDEN`.
"""

from __future__ import annotations

import pytest

from repro.core.policies import SchedulingPolicy
from repro.experiments.harness import run_policies
from repro.workloads.scenarios import HIGH, LOW, reference_two_priority_scenario

#: (policy, priority or None for all jobs, metric) -> (repr p90, repr p99.9)
GOLDEN = {
    ("P", None, "response"): ("1007.4441952190864", "1286.7652605648354"),
    ("P", HIGH, "response"): ("46.294318116521396", "47.914125427227916"),
    ("P", LOW, "response"): ("1021.1132379810824", "1286.7746315265417"),
    ("NP", None, "response"): ("787.1589073473631", "1007.8053932845781"),
    ("NP", HIGH, "response"): ("105.73391917465963", "105.7433585622691"),
    ("NP", LOW, "response"): ("796.8783453401164", "1007.8103791923114"),
    ("DA(0/20)", None, "response"): ("498.133282514596", "670.357211011099"),
    ("DA(0/20)", HIGH, "response"): ("85.32127679283361", "85.32127679283361"),
    ("DA(0/20)", LOW, "response"): ("513.3406360843378", "670.225087749754"),
}


@pytest.fixture(scope="module")
def comparison():
    policies = [
        SchedulingPolicy.preemptive_priority(),
        SchedulingPolicy.non_preemptive_priority(),
        SchedulingPolicy.differential_approximation({HIGH: 0.0, LOW: 0.2}),
    ]
    return run_policies(
        reference_two_priority_scenario(), policies, num_jobs=300, seed=2,
        quantiles=(0.9, 0.999),
    )


def _estimates(comparison, policy, priority, metric):
    metrics = comparison.result(policy).metrics
    return tuple(repr(metrics.tail_response_time(priority, q)) for q in (90.0, 99.9))


def test_every_extra_quantile_estimate_is_pinned(comparison):
    assert comparison.policy_names() == ["P", "NP", "DA(0/20)"]
    assert sorted(comparison.priorities) == sorted((HIGH, LOW))
    assert {key: _estimates(comparison, *key) for key in GOLDEN} == GOLDEN


def test_only_response_times_track_the_extra_quantiles(comparison):
    state = comparison.result("DA(0/20)").metrics._class_state[LOW]
    assert state.response.tracked_quantiles == (0.5, 0.9, 0.95, 0.99, 0.999)
    assert state.queueing.tracked_quantiles == (0.5, 0.95, 0.99)
    assert state.execution.tracked_quantiles == (0.5, 0.95, 0.99)
