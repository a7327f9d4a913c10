"""Golden floats of the streaming extra-quantile path (``--quantiles``).

``run_policies(..., quantiles=(0.9, 0.999))`` switches every run to a
streaming collector whose P² estimators track p90 and p99.9 next to the
default p50/p95/p99.  No digest in ``test_golden_runs.py`` covers those
extra estimators, so this test pins the ``repr`` of every p90/p99.9
estimate of the reference two-priority scenario (300 jobs, seed 2) under
P, NP and DA(0/20): the response-time tails overall and per class, and the
per-class queueing and execution tails.  Any change to the P² update, the
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
    ("P", HIGH, "queueing"): ("6.272903731092431", "6.152270967032962"),
    ("P", HIGH, "execution"): ("43.008145897386115", "43.81110020238708"),
    ("P", LOW, "queueing"): ("956.5700786999178", "1214.2770593215052"),
    ("P", LOW, "execution"): ("77.14584159110731", "91.7348468121608"),
    ("NP", None, "response"): ("787.1589073473631", "1007.8053932845781"),
    ("NP", HIGH, "response"): ("105.73391917465963", "105.7433585622691"),
    ("NP", LOW, "response"): ("796.8783453401164", "1007.8103791923114"),
    ("NP", HIGH, "queueing"): ("63.115420313672416", "66.65945486452324"),
    ("NP", HIGH, "execution"): ("43.008145897386115", "43.81110020238708"),
    ("NP", LOW, "queueing"): ("736.1719796748491", "934.6248797887482"),
    ("NP", LOW, "execution"): ("77.14584159110731", "91.7348468121608"),
    ("DA(0/20)", None, "response"): ("498.133282514596", "670.357211011099"),
    ("DA(0/20)", HIGH, "response"): ("85.32127679283361", "85.32127679283361"),
    ("DA(0/20)", LOW, "response"): ("513.3406360843378", "670.225087749754"),
    ("DA(0/20)", HIGH, "queueing"): ("44.02110606775459", "43.79243759956349"),
    ("DA(0/20)", HIGH, "execution"): ("43.008145897386115", "43.81110020238708"),
    ("DA(0/20)", LOW, "queueing"): ("454.34097075381004", "617.4492006286727"),
    ("DA(0/20)", LOW, "execution"): ("65.25699747464917", "80.52185328727967"),
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
    if metric == "response":
        return tuple(repr(metrics.tail_response_time(priority, q)) for q in (90.0, 99.9))
    stats = getattr(metrics._class_state[priority], metric)
    return tuple(repr(stats.quantile(q)) for q in (90.0, 99.9))


def test_every_extra_quantile_estimate_is_pinned(comparison):
    assert comparison.policy_names() == ["P", "NP", "DA(0/20)"]
    assert sorted(comparison.priorities) == sorted((HIGH, LOW))
    assert {key: _estimates(comparison, *key) for key in GOLDEN} == GOLDEN
