"""The streaming arrival pump: a ``job_source`` run equals the batch run.

Fleet and DAG simulations accept either a whole trace (``jobs=``, every
arrival scheduled up front) or a lazy ``job_source`` fed through
:class:`~repro.simulation.des.ArrivalPump` one arrival at a time.  Both must
produce the same per-job records and the same telemetry, kernel samples
aside: the kernel's pending-event count legitimately differs (a streaming run
holds one pending arrival where a batch run holds all of them).

The trace has two arrivals at the same instant, so the pump must keep trace
order at equal timestamps, and an idle gap before the last arrival, so a pump
that reports the end of the source too early lets the run drain (stopping its
sampler and fault injector) before the last job arrives.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.policies import SchedulingPolicy
from repro.dag.simulation import DagSimulation
from repro.fleet.simulation import FleetSimulation
from repro.simulation.des import ArrivalPump, Simulator
from repro.telemetry import RingBufferSink, TelemetryHub
from repro.workloads.scenarios import (
    HIGH,
    LOW,
    dag_layered_scenario,
    reference_two_priority_scenario,
)

_FAULTS = "crash:mttf=3000,repair=60;taskfail:p=0.05,retries=1"


def _tie_and_gap(trace):
    """Tie the second arrival to the first; idle for a long gap before the last."""
    trace = sorted(trace, key=lambda job: job.arrival_time)
    trace[1] = replace(trace[1], arrival_time=trace[0].arrival_time)
    trace[-1] = replace(trace[-1], arrival_time=trace[-2].arrival_time + 50_000.0)
    return trace


def _fleet(trace, hub, streaming: bool) -> FleetSimulation:
    return FleetSimulation(
        policy=SchedulingPolicy.preemptive_priority(),
        jobs=() if streaming else trace,
        job_source=iter(trace) if streaming else None,
        num_clusters=2,
        dispatcher="jsq",
        seed=3,
        telemetry=hub,
        faults=_FAULTS,
    )


def _dag(trace, hub, streaming: bool) -> DagSimulation:
    return DagSimulation(
        policy=SchedulingPolicy.preemptive_priority(),
        jobs=() if streaming else trace,
        job_source=iter(trace) if streaming else None,
        scheduler="critical_path_first",
        seed=3,
        telemetry=hub,
        faults=_FAULTS,
    )


CASES = {
    "fleet": (_fleet, lambda: reference_two_priority_scenario(num_jobs=30).generate_trace(seed=3)),
    "dag": (_dag, lambda: dag_layered_scenario(num_jobs=16).generate_trace(seed=3)),
}


def _records(result):
    results = getattr(result, "cluster_results", [result])
    return [record for one in results for record in one.metrics.records]


def _run(case: str, streaming: bool):
    build, make_trace = CASES[case]
    hub = TelemetryHub(sample_interval=25.0, tracing=True)
    sink = hub.add_sink(RingBufferSink(capacity=1 << 20))
    result = build(_tie_and_gap(make_trace()), hub, streaming).run()
    hub.close()
    events = [event for event in sink.events if event["src"] != "kernel"]
    return result, events


@pytest.mark.parametrize("case", sorted(CASES))
def test_streaming_source_matches_batch_trace(case):
    batch, batch_events = _run(case, streaming=False)
    stream, stream_events = _run(case, streaming=True)
    trace = _tie_and_gap(CASES[case][1]())
    assert trace[0].arrival_time == trace[1].arrival_time
    assert {job.priority for job in trace} >= {HIGH, LOW}
    assert stream.duration == batch.duration
    assert _records(stream) == _records(batch)
    assert len(_records(batch)) == len(trace)
    # The last job arrives after everything else drained: the sampler kept
    # ticking through the gap in both runs.
    last_arrival = trace[-1].arrival_time
    assert any(
        e["kind"] == "sample" and e["t"] > last_arrival for e in stream_events
    )
    assert stream_events == batch_events


class _Item:
    def __init__(self, name: str, arrival_time: float) -> None:
        self.name = name
        self.arrival_time = arrival_time


def _pumped_sequence(items, streaming: bool):
    """What a deliver callback sees, with one zero-delay follow-up per item."""
    sim = Simulator()
    seen = []

    def deliver(item) -> None:
        seen.append(("deliver", item.name, sim.now))
        sim.schedule(0.0, lambda _sim: seen.append(("after", item.name, sim.now)))

    if streaming:
        ArrivalPump(
            sim, iter(items), deliver,
            on_exhausted=lambda total: seen.append(("exhausted", total, sim.now)),
        ).start()
        assert sim.pending_events == 1
    else:
        for item in items:
            sim.schedule_at(item.arrival_time, lambda _sim, item=item: deliver(item))
    sim.run()
    return seen


def test_pump_keeps_batch_order_at_equal_timestamps():
    # The successor is scheduled before the current item is delivered, so
    # B (tied with A) still fires before the follow-up A's delivery schedules.
    items = [_Item("A", 0.0), _Item("B", 0.0), _Item("C", 5.0)]
    streamed = _pumped_sequence(items, streaming=True)
    assert streamed == [
        ("deliver", "A", 0.0),
        ("deliver", "B", 0.0),
        ("after", "A", 0.0),
        ("after", "B", 0.0),
        ("exhausted", 3, 5.0),
        ("deliver", "C", 5.0),
        ("after", "C", 5.0),
    ]
    batch = _pumped_sequence(items, streaming=False)
    assert [step for step in streamed if step[0] != "exhausted"] == batch


def test_pump_rejects_an_empty_source():
    pump = ArrivalPump(Simulator(), iter(()), deliver=print, on_exhausted=print)
    with pytest.raises(ValueError, match="yielded no jobs"):
        pump.start()
