"""Canonical experimental scenarios of the paper's evaluation (§5).

A :class:`Scenario` bundles everything needed to regenerate one experiment:
the per-priority job profiles, the calibrated arrival rates, the cluster, and
the trace length.  The factory functions mirror the setups of §5:

* :func:`reference_two_priority_scenario` — the Fig. 7 reference setup
  (low:high arrivals 9:1, sizes 1117 MB vs 473 MB, 80 % load).
* :func:`equal_job_sizes_scenario` — Fig. 8a (both classes 473 MB).
* :func:`more_high_priority_scenario` — Fig. 8b (arrival ratio inverted, 1:9).
* :func:`low_load_scenario` — Fig. 8c (50 % load).
* :func:`three_priority_scenario` — Fig. 9 (high-medium-low rate ratio 1-4-5).
* :func:`triangle_count_scenario` — Fig. 10 / Fig. 11 / Table 2 (multi-stage
  graph jobs, high:low = 3:7, equal sizes).
* :func:`validation_datasets_scenario` — the §4.3 validation datasets
  (Fig. 4 / Fig. 5).
* :func:`sprinting_scenario` — the full-DiAS sprinting setup of §5.3.

Beyond the paper, :class:`FleetScenario` scales a single-cluster scenario to
``N`` clusters behind a dispatcher: per-class arrival rates are multiplied by
the fleet size so each member still sees the base scenario's load when
traffic is spread evenly.  :func:`fleet_two_priority_scenario` and
:func:`fleet_three_priority_scenario` are the canonical fleet setups used by
the routing benchmark and the ``repro fleet`` CLI command.

:class:`DagScenario` extends the workload model to stage-DAG jobs (the
``repro dag`` CLI command and the stage-scheduler benchmark):

* :func:`dag_layered_scenario` — random layered query-plan DAGs in two
  priority classes, the canonical setup for comparing stage schedulers;
* :func:`dag_fork_join_scenario` — SQL-style fork-join plans (source scan,
  parallel branch chains, non-droppable join sink);
* :func:`dag_triangle_count_scenario` — the GraphX triangle count as a DAG
  (six ShuffleMap stages plus a non-droppable Result stage); dropping the
  result stage reduces it to today's linear chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional

from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.job import Job
from repro.engine.profiles import JobClassProfile
from repro.simulation.random_streams import RandomStreams
from repro.workloads.arrivals import calibrate_arrival_rates
from repro.workloads.jobs import generate_job_trace

#: Priorities used throughout (higher value = higher priority).
LOW, MEDIUM, HIGH = 0, 1, 2

#: The paper's reference dataset sizes (§4.3, §5.2.1).
LOW_PRIORITY_SIZE_MB = 1117.0
HIGH_PRIORITY_SIZE_MB = 473.0


def default_cluster() -> Cluster:
    """The paper's cluster: ten workers with two cores each (20 slots)."""
    return Cluster(ClusterConfig(workers=10, cores_per_worker=2))


def text_profile(
    priority: int,
    name: str,
    mean_size_mb: float,
    max_accuracy_loss: float,
    partitions: int = 50,
) -> JobClassProfile:
    """A text-analysis job class (StackExchange word-popularity analysis)."""
    return JobClassProfile(
        priority=priority,
        name=name,
        mean_size_mb=mean_size_mb,
        size_cv=0.25,
        partitions=partitions,
        reduce_tasks=10,
        map_time_per_100mb=60.0,
        reduce_time=4.0,
        setup_time_full=12.0,
        setup_time_min=6.0,
        shuffle_time=3.0,
        task_scv=0.05,
        num_stages=1,
        max_accuracy_loss=max_accuracy_loss,
    )


def graph_profile(
    priority: int,
    name: str,
    mean_size_mb: float = 400.0,
    max_accuracy_loss: float = 0.15,
    num_stages: int = 6,
) -> JobClassProfile:
    """A graph-analysis job class (GraphX-style triangle count, §5.1).

    The triangle count is composed of six ShuffleMap stages and one Result
    stage; here each of the six stages is a (map, shuffle, reduce) round on 20
    partitions.
    """
    return JobClassProfile(
        priority=priority,
        name=name,
        mean_size_mb=mean_size_mb,
        size_cv=0.15,
        partitions=20,
        reduce_tasks=5,
        map_time_per_100mb=90.0,
        reduce_time=2.0,
        setup_time_full=15.0,
        setup_time_min=8.0,
        shuffle_time=2.0,
        task_scv=0.05,
        num_stages=num_stages,
        max_accuracy_loss=max_accuracy_loss,
    )


@dataclass
class Scenario:
    """A complete experimental configuration.

    ``arrival_rates`` is derived, not passed: ``__post_init__`` calibrates it
    from the profiles, class ratio, cluster and target load, so a copy made
    with :func:`dataclasses.replace` (say, at another ``target_utilisation``)
    carries rates for its own load.
    """

    name: str
    description: str
    profiles: Dict[int, JobClassProfile]
    class_ratio: Dict[int, float]
    target_utilisation: float
    num_jobs: int = 400
    cluster: Cluster = field(default_factory=default_cluster)
    arrival_rates: Dict[int, float] = field(init=False)

    def __post_init__(self) -> None:
        self.arrival_rates = calibrate_arrival_rates(
            self.profiles,
            self.class_ratio,
            slots=self.cluster.slots,
            target_utilisation=self.target_utilisation,
        )

    # --------------------------------------------------------------- helpers
    @property
    def priorities(self) -> List[int]:
        return sorted(self.profiles, reverse=True)

    @property
    def highest_priority(self) -> int:
        return self.priorities[0]

    @property
    def lowest_priority(self) -> int:
        return self.priorities[-1]

    def total_arrival_rate(self) -> float:
        return sum(self.arrival_rates.values())

    def generate_trace(self, seed: int = 0, num_jobs: Optional[int] = None) -> List[Job]:
        """Sample one job trace for this scenario."""
        return generate_job_trace(
            self.profiles,
            self.arrival_rates,
            num_jobs=num_jobs if num_jobs is not None else self.num_jobs,
            streams=RandomStreams(seed),
        )

    def with_utilisation(self, target_utilisation: float, name: Optional[str] = None) -> "Scenario":
        """Copy of this scenario re-calibrated for a different load."""
        return replace(
            self,
            name=name or f"{self.name}-util{target_utilisation:.0%}",
            profiles=dict(self.profiles),
            class_ratio=dict(self.class_ratio),
            target_utilisation=target_utilisation,
        )


# ---------------------------------------------------------------------------
# Two-priority text scenarios (Fig. 7 and Fig. 8)
# ---------------------------------------------------------------------------
def reference_two_priority_scenario(num_jobs: int = 400) -> Scenario:
    """Fig. 7: low:high = 9:1, sizes 1117/473 MB, 80 % load."""
    profiles = {
        HIGH: text_profile(HIGH, "high", HIGH_PRIORITY_SIZE_MB, max_accuracy_loss=0.0),
        LOW: text_profile(LOW, "low", LOW_PRIORITY_SIZE_MB, max_accuracy_loss=0.32),
    }
    return Scenario(
        name="reference-two-priority",
        description="Reference setup: 9:1 low:high arrivals, 1117/473 MB, 80% load",
        profiles=profiles,
        class_ratio={LOW: 9.0, HIGH: 1.0},
        target_utilisation=0.8,
        num_jobs=num_jobs,
    )


def equal_job_sizes_scenario(num_jobs: int = 400) -> Scenario:
    """Fig. 8a: both classes use the 473 MB dataset profile."""
    profiles = {
        HIGH: text_profile(HIGH, "high", HIGH_PRIORITY_SIZE_MB, max_accuracy_loss=0.0),
        LOW: text_profile(LOW, "low", HIGH_PRIORITY_SIZE_MB, max_accuracy_loss=0.32),
    }
    return Scenario(
        name="equal-job-sizes",
        description="Sensitivity: equal job sizes for both priorities",
        profiles=profiles,
        class_ratio={LOW: 9.0, HIGH: 1.0},
        target_utilisation=0.8,
        num_jobs=num_jobs,
    )


def more_high_priority_scenario(num_jobs: int = 400) -> Scenario:
    """Fig. 8b: the arrival ratio is inverted (low:high = 1:9)."""
    profiles = {
        HIGH: text_profile(HIGH, "high", HIGH_PRIORITY_SIZE_MB, max_accuracy_loss=0.0),
        LOW: text_profile(LOW, "low", LOW_PRIORITY_SIZE_MB, max_accuracy_loss=0.32),
    }
    return Scenario(
        name="more-high-priority",
        description="Sensitivity: 1:9 low:high arrival ratio",
        profiles=profiles,
        class_ratio={LOW: 1.0, HIGH: 9.0},
        target_utilisation=0.8,
        num_jobs=num_jobs,
    )


def low_load_scenario(num_jobs: int = 400) -> Scenario:
    """Fig. 8c: the reference setup at 50 % system load."""
    return reference_two_priority_scenario(num_jobs).with_utilisation(0.5, name="low-load")


# ---------------------------------------------------------------------------
# Three-priority scenario (Fig. 9)
# ---------------------------------------------------------------------------
def three_priority_scenario(num_jobs: int = 500) -> Scenario:
    """Fig. 9: high-medium-low arrival ratio 1-4-5 at roughly 80 % load."""
    profiles = {
        HIGH: text_profile(HIGH, "high", HIGH_PRIORITY_SIZE_MB, max_accuracy_loss=0.0),
        MEDIUM: text_profile(MEDIUM, "medium", 800.0, max_accuracy_loss=0.15),
        LOW: text_profile(LOW, "low", LOW_PRIORITY_SIZE_MB, max_accuracy_loss=0.32),
    }
    return Scenario(
        name="three-priority",
        description="Three priorities, rate ratio high-medium-low 1-4-5, ~80% load",
        profiles=profiles,
        class_ratio={HIGH: 1.0, MEDIUM: 4.0, LOW: 5.0},
        target_utilisation=0.8,
        num_jobs=num_jobs,
    )


# ---------------------------------------------------------------------------
# Graph scenarios (Fig. 10, Fig. 11, Table 2)
# ---------------------------------------------------------------------------
def triangle_count_scenario(num_jobs: int = 300) -> Scenario:
    """Fig. 10 / Fig. 11 / Table 2: multi-stage graph jobs, high:low = 3:7."""
    profiles = {
        HIGH: graph_profile(HIGH, "high", max_accuracy_loss=0.0),
        LOW: graph_profile(LOW, "low", max_accuracy_loss=0.32),
    }
    return Scenario(
        name="triangle-count",
        description="Graph analytics (triangle count), equal sizes, 3:7 high:low, 80% load",
        profiles=profiles,
        class_ratio={HIGH: 3.0, LOW: 7.0},
        target_utilisation=0.8,
        num_jobs=num_jobs,
    )


def sprinting_scenario(num_jobs: int = 300) -> Scenario:
    """Alias of the triangle-count scenario — the §5.3 sprinting experiments use it."""
    scenario = triangle_count_scenario(num_jobs)
    return replace(scenario, name="dias-sprinting",
                   description="Full DiAS: approximation + sprinting on graph analytics")


# ---------------------------------------------------------------------------
# Fleet scenarios (multi-cluster deployments behind a dispatcher)
# ---------------------------------------------------------------------------
@dataclass
class FleetScenario:
    """A single-cluster scenario scaled out to a fleet of clusters.

    The fleet serves ``num_clusters`` times the base scenario's traffic: the
    per-class arrival rates are multiplied by the fleet size, so a perfectly
    balanced dispatcher reproduces the base load on every member.  Traces are
    generated fleet-wide (default ``base.num_jobs × num_clusters`` jobs) and
    routed at simulation time by the dispatcher under test.
    """

    base: Scenario
    num_clusters: int
    name: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ValueError("a fleet needs at least one cluster")
        if not self.name:
            self.name = f"fleet-{self.base.name}-x{self.num_clusters}"
        if not self.description:
            self.description = (
                f"{self.num_clusters} clusters, each at the load of: "
                f"{self.base.description}"
            )

    # --------------------------------------------------------------- helpers
    @property
    def profiles(self) -> Dict[int, JobClassProfile]:
        return self.base.profiles

    @property
    def priorities(self) -> List[int]:
        return self.base.priorities

    @property
    def class_ratio(self) -> Dict[int, float]:
        return self.base.class_ratio

    @property
    def num_jobs(self) -> int:
        return self.base.num_jobs * self.num_clusters

    @property
    def arrival_rates(self) -> Dict[int, float]:
        """Fleet-wide arrival rates: the base rates times the fleet size."""
        return {
            priority: rate * self.num_clusters
            for priority, rate in self.base.arrival_rates.items()
        }

    def total_arrival_rate(self) -> float:
        return sum(self.arrival_rates.values())

    def generate_trace(self, seed: int = 0, num_jobs: Optional[int] = None) -> List[Job]:
        """Sample one fleet-wide job trace."""
        return generate_job_trace(
            self.profiles,
            self.arrival_rates,
            num_jobs=num_jobs if num_jobs is not None else self.num_jobs,
            streams=RandomStreams(seed),
        )

    def make_clusters(self) -> List[Cluster]:
        """Fresh cluster substrates, one per fleet member."""
        template = self.base.cluster
        return [
            Cluster(
                config=template.config,
                dvfs=template.dvfs,
                power_model=template.power_model,
            )
            for _ in range(self.num_clusters)
        ]


def fleet_two_priority_scenario(
    num_clusters: int = 4, num_jobs_per_cluster: int = 200
) -> FleetScenario:
    """The Fig. 7 reference workload served by a fleet of clusters."""
    return FleetScenario(
        base=reference_two_priority_scenario(num_jobs=num_jobs_per_cluster),
        num_clusters=num_clusters,
    )


def fleet_three_priority_scenario(
    num_clusters: int = 4, num_jobs_per_cluster: int = 200
) -> FleetScenario:
    """The Fig. 9 three-priority workload served by a fleet of clusters."""
    return FleetScenario(
        base=three_priority_scenario(num_jobs=num_jobs_per_cluster),
        num_clusters=num_clusters,
    )


# ---------------------------------------------------------------------------
# DAG scenarios (stage-dependency jobs; the `repro dag` command)
# ---------------------------------------------------------------------------
@dataclass
class DagScenario:
    """An experimental configuration over stage-DAG jobs.

    ``profiles`` double as calibration inputs: their ``num_stages`` and
    ``partitions`` fields should approximate the expected DAG shape (stage
    count and mean tasks per stage) so
    :func:`~repro.workloads.arrivals.calibrate_arrival_rates` targets the
    right sequential load.  ``topologies`` maps each priority to a topology
    family of :mod:`repro.workloads.dag`, with optional per-class
    ``topology_params``.  As on :class:`Scenario`, ``arrival_rates`` is
    derived in ``__post_init__``, so a :func:`dataclasses.replace` copy is
    re-calibrated.
    """

    name: str
    description: str
    profiles: Dict[int, JobClassProfile]
    class_ratio: Dict[int, float]
    target_utilisation: float
    topologies: Dict[int, str]
    topology_params: Dict[int, Dict] = field(default_factory=dict)
    num_jobs: int = 200
    cluster: Cluster = field(default_factory=default_cluster)
    arrival_rates: Dict[int, float] = field(init=False)

    def __post_init__(self) -> None:
        if set(self.topologies) != set(self.profiles):
            raise ValueError("topologies must cover exactly the profile priorities")
        self.arrival_rates = calibrate_arrival_rates(
            self.profiles,
            self.class_ratio,
            slots=self.cluster.slots,
            target_utilisation=self.target_utilisation,
        )

    # --------------------------------------------------------------- helpers
    @property
    def priorities(self) -> List[int]:
        return sorted(self.profiles, reverse=True)

    def total_arrival_rate(self) -> float:
        return sum(self.arrival_rates.values())

    def generate_trace(self, seed: int = 0, num_jobs: Optional[int] = None):
        """Sample one DAG-job trace for this scenario.

        Trace generation is independent of the stage scheduler under test, so
        every scheduler sees an identical (common-random-numbers) sequence.
        """
        from repro.workloads.dag import generate_dag_trace

        return generate_dag_trace(
            self.profiles,
            self.arrival_rates,
            self.topologies,
            num_jobs=num_jobs if num_jobs is not None else self.num_jobs,
            streams=RandomStreams(seed),
            topology_params=self.topology_params,
        )


def dag_layered_scenario(num_jobs: int = 200) -> DagScenario:
    """Random layered query-plan DAGs, two priorities, ~80 % sequential load.

    Each job is a 4-layer DAG of 2–4 stages per layer with 4–24 map tasks per
    stage — wide enough that ready stages compete for the 20 slots, which is
    what separates the stage schedulers.
    """
    # Calibration view: ~12 stages of ~14 map tasks each.
    base = text_profile(HIGH, "high", HIGH_PRIORITY_SIZE_MB, max_accuracy_loss=0.0)
    profiles = {
        HIGH: replace(base, num_stages=12, partitions=14, reduce_tasks=4),
        LOW: replace(
            text_profile(LOW, "low", LOW_PRIORITY_SIZE_MB, max_accuracy_loss=0.32),
            num_stages=12,
            partitions=14,
            reduce_tasks=4,
        ),
    }
    params = {"num_layers": 4, "min_width": 2, "max_width": 4, "min_tasks": 4, "max_tasks": 24}
    return DagScenario(
        name="dag-layered",
        description="Random layered stage DAGs (query plans), 9:1 low:high, ~80% load",
        profiles=profiles,
        class_ratio={LOW: 9.0, HIGH: 1.0},
        target_utilisation=0.8,
        topologies={HIGH: "layered", LOW: "layered"},
        topology_params={HIGH: dict(params), LOW: dict(params)},
        num_jobs=num_jobs,
    )


def dag_fork_join_scenario(num_jobs: int = 200) -> DagScenario:
    """Fork-join query plans: scan → 4 parallel branch chains → join sink."""
    base = text_profile(HIGH, "high", HIGH_PRIORITY_SIZE_MB, max_accuracy_loss=0.0)
    profiles = {
        # 1 + 4×2 + 1 = 10 stages; branches carry partitions/branches tasks.
        HIGH: replace(base, num_stages=10, partitions=24, reduce_tasks=4),
        LOW: replace(
            text_profile(LOW, "low", LOW_PRIORITY_SIZE_MB, max_accuracy_loss=0.32),
            num_stages=10,
            partitions=24,
            reduce_tasks=4,
        ),
    }
    params = {"branches": 4, "branch_length": 2}
    return DagScenario(
        name="dag-fork-join",
        description="Fork-join query plans (scan, 4 branches, join), 9:1 low:high",
        profiles=profiles,
        class_ratio={LOW: 9.0, HIGH: 1.0},
        target_utilisation=0.8,
        topologies={HIGH: "fork_join", LOW: "fork_join"},
        topology_params={HIGH: dict(params), LOW: dict(params)},
        num_jobs=num_jobs,
    )


def dag_triangle_count_scenario(num_jobs: int = 200) -> DagScenario:
    """The GraphX triangle count as a stage DAG (chain + Result stage)."""
    profiles = {
        HIGH: graph_profile(HIGH, "high", max_accuracy_loss=0.0),
        LOW: graph_profile(LOW, "low", max_accuracy_loss=0.32),
    }
    return DagScenario(
        name="dag-triangle-count",
        description="Triangle-count DAGs (6 ShuffleMap stages + Result), 3:7 high:low",
        profiles=profiles,
        class_ratio={HIGH: 3.0, LOW: 7.0},
        target_utilisation=0.8,
        topologies={HIGH: "triangle_count", LOW: "triangle_count"},
        num_jobs=num_jobs,
    )


# ---------------------------------------------------------------------------
# Model-validation scenario (Fig. 4 / Fig. 5)
# ---------------------------------------------------------------------------
def validation_datasets_scenario(num_jobs: int = 400) -> Scenario:
    """§4.3 validation: two datasets processed by the two priority classes.

    The paper validates the processing-time model on two datasets (labelled
    126 and 147 in Fig. 4) and the response-time model on the reference
    setup's sizes at 80 % load; this scenario provides both class profiles.
    """
    profiles = {
        HIGH: text_profile(HIGH, "dataset-473MB", HIGH_PRIORITY_SIZE_MB, max_accuracy_loss=0.0),
        LOW: text_profile(LOW, "dataset-1117MB", LOW_PRIORITY_SIZE_MB, max_accuracy_loss=0.32),
    }
    return Scenario(
        name="model-validation",
        description="Model validation datasets (Fig. 4/5): 473 MB and 1117 MB classes",
        profiles=profiles,
        class_ratio={LOW: 9.0, HIGH: 1.0},
        target_utilisation=0.8,
        num_jobs=num_jobs,
    )
