"""Spark-like processing-engine substrate.

The paper evaluates DiAS on a Spark v2.1 cluster (one master, ten workers with
two cores each, HDFS storage).  This subpackage models that substrate:

* :mod:`repro.engine.hdfs` — a block store that splits datasets into blocks and
  RDD partitions (and therefore map tasks).
* :mod:`repro.engine.profiles` — per-priority-class job profiles (size, task
  time, overhead, shuffle) plus task-duration distributions.
* :mod:`repro.engine.job` — stage/job descriptions and the job factory that
  samples concrete jobs from a profile.
* :mod:`repro.engine.cluster` — the cluster (computing slots + DVFS state).
* :mod:`repro.engine.dvfs` — the frequency/speedup model for sprinting.
* :mod:`repro.engine.energy` — the power model and energy meter.
* :mod:`repro.engine.execution` — the attempt lifecycle every execution
  shares (mid-flight speed changes, eviction, fault recovery) and the
  wave-based execution of a MapReduce job on the cluster slots inside the
  discrete-event simulator.
"""

from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.dvfs import DVFSModel, FrequencyLevel
from repro.engine.energy import EnergyMeter, PowerModel
from repro.engine.execution import Execution, JobExecution
from repro.engine.hdfs import BlockStore, Dataset
from repro.engine.job import Job, JobFactory, StageSpec
from repro.engine.profiles import JobClassProfile, TaskTimeModel

__all__ = [
    "Cluster",
    "ClusterConfig",
    "DVFSModel",
    "FrequencyLevel",
    "EnergyMeter",
    "PowerModel",
    "Execution",
    "JobExecution",
    "BlockStore",
    "Dataset",
    "Job",
    "JobFactory",
    "StageSpec",
    "JobClassProfile",
    "TaskTimeModel",
]
