"""Desk-scale simulator for communication-efficient data-parallel training.

Implements pseudo-asynchronous Local SGD (PALSGD) and its baselines (DDP,
Local SGD, DiLoCo) on deterministic simulated worker clusters, with exact
communication accounting and convergence-theory verification utilities.
"""

from .algorithms import (AlgoVariant, Diagnostics, Schedule, StepRecord,
                         TrainResult, Workers, consensus_probe, ddp_step,
                         make_variant, palsgd_local_step, run_training,
                         sync_round, theory_schedule)
from .cluster import AllReduceModel, ClusterSpec, CommEvent, SimClock, allreduce_time
from .config import ConfigError, RunConfig, load_config, parse_config
from .experiments import gradcheck, run_experiment, sweep, verify_theory
from .optimizers import (InnerOptConfig, InnerOptState, OuterOptConfig,
                         OuterOptState, inner_step, outer_step)
from .vecmath import ParamVector, RngStream, mean_of, row_norms_sq
from .workloads import (Dataset, LogisticWorkload, MlpWorkload,
                        QuadraticWorkload, Shard, Shards,
                        generate_synthetic_classification, shard_dataset)

__all__ = [
    "AlgoVariant", "AllReduceModel", "ClusterSpec", "CommEvent", "ConfigError",
    "Dataset", "Diagnostics", "InnerOptConfig", "InnerOptState",
    "LogisticWorkload", "MlpWorkload", "OuterOptConfig", "OuterOptState",
    "ParamVector", "QuadraticWorkload", "RngStream", "RunConfig", "Schedule",
    "Shard", "Shards", "SimClock", "StepRecord", "TrainResult", "Workers",
    "allreduce_time", "consensus_probe", "ddp_step",
    "generate_synthetic_classification", "gradcheck",
    "inner_step", "load_config", "make_variant", "mean_of",
    "outer_step", "palsgd_local_step", "parse_config",
    "row_norms_sq", "run_experiment", "run_training", "shard_dataset", "sweep", "sync_round",
    "theory_schedule", "verify_theory",
]

__version__ = "0.1.0"
