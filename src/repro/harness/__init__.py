"""Evaluation harness: the paper's matched-instruction methodology
(§5 'Workloads'), one driver per figure/table ('experiments'), and the
process-pool sweep runner with its alone-replay cache ('parallel')."""

from repro.harness.runner import (
    WorkloadResult,
    default_shared_cycles,
    full_scale,
    replay_alone,
    run_workload,
    scaled_config,
)
from repro.harness.checkpoint import SweepCheckpoint, resolve_checkpoint
from repro.harness.parallel import (
    FAIL_CRASH,
    FAIL_EXCEPTION,
    FAIL_TIMEOUT,
    FAIL_TRANSPORT,
    JobOutcome,
    WorkloadJob,
    run_jobs,
    run_workloads,
    set_default_progress,
    set_sweep_defaults,
    sweep_defaults,
    workload_jobs,
)
from repro.harness.replay_cache import AloneReplayCache, resolve_cache

__all__ = [
    "WorkloadResult",
    "run_workload",
    "replay_alone",
    "scaled_config",
    "default_shared_cycles",
    "full_scale",
    "WorkloadJob",
    "JobOutcome",
    "run_jobs",
    "run_workloads",
    "workload_jobs",
    "set_default_progress",
    "set_sweep_defaults",
    "sweep_defaults",
    "FAIL_EXCEPTION",
    "FAIL_CRASH",
    "FAIL_TIMEOUT",
    "FAIL_TRANSPORT",
    "SweepCheckpoint",
    "resolve_checkpoint",
    "AloneReplayCache",
    "resolve_cache",
]
