"""SM allocation policies: the even baseline, the paper's DASE-Fair, and
the DASE-QoS extension (the paper's stated future work)."""

from repro.policies.profiled import ProfiledFairPolicy, profile_kernel
from repro.policies.qos import DASEQoSPolicy
from repro.policies.temporal import TimeSlicePolicy, leftover_partition
from repro.policies.sm_alloc import (
    AllocationPolicy,
    DASEFairPolicy,
    EvenPolicy,
    best_partition,
    interpolate_reciprocal,
)

__all__ = [
    "AllocationPolicy",
    "EvenPolicy",
    "DASEFairPolicy",
    "DASEQoSPolicy",
    "ProfiledFairPolicy",
    "profile_kernel",
    "TimeSlicePolicy",
    "leftover_partition",
    "best_partition",
    "interpolate_reciprocal",
]
