"""DASE-Fair vs the profile-based oracle (Aguilera et al. [3, 4]).

The paper's §7 argues profile-based policies are impractical (they need
isolated per-kernel profiles, impossible for data-dependent kernels).  In
simulation we *can* build the oracle, so this bench measures how much of
its fairness benefit DASE-Fair captures with zero profiling.
"""

from repro.harness import run_workload, scaled_config
from repro.obs.report import table
from repro.policies import DASEFairPolicy, ProfiledFairPolicy, profile_kernel
from repro.workloads import SUITE

PAIRS = [("SD", "SB"), ("QR", "SB")]


def run_comparison():
    config = scaled_config()
    sm_counts = [4, 8, 12, 16]
    profiles = {}

    def get_profile(name, stream_id):
        key = (name, stream_id)
        if key not in profiles:
            profiles[key] = profile_kernel(
                SUITE[name], config, sm_counts=sm_counts, cycles=30_000,
                stream_id=stream_id,
            )
        return profiles[key]

    out = {}
    for pair in PAIRS:
        key = "+".join(pair)
        even = run_workload(list(pair), config=config, models=())
        fair = run_workload(
            list(pair), config=config, models=(),
            policy=DASEFairPolicy(config),
        )
        oracle_policy = ProfiledFairPolicy(
            config, [get_profile(n, i) for i, n in enumerate(pair)]
        )
        oracle = run_workload(
            list(pair), config=config, models=(), policy=oracle_policy
        )
        out[key] = {
            "even": even.actual_unfairness,
            "dase-fair": fair.actual_unfairness,
            "oracle": oracle.actual_unfairness,
        }
    return out


def test_dase_fair_vs_profiled_oracle(once):
    res = once(run_comparison)
    rows = [
        [k, f"{v['even']:.2f}", f"{v['dase-fair']:.2f}", f"{v['oracle']:.2f}"]
        for k, v in res.items()
    ]
    print()
    print(table(["workload", "even", "DASE-Fair", "profiled oracle"], rows))
    mean = lambda key: sum(v[key] for v in res.values()) / len(res)
    # DASE-Fair must recover most of the oracle's improvement without any
    # profiling.  (The oracle is not strictly optimal: profiles cannot see
    # memory interference, so DASE-Fair may even beat it.)
    assert mean("dase-fair") <= mean("even") + 0.02
    assert mean("dase-fair") <= mean("oracle") * 1.25
