"""Fig. 2 — unfairness of two-app combos + DRAM bandwidth decomposition."""

from repro.harness.experiments import fig2_unfairness
from repro.harness.persist import save_result
from repro.harness.report import render_fig2


def test_fig2_unfairness_and_bandwidth(once, store_record):
    res = once(fig2_unfairness)
    save_result("fig2_unfairness", res)
    store_record("fig2", res.to_dict())
    print()
    print(render_fig2(res))

    # Shape assertions against the paper's motivation claims:
    # 1. pairing SD with a bandwidth hog is severely unfair (paper: 2.51).
    assert res.unfairness["SD+SB"] > 1.8
    # 2. the SD slowdown exceeds the partner's in the unfair combos.
    sd, partner = res.slowdowns["SD+SB"]
    assert sd > partner
    # 3. SD's shared-run bandwidth share collapses relative to running alone
    #    (paper: 13% shared vs 40.5% alone).
    assert res.breakdown["SD+SB"]["SD"] < res.sd_alone_bw * 0.6
    # 4. decompositions are proper fractions.
    for bd in res.breakdown.values():
        assert abs(sum(bd.values()) - 1.0) < 1e-6
