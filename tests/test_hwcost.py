"""Tests for the Table 1 hardware-cost model."""

import pytest

from repro.config import GPUConfig
from repro.hwcost import dase_hardware_cost, table1_rows


class TestHardwareCost:
    def test_paper_claim_n4(self):
        """Paper §4.4: with N=4 the per-partition cost is < 0.4 KB, i.e.
        < 0.625% of a 64 KB L2 slice — as the figure table states it."""
        from repro.figure_table import FIGURE_TABLE
        from repro.harness.experiments import table1_hwcost

        res = table1_hwcost()
        assert res.apps == 4
        assert res.cost == dase_hardware_cost(GPUConfig(), n_apps=4)
        for claim in FIGURE_TABLE["table1"].claims:
            assert claim.holds(res.to_dict()), claim.row(res.to_dict())

    def test_only_request_counters_replicate_per_app(self):
        """The detection hardware is time-multiplexed (estimated one by
        one); adding an app only adds one served-request counter."""
        c1 = dase_hardware_cost(GPUConfig(), n_apps=1)
        c4 = dase_hardware_cost(GPUConfig(), n_apps=4)
        assert c4.per_partition_bits - c1.per_partition_bits == 3 * 32

    def test_atd_dominates(self):
        """The sampled ATD is the largest single component (paper §4.4)."""
        cfg = GPUConfig()
        c1 = dase_hardware_cost(cfg, n_apps=1)
        atd_bits = cfg.atd_sample_sets * cfg.l2.assoc * 32
        assert atd_bits > c1.per_partition_bits / 2

    def test_alpha_counter_per_sm(self):
        cost = dase_hardware_cost(GPUConfig(), n_apps=4)
        assert cost.per_sm_bits == 32

    def test_invalid_app_count(self):
        with pytest.raises(ValueError):
            dase_hardware_cost(GPUConfig(), n_apps=0)

    def test_more_sampled_sets_cost_more(self):
        lo = dase_hardware_cost(GPUConfig(atd_sample_sets=4), 4)
        hi = dase_hardware_cost(GPUConfig(atd_sample_sets=16), 4)
        assert hi.per_partition_bits > lo.per_partition_bits

    def test_table_rows_cover_paper_components(self):
        rows = table1_rows(GPUConfig(), 4)
        names = " ".join(r[0] for r in rows)
        for component in ("ERBMiss", "row address", "ATD", "BLP", "α",
                          "Interval", "TBsum"):
            assert component in names
