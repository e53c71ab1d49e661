"""Calibration contract for the synthetic suite (paper Table 3).

These tests are slower than the unit tests (each runs the simulator for
tens of thousands of cycles) but pin the property everything else depends
on: each synthetic application's alone bandwidth matches its real
counterpart and the qualitative roles (aggressor / victim / compute-bound)
are preserved.
"""

import pytest

from repro.figure_table import FIGURE_TABLE
from repro.workloads import (
    ALL_APPS,
    APP_NAMES,
    SUITE,
    TABLE3_BW_UTILIZATION,
    app,
    four_app_workloads,
    two_app_workloads,
)


@pytest.fixture(scope="module")
def alone_measurements(table3_run):
    """Per app, from the one Table 3 measurement (tests/conftest.py)."""
    res = table3_run.result
    return {
        name: {"bw": res.measured[name], "alpha": res.alpha[name],
               "ipc": res.ipc[name]}
        for name in SUITE
    }


class TestSuiteStructure:
    def test_fifteen_apps(self):
        assert len(SUITE) == 15
        assert len(ALL_APPS) == 15

    def test_names_match_paper_abbreviations(self):
        assert set(APP_NAMES) == set(TABLE3_BW_UTILIZATION)

    def test_lookup(self):
        assert app("SD").name == "SD"
        with pytest.raises(KeyError):
            app("nonexistent")

    def test_two_app_combinations(self):
        pairs = two_app_workloads()
        assert len(pairs) == 105  # C(15, 2) — "all possible" in the paper
        assert len(set(pairs)) == 105

    def test_four_app_workloads_deterministic(self):
        a = four_app_workloads(30)
        b = four_app_workloads(30)
        assert a == b
        assert len(set(a)) == 30

    def test_four_app_workloads_distinct_apps(self):
        for combo in four_app_workloads(30):
            assert len(set(combo)) == 4

    def test_four_app_count_limit(self):
        with pytest.raises(ValueError):
            four_app_workloads(10**6)


@pytest.mark.slow
class TestCalibration:
    @pytest.mark.parametrize("name", APP_NAMES)
    def test_alone_bandwidth_matches_table3(self, alone_measurements, name):
        # The tolerance is the Table 3 claim's, not a second literal.
        tolerance = FIGURE_TABLE["table3"].claim("within-2pp").bound
        measured = alone_measurements[name]["bw"]
        target = TABLE3_BW_UTILIZATION[name]
        assert abs(measured - target) < tolerance, (
            f"{name}: measured {measured:.3f} vs Table 3 {target:.2f}"
        )

    def test_sb_is_the_bandwidth_hog(self, alone_measurements):
        assert alone_measurements["SB"]["bw"] == max(
            m["bw"] for m in alone_measurements.values()
        )
        assert alone_measurements["SB"]["alpha"] > 0.5  # truly bandwidth-bound

    def test_qr_is_compute_bound(self, alone_measurements):
        # Small residual α comes from reply-port convoys (synchronized
        # warps all blocking at once), not from DRAM pressure.
        assert alone_measurements["QR"]["alpha"] < 0.15
        assert alone_measurements["QR"]["ipc"] > 12

    def test_demand_limited_apps_run_near_peak_ipc_alone(self, alone_measurements):
        for name in ("QR", "CT", "SN", "SD"):
            assert alone_measurements[name]["ipc"] > 10, name

    def test_memory_bound_apps_stall_alone(self, alone_measurements):
        """The overcommitted heavy apps are genuinely bandwidth-bound."""
        for name in ("BS", "AA", "VA", "SB", "SA", "SP", "SC", "NN"):
            assert alone_measurements[name]["alpha"] > 0.5, name
