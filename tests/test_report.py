"""Tests for the text report renderers."""

from repro.harness.experiments import (
    AccuracyResult,
    Fig2Result,
    Fig3Result,
    Fig4Result,
    Fig9Result,
    SensitivityResult,
    Table3Result,
    table1_hwcost,
)
from repro.obs.report import (
    pct,
    render_claims,
    render_table1,
    render_table3,
    render_accuracy,
    render_distribution,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig9,
    render_sensitivity,
    table,
)


def test_table_alignment():
    out = table(["a", "bbbb"], [["xx", "y"], ["1", "22222"]])
    lines = out.splitlines()
    assert lines[0].startswith("a ")
    assert len(lines) == 4
    assert "-" in lines[1]


def test_pct():
    assert pct(0.123) == "12.3%"
    assert pct(1.0) == "100.0%"


def test_render_tables():
    out = render_table1(table1_hwcost(apps=2))
    assert "2 applications" in out and "Sample ATD" in out
    assert "per partition: 320 B (0.488% of a 64 KB L2 slice)" in out
    res = Table3Result(cycles=1000, measured={"SB": 0.7, "QR": 0.125},
                       alpha={"SB": 0.9, "QR": 0.05},
                       ipc={"SB": 3.0, "QR": 14.0})
    lines = render_table3(res).splitlines()
    assert "1000 cycles" in lines[0]
    assert lines[3].split() == ["SB", "68.0%", "70.0%", "+2.0pp", "0.90", "3.0"]
    assert lines[4].split() == ["QR", "14.0%", "12.5%", "-1.5pp", "0.05", "14.0"]


def test_render_claims():
    out = render_claims([("fig5", "dase-error", "8.8%", "6.6%", "< 15.0%",
                          "ok")])
    assert out.splitlines()[0].split() == [
        "entry", "claim", "paper", "measured", "wanted", "verdict"]
    assert out.splitlines()[2].split()[-1] == "ok"


def test_render_fig2():
    res = Fig2Result(
        combos=[("SD", "SB")],
        unfairness={"SD+SB": 2.5},
        slowdowns={"SD+SB": [3.4, 1.4]},
        breakdown={"SD+SB": {"SD": 0.1, "SB": 0.5, "wasted": 0.3, "idle": 0.1}},
        sd_alone_bw=0.4,
    )
    out = render_fig2(res)
    assert "SD+SB" in out and "2.50" in out and "40.0%" in out


def test_render_fig3():
    res = Fig3Result(points=[(10.0, 0.1), (20.0, 0.2)], correlation=0.999)
    out = render_fig3(res)
    assert "0.999" in out


def test_render_fig4():
    res = Fig4Result(alone_rate=420.0, shared_rates={"SA": (300.0, 139.0)})
    out = render_fig4(res)
    assert "SB+SA" in out and "439" in out and "420" in out


def test_render_accuracy():
    res = AccuracyResult(
        workloads=[("SD", "SB")],
        per_workload={"SD+SB": {"DASE": 0.05, "MISE": 0.4}},
        errors={"DASE": [0.05], "MISE": [0.4]},
    )
    out = render_accuracy(res, "title")
    assert "title" in out and "5.0%" in out and "MEAN" in out


def test_render_distribution():
    dists = {"DASE": {"<10%": 0.7, ">10%": 0.3}}
    out = render_distribution(dists)
    assert "70.0%" in out


def test_render_sensitivity():
    res = SensitivityResult(labels=["6+10"], dase_errors={"6+10": 0.08})
    out = render_sensitivity(res, "Fig 8a")
    assert "6+10" in out and "8.0%" in out


def test_render_fig9():
    res = Fig9Result(
        workloads=["SD+SB"],
        unfairness_even={"SD+SB": 2.5},
        unfairness_fair={"SD+SB": 1.5},
        hspeedup_even={"SD+SB": 0.5},
        hspeedup_fair={"SD+SB": 0.55},
    )
    out = render_fig9(res)
    assert "SD+SB" in out
    assert "40.0%" in out  # unfairness improvement
    assert res.mean_unfairness_improvement == 1 - 1.5 / 2.5
    assert res.mean_hspeedup_improvement == 0.55 / 0.5 - 1
