"""The paper's claims, checked in tier-1 at a small budget.

Every :class:`~repro.figure_table.Claim` of :data:`FIGURE_TABLE` is
evaluated against a payload its own driver produced — the objects
``benchmarks/test_figures.py`` checks at default scale and ``repro summarize
--store`` reads from a store — so a model change that flips a paper ordering
(DASE no longer below half of MISE, DASE-Fair no fairer than the even split)
fails here by name.

Budget: one replay cache for the whole module (the entries share SD, SB and
SA alone trajectories), ``limit`` where an entry takes one, and for the
fixed-axis figures (fig2/fig8a/fig8b/fig9) the first workloads of the
*resolved* inputs — trimmed here, the table has no argument for it.
"""

import pytest

from repro.cli import main
from repro.figure_table import FIGURE_TABLE, Claim
from repro.harness.figures import claim_rows, record_figure, run_figure

#: Entries that state claims.
CLAIMED = [name for name, fig in FIGURE_TABLE.items() if fig.claims]

#: What keeps an entry's run small: its ``limit`` argument, or — for a fixed
#: axis — (the resolved driver input to cut, how many of its workloads to
#: keep, a shorter shared window where the claims keep their margin under
#: it).  fig2's claims read SD+SB, its first combo; DASE-Fair needs the
#: default window's intervals to act, so fig9 keeps the window.
LIMITS = {"fig5": 2, "fig6": 1, "fig7": 2}
TRIMMED = {
    "fig2": ("combos", 1, None),
    "fig8a": ("pairs", 2, 72_000),
    "fig8b": ("pairs", 2, 72_000),
    "fig9": ("pairs", 2, None),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("paper-claims")


@pytest.fixture(scope="module")
def small_payload(workdir, table3_run):
    """name → the payload of a small run of that entry (memoised)."""
    cache_dir, store_dir = str(workdir / "cache"), str(workdir / "store")
    payloads = {"table3": table3_run.payload}

    def payload(name):
        if name in payloads:
            return payloads[name]
        fig = FIGURE_TABLE[name]
        if name in TRIMMED:
            axis, keep, cycles = TRIMMED[name]
            _, inputs, _ = fig.resolve(None, {})
            inputs[axis] = inputs[axis][:keep]
            if cycles is not None:
                inputs["shared_cycles"] = cycles
            result = fig.driver(**inputs, config=None, jobs=None,
                                cache_dir=cache_dir)
            payloads[name] = fig.payload(result)
        else:
            run = run_figure(name, limit=LIMITS.get(name),
                             cache_dir=cache_dir)
            record_figure(store_dir, run)
            payloads[name] = run.payload
        return payloads[name]

    return payload


def test_every_paper_entry_states_claims():
    # Tables 1/3 and Figs. 2-9; the two extension sweeps state none.
    assert CLAIMED == [n for n in FIGURE_TABLE
                       if n not in ("fig-degradation", "fig-churn")]
    for name in CLAIMED:
        names = [c.name for c in FIGURE_TABLE[name].claims]
        assert len(set(names)) == len(names), name
        for claim in FIGURE_TABLE[name].claims:
            assert claim.paper and claim.op in ("<", ">", "=="), claim.name


@pytest.mark.slow
@pytest.mark.parametrize("name", CLAIMED)
def test_claims_hold_at_a_small_budget(name, small_payload):
    payload = small_payload(name)
    failed = [claim.row(payload) for claim in FIGURE_TABLE[name].claims
              if not claim.holds(payload)]
    assert failed == []


@pytest.mark.slow
def test_summarize_reads_what_the_runs_recorded(small_payload, workdir,
                                                capsys):
    # `repro fig5 --limit 2 --store S` then `repro summarize --store S`.
    small_payload("fig5")
    store_dir = str(workdir / "store")
    capsys.readouterr()
    assert main(["summarize", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    rows = [ln.split() for ln in out.splitlines() if ln.startswith("fig5 ")]
    assert [r[1] for r in rows] == [c.name for c in FIGURE_TABLE["fig5"].claims]
    assert all(r[-1] == "ok" for r in rows)
    assert ("fig5", "dase-error", "8.8%") in {
        row[:3] for row in claim_rows(store_dir)}


# ------------------------------------------------- claims notice a drift


#: A payload of each shape with the paper's own numbers in it.
PAPER = {
    "fig5": {"mean_error": {"DASE": 0.088, "MISE": 0.363, "ASM": 0.328}},
    "fig6": {"mean_error": {"DASE": 0.114, "MISE": 0.626, "ASM": 0.58}},
    "fig7": {"DASE": {"<10%": 0.702, "10%-20%": 0.207},
             "MISE": {"<10%": 0.042}, "ASM": {"<10%": 0.062}},
    "fig9": {"workloads": ["SD+SB", "QR+CT"],
             "unfairness_even": {"SD+SB": 2.5, "QR+CT": 1.1},
             "unfairness_fair": {"SD+SB": 1.9, "QR+CT": 1.1},
             "mean_unfairness_improvement": 0.161,
             "mean_hspeedup_improvement": 0.037},
}

#: (entry, the claim that must notice, the drifted payload).
DRIFTS = [
    ("fig5", "dase-below-half-mise",
     {"mean_error": {"DASE": 0.20, "MISE": 0.363, "ASM": 0.328}}),
    ("fig5", "asm-error",
     {"mean_error": {"DASE": 0.05, "MISE": 0.363, "ASM": 0.15}}),
    ("fig6", "mise-error",
     {"mean_error": {"DASE": 0.114, "MISE": 0.35, "ASM": 0.58}}),
    ("fig7", "dase-above-asm",
     dict(PAPER["fig7"], ASM={"<10%": 0.75})),
    ("fig9", "unfairness-improvement",
     dict(PAPER["fig9"], mean_unfairness_improvement=-0.02)),
    ("fig9", "no-pair-much-worse",
     dict(PAPER["fig9"], unfairness_fair={"SD+SB": 1.9, "QR+CT": 1.5})),
    # Nothing above 1.5 under the even split: nothing to measure.
    ("fig9", "best-unfair-pair-gain",
     dict(PAPER["fig9"], unfairness_even={"SD+SB": 1.4, "QR+CT": 1.1})),
]


@pytest.mark.parametrize("name", sorted(PAPER))
def test_the_papers_own_numbers_satisfy_its_claims(name):
    for claim in FIGURE_TABLE[name].claims:
        assert claim.holds(PAPER[name]), claim.row(PAPER[name])


@pytest.mark.parametrize("name, noticed_by, payload",
                         DRIFTS, ids=[f"{d[0]}-{d[1]}" for d in DRIFTS])
def test_a_drifted_payload_fails_the_named_claim(name, noticed_by, payload):
    failed = [c.name for c in FIGURE_TABLE[name].claims
              if not c.holds(payload)]
    assert noticed_by in failed


def test_a_payload_without_the_quantity_fails_instead_of_raising():
    # A sweep whose every workload failed records null means.
    claim = FIGURE_TABLE["fig5"].claim("dase-below-half-mise")
    for payload in ({"mean_error": {"DASE": None, "MISE": None}}, {}, None,
                    {"mean_error": {"DASE": 0.1, "MISE": 0.0}}):
        assert claim.measured(payload) is None
        assert not claim.holds(payload)
        assert claim.row(payload)[2:] == ("-", "< 0.50", "FAILED")
    eq = Claim("bits", "32", lambda p: p["bits"], "==", 32, "d")
    assert eq.holds({"bits": 32}) and not eq.holds({"bits": 64})
    assert eq.row({"bits": 64}) == ("bits", "32", "64", "== 32", "FAILED")
