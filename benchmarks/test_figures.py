"""Tables 1/3 and Figs. 2-9 (plus the extension sweeps), from the figure table.

Each entry of :data:`repro.figure_table.FIGURE_TABLE` runs once through
``run_figure`` at the table's own defaults (``REPRO_FULL=1``: paper scale)
and is checked against the claims the table states for it — the same
objects ``tests/test_paper_claims.py`` and ``repro summarize`` evaluate.
With ``REPRO_STORE_DIR`` set the payload is also recorded, exactly as
``repro <entry> --store`` would, so ``repro summarize --store`` and
``repro trajectory`` read this run back (``REPRO_CACHE_DIR`` memoises the
alone replays across entries).
"""

import os

import pytest

from repro.figure_table import FIGURE_TABLE
from repro.harness.figures import record_figure, run_figure
from repro.obs.report import render_claims


@pytest.mark.parametrize("name", list(FIGURE_TABLE))
def test_figure(name, once):
    run = once(run_figure, name)
    print()
    print(run.rendered)
    if os.environ.get("REPRO_STORE_DIR"):
        record_figure(os.environ["REPRO_STORE_DIR"], run)
    claims = FIGURE_TABLE[name].claims
    print("\n" + render_claims((name, *c.row(run.payload)) for c in claims))
    for claim in claims:
        assert claim.holds(run.payload), (name, *claim.row(run.payload))
