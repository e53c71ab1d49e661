"""Fixtures shared across test modules."""

import pytest


@pytest.fixture(scope="session")
def table3_run():
    """``run_figure("table3")`` at the table's defaults, once per session:
    the one Table 3 measurement the suite-calibration tests and the paper
    claims both read (15 alone runs, the slowest single fixture here)."""
    from repro.harness.figures import run_figure

    return run_figure("table3")
