"""Shared benchmark configuration.

Every benchmark runs its experiment exactly once (``pedantic`` with one
round): these are reproduction experiments, not micro-benchmarks, and a
single run already takes seconds to minutes.  Set ``REPRO_FULL=1`` for
paper-scale cycle budgets and full workload sweeps.
"""

import pytest


@pytest.fixture()
def once(benchmark):
    """Run a thunk once under pytest-benchmark and return its result."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
