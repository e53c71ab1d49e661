"""Workloads: the 15 synthetic applications standing in for paper Table 3,
plus combination generators for the two- and four-application studies."""

from repro.workloads.suite import (
    ALL_APPS,
    APP_NAMES,
    SUITE,
    TABLE3_BW_UTILIZATION,
    app,
    four_app_workloads,
    two_app_workloads,
)

__all__ = [
    "SUITE",
    "ALL_APPS",
    "APP_NAMES",
    "TABLE3_BW_UTILIZATION",
    "app",
    "two_app_workloads",
    "four_app_workloads",
]
