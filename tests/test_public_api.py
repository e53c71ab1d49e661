"""The public API surface must stay importable and complete."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__


@pytest.mark.parametrize(
    "module",
    [
        "repro.config",
        "repro.hashing",
        "repro.figure_table",
        "repro.metrics",
        "repro.hwcost",
        "repro.cli",
        "repro.sim",
        "repro.sim.engine",
        "repro.sim.address",
        "repro.sim.kernel",
        "repro.sim.sm",
        "repro.sim.cache",
        "repro.sim.atd",
        "repro.sim.dram",
        "repro.sim.gpu",
        "repro.sim.stats",
        "repro.core",
        "repro.core.base",
        "repro.core.classify",
        "repro.core.dase",
        "repro.core.mise",
        "repro.core.asm",
        "repro.core.sampling",
        "repro.policies",
        "repro.policies.sm_alloc",
        "repro.policies.qos",
        "repro.policies.profiled",
        "repro.policies.temporal",
        "repro.workloads",
        "repro.workloads.suite",
        "repro.harness",
        "repro.harness.runner",
        "repro.harness.experiments",
        "repro.harness.figures",
        "repro.obs",
        "repro.obs.audit",
        "repro.obs.bus",
        "repro.obs.diff",
        "repro.obs.export",
        "repro.obs.inspect",
        "repro.obs.progress",
        "repro.obs.registry",
        "repro.obs.report",
        "repro.obs.telemetry",
        "repro.obs.tracer",
        "repro.service",
        "repro.service.protocol",
        "repro.service.queue",
        "repro.service.daemon",
        "repro.service.client",
        "repro.store",
        "repro.store.records",
        "repro.store.registry",
        "repro.store.trajectory",
    ],
)
def test_module_imports_and_has_docstring(module):
    mod = importlib.import_module(module)
    assert mod.__doc__, f"{module} lacks a module docstring"


def test_package_imports_with_numpy_blocked():
    # The package has no third-party runtime dependency: the simulator's one
    # core is pure Python, and the NumPy backend package is gone.
    child = (
        "import sys; sys.modules['numpy'] = None\n"
        "import importlib.util\n"
        "import repro, repro.harness, repro.service, repro.cli\n"
        "assert 'repro.sim.gpu' in sys.modules\n"
        "assert importlib.util.find_spec('repro.sim.backends') is None\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", child], check=True, env=env,
                   timeout=120)


def test_subpackage_all_exports_resolve():
    for pkg_name in ("repro.sim", "repro.core", "repro.policies",
                     "repro.workloads", "repro.harness", "repro.store"):
        pkg = importlib.import_module(pkg_name)
        for name in pkg.__all__:
            assert hasattr(pkg, name), f"{pkg_name}.{name}"


def test_register_scenario_is_gone():
    # Scenario builders come from repro.figure_table; nothing registers one.
    import repro.store

    assert "register_scenario" not in repro.store.__all__
    assert not hasattr(repro.store, "register_scenario")
    assert repro.store.canonical_json is importlib.import_module(
        "repro.hashing").canonical_json


def test_public_classes_documented():
    """Every public class and function in __all__ carries a docstring."""
    for pkg_name in ("repro", "repro.sim", "repro.core", "repro.policies",
                     "repro.workloads", "repro.harness"):
        pkg = importlib.import_module(pkg_name)
        for name in pkg.__all__:
            obj = getattr(pkg, name)
            if callable(obj):
                assert obj.__doc__, f"{pkg_name}.{name} lacks a docstring"
