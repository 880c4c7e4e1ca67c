"""Public-API hygiene: __all__ correctness and docstring coverage.

A reproduction meant for adoption lives or dies by its public surface;
these tests pin it.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.gp",
    "repro.bayesopt",
    "repro.ml",
    "repro.baselines",
    "repro.traces",
    "repro.core",
    "repro.autoscale",
    "repro.experiments",
    "repro.obs",
    "repro.obs.monitor",
    "repro.serving",
    "repro.state",
]

MODULES = PACKAGES + [
    "repro.obs.events",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.obs.callbacks",
    "repro.obs.logging",
    "repro.obs.monitor.quality",
    "repro.obs.monitor.drift",
    "repro.obs.monitor.slo",
    "repro.obs.monitor.exposition",
    "repro.obs.monitor.monitor",
    "repro.metrics",
    "repro.parallel",
    "repro.cli",
    "repro.nn.lstm",
    "repro.nn.network",
    "repro.gp.gp",
    "repro.gp.kernels",
    "repro.bayesopt.optimizer",
    "repro.bayesopt.space",
    "repro.ml.tree",
    "repro.ml.svr",
    "repro.baselines.base",
    "repro.baselines.cloudinsight",
    "repro.baselines.cloudscale",
    "repro.baselines.wood",
    "repro.traces.synthetic",
    "repro.core.framework",
    "repro.core.adaptive",
    "repro.core.bruteforce",
    "repro.autoscale.cloudsim",
    "repro.autoscale.controller",
    "repro.autoscale.scenarios",
    "repro.serving.sanitize",
    "repro.serving.guard",
    "repro.serving.breaker",
    "repro.serving.online",
    "repro.serving.stream",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    assert hasattr(mod, "__all__"), f"{name} must define __all__"
    for symbol in mod.__all__:
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", MODULES)
def test_module_docstrings(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 20, f"{name} lacks a docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_classes_and_functions_documented(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        obj = getattr(mod, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_star_import_clean():
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 - deliberate
    assert "LoadDynamics" in namespace
