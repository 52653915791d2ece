"""Guard rails on the public API surface.

Every name a subpackage exports must resolve, be documented, and the
top-level package must re-export the primary entry points.  These tests
fail when an `__all__` entry goes stale or a public item loses its
docstring.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.nn",
    "repro.lang",
    "repro.translation",
    "repro.graph",
    "repro.detection",
    "repro.baselines",
    "repro.datasets",
    "repro.pipeline",
    "repro.report",
    "repro.scenarios",
    "repro.service",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} must define __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_all_entries_sorted(module_name):
    module = importlib.import_module(module_name)
    exported = list(module.__all__)
    assert exported == sorted(exported), f"{module_name}.__all__ is not sorted"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented public items {undocumented}"


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name)
    # The primary entry points are reachable without submodule imports.
    assert repro.AnalyticsFramework is not None
    assert repro.FrameworkConfig is not None
    assert repro.MultivariateEventLog is not None


def test_version_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2
