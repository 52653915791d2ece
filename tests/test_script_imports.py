"""Every ``repro`` import and build keyword in the scripts resolves.

The scripts under ``examples/`` and ``benchmarks/`` are not run by the
unit suite, so a removed or renamed public name would otherwise only
surface when someone runs them.  Each script is parsed with ``ast``
(nothing is executed) and every ``from repro... import name`` and
``import repro...`` statement is resolved against the package.  The
keyword arguments passed to ``MultivariateRelationshipGraph.build``,
``AnalyticsFramework.fit`` and ``FrameworkConfig`` are checked against
their signatures, which ``pytest --collect-only`` cannot do.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from repro.graph import MultivariateRelationshipGraph
from repro.pipeline import AnalyticsFramework, FrameworkConfig

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(
    path
    for directory in ("examples", "benchmarks")
    for path in (ROOT / directory).glob("*.py")
)


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each repro import; ``name`` is None for ``import``."""
    imports: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                imports.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            imports.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            )
    return imports


def test_scripts_are_found():
    names = {path.parent.name for path in SCRIPTS}
    assert names == {"examples", "benchmarks"}


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[f"{path.parent.name}/{path.name}" for path in SCRIPTS]
)
def test_repro_imports_resolve(path):
    unresolved = []
    for module_name, name in _repro_imports(path):
        module = importlib.import_module(module_name)
        if name is None or name == "*" or hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            unresolved.append(f"from {module_name} import {name}")
    assert not unresolved, f"{path.name}: {unresolved}"


SIGNATURES = {
    "MultivariateRelationshipGraph.build": inspect.signature(
        MultivariateRelationshipGraph.build
    ),
    "AnalyticsFramework.fit": inspect.signature(AnalyticsFramework.fit),
    "FrameworkConfig": inspect.signature(FrameworkConfig),
}


def _called_name(call: ast.Call, frameworks: set[str]) -> str | None:
    """Which checked callable ``call`` invokes, if any.

    ``fit`` counts when called on ``AnalyticsFramework(...)`` directly or
    on a name the script assigned from it.
    """
    func = call.func
    if isinstance(func, ast.Name) and func.id == "FrameworkConfig":
        return "FrameworkConfig"
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "FrameworkConfig":
        return "FrameworkConfig"
    owner = func.value
    owner_name = owner.id if isinstance(owner, ast.Name) else None
    if func.attr == "build" and owner_name == "MultivariateRelationshipGraph":
        return "MultivariateRelationshipGraph.build"
    if func.attr == "fit" and (owner_name in frameworks or _is_framework_call(owner)):
        return "AnalyticsFramework.fit"
    return None


def _is_framework_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "AnalyticsFramework"
    )


def _unknown_keywords(source: str) -> tuple[int, list[str]]:
    """``(checked calls, unknown keywords)`` of one script's source."""
    tree = ast.parse(source)
    frameworks = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_framework_call(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    checked, unknown = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node, frameworks)
        if name is None:
            continue
        checked += 1
        parameters = SIGNATURES[name].parameters
        unknown.extend(
            f"{name}({keyword.arg}=) at line {node.lineno}"
            for keyword in node.keywords
            if keyword.arg is not None and keyword.arg not in parameters
        )
    return checked, unknown


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[f"{path.parent.name}/{path.name}" for path in SCRIPTS]
)
def test_build_keywords_resolve(path):
    _, unknown = _unknown_keywords(path.read_text())
    assert not unknown, f"{path.name}: {unknown}"


def test_keyword_check_sees_the_calls():
    checked = sum(_unknown_keywords(path.read_text())[0] for path in SCRIPTS)
    assert checked >= 10
    _, unknown = _unknown_keywords(
        "g = MultivariateRelationshipGraph.build(a, b, train_engine='batched')\n"
        "framework = AnalyticsFramework(config)\n"
        "framework.fit(a, b, backend='batched')\n"
        "AnalyticsFramework(config).fit(a, b, n_jobs=2)\n"
        "repro.pipeline.FrameworkConfig(engine='ngram', cohort_size=4)\n"
    )
    assert unknown == [
        "MultivariateRelationshipGraph.build(train_engine=) at line 1",
        "AnalyticsFramework.fit(backend=) at line 3",
        "AnalyticsFramework.fit(n_jobs=) at line 4",
        "FrameworkConfig(cohort_size=) at line 5",
    ]
