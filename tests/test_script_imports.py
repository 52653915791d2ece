"""Every ``repro`` import in the example and benchmark scripts resolves.

The scripts under ``examples/`` and ``benchmarks/`` are not run by the
unit suite, so a removed or renamed public name would otherwise only
surface when someone runs them.  Each script is parsed with ``ast``
(nothing is executed) and every ``from repro... import name`` and
``import repro...`` statement is resolved against the package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

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
