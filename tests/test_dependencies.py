"""The package runs on numpy alone: every module of ``lrcs_cdti``
imports only the standard library, numpy or the package itself, and
numpy is the one runtime dependency ``pyproject.toml`` declares.  scipy
is the tests' oracle and sits in the ``test`` extra."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lrcs_cdti"
ALLOWED = {"numpy", "lrcs_cdti"}


def _imported_roots(path: Path) -> set[str]:
    """The top-level names of the absolute imports in ``path``, at any
    depth (a function-level import counts too)."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_only_stdlib_numpy_or_the_package(path):
    foreign = {name for name in _imported_roots(path)
               if name not in ALLOWED and name not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_the_runtime_dependency_is_numpy_alone():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
