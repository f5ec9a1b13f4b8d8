"""numpy stays the only runtime dependency: every absolute import in the
package names a standard-library module or numpy."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moectr"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [name for name in absolute_imports(tree) if name.split(".")[0] not in ALLOWED]
    assert outside == []


def test_guard_sees_a_third_party_import():
    tree = ast.parse("import os\nfrom numpy.linalg import norm\nimport scipy.sparse\nfrom . import data\n")
    assert [n for n in absolute_imports(tree) if n.split(".")[0] not in ALLOWED] == ["scipy.sparse"]
