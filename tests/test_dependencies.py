"""numpy stays the only runtime dependency: every absolute import in the
package names a standard-library module or numpy. And every name comes
from its module: ``from moectr import X`` only imports a module X."""

import ast
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "moectr"
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


def root_names_not_modules(tree: ast.AST) -> list[str]:
    """The X of every ``from moectr import X`` that is not a module file of the package."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "moectr"
        for alias in node.names
        if alias.name not in modules
    ]


def test_package_root_imports_only_modules():
    tops = ("src", "tests", "demos", "bench")
    sources = sorted(p for top in tops for p in (REPO / top).rglob("*.py"))
    assert {path.relative_to(REPO).parts[0] for path in sources} == set(tops)
    offenders = [
        (str(path.relative_to(REPO)), name)
        for path in sources
        for name in root_names_not_modules(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert offenders == []


def test_guard_sees_a_name_imported_from_the_package_root():
    tree = ast.parse("from moectr import data, trainer\nfrom moectr import train_loop\nfrom moectr.trainer import evaluate\n")
    assert root_names_not_modules(tree) == ["train_loop"]


# the scalar FNV-1a reference: it keeps its own checks, since the vectorised
# hash it is the oracle for must not share its code
REFERENCE_FUNCTIONS = {("data.py", "hash_token")}


def raise_texts(tree: ast.AST, filename: str) -> list[tuple[str, str]]:
    """(message text, "file:line") of every ``raise E("...")`` outside the
    reference functions; an f-string's fields read as ``{}``."""
    skipped = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and (filename, fn.name) in REFERENCE_FUNCTIONS
        for node in ast.walk(fn)
    }
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or id(node) in skipped or not isinstance(node.exc, ast.Call):
            continue
        message = node.exc.args[0] if node.exc.args else None
        if isinstance(message, ast.Constant) and isinstance(message.value, str):
            text = message.value
        elif isinstance(message, ast.JoinedStr):
            text = "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in message.values)
        else:
            continue
        sites.append((text, f"{filename}:{node.lineno}"))
    return sites


def shared_raise_texts(sources: dict[str, str]) -> dict[str, list[str]]:
    """Message text -> its raise sites, for each text raised at more than one site."""
    sites: dict[str, list[str]] = {}
    for filename, source in sources.items():
        for text, site in raise_texts(ast.parse(source, filename=filename), filename):
            sites.setdefault(text, []).append(site)
    return {text: where for text, where in sites.items() if len(where) > 1}


def test_each_error_message_is_raised_at_one_site():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert shared_raise_texts(sources) == {}


def test_guard_sees_a_message_raised_twice():
    sources = {
        "a.py": 'def f(k):\n    raise ValueError(f"unknown kind {k!r}")\n',
        "b.py": 'def g(kind):\n    if kind:\n        raise ValueError(f"unknown kind {kind!r}")\n    raise KeyError("other")\n',
        "data.py": 'def hash_token(c):\n    raise ValueError("other")\n',
    }
    assert shared_raise_texts(sources) == {"unknown kind {}": ["a.py:2", "b.py:3"]}
