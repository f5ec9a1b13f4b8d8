"""numpy stays the only runtime dependency: every absolute import in the
package names a standard-library module or numpy. And every name comes
from its module: ``from moectr import X`` only imports a module X. The
package's modules import each other without a cycle, and each check has
one home: a message is raised at one site, a lower bound is checked by
``numerics.at_least``, ``FNV_PRIME`` is read only by the scalar hash
reference and the one vectorised hash, only ``embedding.init_bank``
compares against an embedding-mode name, only ``model.py`` (and
``gradsuite.suite_cases``) against a loss-location name, and only
``losses.LossConfig`` reads a loss's ``alpha``."""

import ast
import sys
from pathlib import Path

import pytest

from moectr.embedding import BANK_MODES
from moectr.losses import LOSS_LOCATIONS

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


def package_imports(tree: ast.AST) -> set[str]:
    """The package modules a module imports, at any depth: ``from .x import``
    and ``from . import x``, inside functions too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else (alias.name for alias in node.names))
    return names


def modules_on_cycles(sources: dict[str, str]) -> list[str]:
    """The modules of ``{module name: source}`` left after repeatedly
    dropping those that import no remaining module: [] exactly when the
    import graph has no cycle."""
    graph = {name: package_imports(ast.parse(source)) & sources.keys() for name, source in sources.items()}
    while leaves := [name for name, imported in graph.items() if not imported & graph.keys()]:
        for name in leaves:
            del graph[name]
    return sorted(graph)


def test_package_import_graph_has_no_cycle():
    assert modules_on_cycles({path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}) == []


def test_guard_sees_a_cycle_through_a_function_level_import():
    sources = {
        "config": "from .data import load\nfrom . import numerics\n",
        "data": "import numpy\n\ndef load():\n    from .config import parse\n",
        "numerics": "import math\n",
    }
    assert modules_on_cycles(sources) == ["config", "data"]
    del sources["data"]
    assert modules_on_cycles(sources) == []


# the scalar FNV-1a reference: it keeps its own checks, since the vectorised
# hash it is the oracle for must not share its code
REFERENCE_FUNCTIONS = {("data.py", "hash_token")}
LOWER_BOUND_HOME = {("numerics.py", "at_least")}


def exempt_nodes(tree: ast.AST, filename: str, exempt) -> set[int]:
    """ids of every node inside the ``exempt`` (file, function or class) pairs."""
    return {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.ClassDef)) and (filename, fn.name) in exempt
        for node in ast.walk(fn)
    }


def raise_texts(tree: ast.AST, filename: str, exempt=REFERENCE_FUNCTIONS) -> list[tuple[str, str]]:
    """(message text, "file:line") of every ``raise E("...")`` outside the
    ``exempt`` (file, function) pairs; an f-string's fields read as ``{}``."""
    skipped = exempt_nodes(tree, filename, exempt)
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


def lower_bound_rules(sources: dict[str, str]) -> list[str]:
    """Sites outside at_least and the reference functions whose string
    constants state a ``must be >= `` rule of their own: a raise's message,
    or a rule handed on as a string for some other code to raise."""
    exempt = REFERENCE_FUNCTIONS | LOWER_BOUND_HOME
    sites = []
    for filename, source in sources.items():
        tree = ast.parse(source, filename=filename)
        skipped = exempt_nodes(tree, filename, exempt)
        sites.extend(
            f"{filename}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in skipped
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "must be >= " in node.value
        )
    return sites


def test_lower_bounds_are_checked_by_at_least():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert lower_bound_rules(sources) == []


def test_guard_sees_a_lower_bound_check_of_its_own():
    sources = {
        "numerics.py": 'def at_least(name, value, least):\n    raise ValueError(f"{name} must be >= {least}")\n',
        "data.py": 'def hash_token(c):\n    raise ValueError("cardinality must be >= 1")\n',
        "nnet.py": 'def build(w):\n    if w < 1:\n        raise ValueError(f"widths must be >= 1, got {w}")\n',
    }
    assert lower_bound_rules(sources) == ["nnet.py:3"]


def test_guard_sees_a_lower_bound_rule_passed_as_a_string():
    sources = {
        "config.py": 'def checked(parse, ok, rule):\n    return parse\n\n'
        '_seed = checked(int, lambda s: s >= 0, "seeds must be >= 0")\n',
    }
    assert lower_bound_rules(sources) == ["config.py:4"]


# FNV_PRIME's readers: the scalar reference and the one vectorised hash
FNV_HOMES = REFERENCE_FUNCTIONS | {("data.py", "fnv1a_buckets")}


def fnv_prime_readers(sources: dict[str, str]) -> list[str]:
    """Sites outside FNV_HOMES that read FNV_PRIME: by name, as a module's
    attribute, or by importing it (under any alias)."""
    sites = []
    for filename, source in sources.items():
        tree = ast.parse(source, filename=filename)
        skipped = exempt_nodes(tree, filename, FNV_HOMES)
        sites.extend(
            f"{filename}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in skipped
            and (
                isinstance(node, ast.Name) and node.id == "FNV_PRIME" and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == "FNV_PRIME"
                or isinstance(node, ast.ImportFrom) and any(a.name == "FNV_PRIME" for a in node.names)
            )
        )
    return sites


def test_fnv_prime_is_read_by_the_reference_and_the_vectorised_hash_only():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert fnv_prime_readers(sources) == []


def test_guard_sees_a_third_reader_of_the_fnv_prime():
    sources = {
        "data.py": "FNV_PRIME = 3\n\ndef hash_token(t):\n    return t * FNV_PRIME\n\n"
        "def fnv1a_buckets(b):\n    return b * FNV_PRIME\n\ndef _hash_column(c):\n    return c * FNV_PRIME\n",
        "cli.py": "from .data import FNV_PRIME as P\nfrom . import data\n\ndef h(x):\n    return x * data.FNV_PRIME\n",
    }
    assert fnv_prime_readers(sources) == ["data.py:10", "cli.py:1", "cli.py:5"]


# the se/me rule is embedding.TABLE_MAPS, read by init_bank, the one function that may compare modes
MODE_HOME = {("embedding.py", "init_bank")}
MODE_NAMES = set(BANK_MODES)


def _names_one_of(node: ast.AST, names: set[str]) -> bool:
    """One of ``names`` as a constant, or inside a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_one_of(elt, names) for elt in node.elts)
    return isinstance(node, ast.Constant) and node.value in names


def name_comparisons(sources: dict[str, str], names: set[str], exempt) -> list[str]:
    """Sites outside the ``exempt`` (file, function) pairs that compare
    against one of ``names``: with a comparison operator (``==``, ``in``,
    ...) or as a ``match`` case."""
    sites = []
    for filename, source in sources.items():
        tree = ast.parse(source, filename=filename)
        skipped = exempt_nodes(tree, filename, exempt)
        sites.extend(
            f"{filename}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in skipped
            and (
                isinstance(node, ast.Compare) and any(_names_one_of(n, names) for n in [node.left, *node.comparators])
                or isinstance(node, ast.MatchValue) and _names_one_of(node.value, names)
            )
        )
    return sites


def mode_comparisons(sources: dict[str, str]) -> list[str]:
    """Sites outside MODE_HOME that compare against a mode name."""
    return name_comparisons(sources, MODE_NAMES, MODE_HOME)


def test_mode_names_are_compared_in_init_bank_only():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert mode_comparisons(sources) == []


def test_guard_sees_a_mode_comparison_outside_init_bank():
    sources = {
        "embedding.py": 'def init_bank(mode):\n    return mode == "se"\n\n'
        'def table_for_expert(bank, m):\n    return 0 if bank.mode == "se" else m\n',
        "model.py": 'def f(mode):\n    if mode in ("me", "xx"):\n        return 1\n    match mode:\n'
        '        case "se":\n            return 2\n    return "me"\n',
    }
    assert mode_comparisons(sources) == ["embedding.py:5", "model.py:2", "model.py:5"]


# the loss location is routed in model.py alone: check_experts, loss_targets and
# loss_backward; gradsuite.suite_cases picks the experts each location allows
LOCATION_HOME = "model.py"
LOCATION_EXEMPT = {("gradsuite.py", "suite_cases")}


def location_comparisons(sources: dict[str, str]) -> list[str]:
    """Sites outside LOCATION_HOME and LOCATION_EXEMPT that compare against a loss-location name."""
    outside = {filename: source for filename, source in sources.items() if filename != LOCATION_HOME}
    return name_comparisons(outside, set(LOSS_LOCATIONS), LOCATION_EXEMPT)


def test_loss_locations_are_compared_in_model_only():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert location_comparisons(sources) == []


def test_guard_sees_a_location_comparison_outside_model():
    sources = {
        "model.py": 'def loss_targets(loss):\n    return loss.location == "input"\n',
        "gradsuite.py": 'def suite_cases(loc):\n    return loc == "intermediate"\n\n'
        'def other(loc):\n    return loc in ("output", "x")\n',
        "trainer.py": 'def step(loss):\n    match loss.location:\n        case "intermediate":\n            return 1\n'
        '    return "input"\n',
    }
    assert location_comparisons(sources) == ["gradsuite.py:5", "trainer.py:3"]


# the one reader of alpha: LossConfig, whose weight is the de-correlation term's coefficient
ALPHA_HOME = {("losses.py", "LossConfig")}


def alpha_readers(sources: dict[str, str]) -> list[str]:
    """Sites outside ALPHA_HOME that read an ``alpha`` attribute."""
    sites = []
    for filename, source in sources.items():
        tree = ast.parse(source, filename=filename)
        skipped = exempt_nodes(tree, filename, ALPHA_HOME)
        sites.extend(
            f"{filename}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in skipped
            and isinstance(node, ast.Attribute) and node.attr == "alpha" and isinstance(node.ctx, ast.Load)
        )
    return sites


def test_alpha_is_read_by_loss_config_only():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert alpha_readers(sources) == []


def test_guard_sees_an_alpha_read_outside_loss_config():
    sources = {
        "losses.py": "class LossConfig:\n    def weight(self, rows):\n        return self.alpha / (rows - 1)\n\n\n"
        "def total(loss, bce, decor):\n    return bce + loss.alpha * decor\n",
        "trainer.py": "def coef(model, n):\n    return model.loss.alpha / (n - 1) if model.loss.active else 0.0\n",
    }
    assert alpha_readers(sources) == ["losses.py:7", "trainer.py:2"]
