"""Every definition in src/cfrl is used by the program itself.

Code that nothing but its own unit test needs belongs in tests/, as the
oracles in tests/oracles.py do. This test parses the package's modules and
fails on a top-level function or class, or a public method, whose name is
never used in the package's code outside its own definition. A use is a
name or an attribute with that identifier (a call, a lookup, a base class);
the re-exports of `cfrl/__init__.py`, imports, comments and docstrings are
not uses.
"""

import ast
from collections import Counter
from pathlib import Path

import cfrl

PACKAGE = Path(cfrl.__file__).parent


def _used_names(node) -> Counter:
    """Identifiers that the code under `node` uses, with their counts."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
    return used


def _definitions(module: ast.Module):
    """(qualified name, node) of each top-level function and class and of
    each public method."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def unused_definitions(package: Path) -> list:
    """Qualified names, as module.name, of the definitions in `package`
    that no code of the package uses outside their own body."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    used = Counter()
    for module in modules.values():
        used += _used_names(module)
    unused = []
    for stem, module in modules.items():
        for qualname, node in _definitions(module):
            name = node.name
            if used[name] - _used_names(node)[name] <= 0:
                unused.append(f"{stem}.{qualname}")
    return unused


def test_every_definition_is_used_by_the_package():
    assert unused_definitions(PACKAGE) == []
