"""Every definition in src/cfrl is used by the program itself.

Code that nothing but its own unit test needs belongs in tests/, as the
oracles in tests/oracles.py do. This test parses the package's modules and
fails on a top-level function or class, or a public method, whose name is
never used in the package's code outside its own definition. A use is a
name or an attribute with that identifier (a call, a lookup, a base class);
imports, comments and docstrings are not uses. `cfrl/__init__.py` holds only
the package docstring and is not read.

It also fails on an attribute that a package class assigns on `self` and
that no package code reads: a read is an attribute load with that name, on
any object. `errors.py` is exempt: the attributes of its exceptions are the
interface their callers use.
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


def _modules(package: Path) -> dict:
    """The parsed modules of `package` by name, except `__init__.py`."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}


def unused_definitions(package: Path) -> list:
    """Qualified names, as module.name, of the definitions in `package`
    that no code of the package uses outside their own body."""
    modules = _modules(package)
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


def unused_attributes(package: Path) -> list:
    """Qualified names, as module.Class.attribute, of the attributes that a
    class in `package` assigns on self and no code of the package reads."""
    modules = _modules(package)
    read = {sub.attr for module in modules.values() for sub in ast.walk(module)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    unused = set()
    for stem, module in modules.items():
        if stem == "errors":
            continue
        for cls in module.body:
            if isinstance(cls, ast.ClassDef):
                unused.update(f"{stem}.{cls.name}.{sub.attr}" for sub in ast.walk(cls)
                              if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                              and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                              and sub.attr not in read)
    return sorted(unused)


def test_every_definition_is_used_by_the_package():
    assert unused_definitions(PACKAGE) == []


def test_every_attribute_assigned_on_self_is_read_by_the_package():
    assert unused_attributes(PACKAGE) == []
