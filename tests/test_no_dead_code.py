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

And it fails on a field of a package dataclass that no package code reads.
A read is an attribute load of the field's name whose receiver is of the
field's class. A receiver's class is known when it is `self` in a class's
methods, a parameter annotated with a package dataclass, or a variable
assigned a call of such a class or of a function annotated to return one. A
receiver of no known class reads the field only where one dataclass alone
has a field of that name; where several have one (a `seed`, say), only a
receiver of a known class counts.
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


def _dataclass_fields(modules: dict) -> dict:
    """{class name: (its module's name, its field names)} of every dataclass
    in the modules."""
    found = {}
    for stem, module in modules.items():
        for cls in module.body:
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in _used_names(d) for d in cls.decorator_list):
                found[cls.name] = stem, [item.target.id for item in cls.body
                                         if isinstance(item, ast.AnnAssign)
                                         and isinstance(item.target, ast.Name)]
    return found


def _class_named(annotation, classes) -> str | None:
    """The one class of `classes` that an annotation names, if it names one."""
    named = set(_used_names(annotation)) & classes if annotation is not None else set()
    return named.pop() if len(named) == 1 else None


def _callee(call: ast.Call) -> str | None:
    """The name of the function or class a call calls, as it is spelled last."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def unread_fields(package: Path) -> list:
    """Qualified names, as module.Class.field, of the dataclass fields in
    `package` that no code of the package reads (see the module docstring)."""
    modules = _modules(package)
    fields = _dataclass_fields(modules)
    classes = set(fields)
    holders = Counter(name for _, names in fields.values() for name in set(names))
    returns = {node.name: _class_named(node.returns, classes)
               for module in modules.values() for node in ast.walk(module)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    returns.update((name, name) for name in classes)
    read = set()

    def visit(node, known: dict, cls: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                visit(child, known, node.name)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            known = dict(known)
            params = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
            for k, param in enumerate(params):
                known.pop(param.arg, None)
                typed = _class_named(param.annotation, classes)
                if typed or (k == 0 and cls and param.arg == "self"):
                    known[param.arg] = typed or cls
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                    typed = returns.get(_callee(sub.value))
                    for target in sub.targets:
                        if typed and isinstance(target, ast.Name):
                            known[target.id] = typed
            cls = None
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in holders):
            receiver = known.get(node.value.id) if isinstance(node.value, ast.Name) else None
            if receiver is not None:
                read.add((receiver, node.attr))
            elif holders[node.attr] == 1:
                read.update((c, node.attr) for c, (_, names) in fields.items()
                            if node.attr in names)
        for child in ast.iter_child_nodes(node):
            visit(child, known, cls)

    for module in modules.values():
        visit(module, {}, None)
    return sorted(f"{stem}.{c}.{name}" for c, (stem, names) in fields.items()
                  for name in names if (c, name) not in read)


def test_every_definition_is_used_by_the_package():
    assert unused_definitions(PACKAGE) == []


def test_every_attribute_assigned_on_self_is_read_by_the_package():
    assert unused_attributes(PACKAGE) == []


def test_every_dataclass_field_is_read_by_the_package():
    assert unread_fields(PACKAGE) == []
