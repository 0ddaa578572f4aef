"""The package source keeps no dead private helpers and no unused imports:
every module-level name that starts with an underscore is used somewhere in
src/mindeg besides its own definition, every name a module imports is used
in that module, the package exports exactly what __init__.py imports, and
every export is used by the package or the benchmark, not by tests alone.
Read with ast alone, without importing the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mindeg"
PERFBENCH = ROOT / "perfbench"


def _definitions(tree):
    """(name, defining node) of each module-level binding: a function,
    class or assignment target."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node


def _private_definitions(tree):
    """The _definitions named _x (dunders excluded)."""
    for name, node in _definitions(tree):
        if name.startswith("_") and not name.startswith("__"):
            yield name, node


def _references(tree, name, skip):
    """Uses of name in tree outside the nodes of skip: a loaded variable,
    an attribute, or a name imported from a module."""
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and node.id == name \
                and isinstance(node.ctx, ast.Load):
            yield node
        elif isinstance(node, ast.Attribute) and node.attr == name:
            yield node
        elif isinstance(node, ast.alias) and node.name == name:
            yield node


def test_every_private_module_name_is_used():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert trees, "no source under %s" % SRC
    unused = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if not any(any(_references(other, name,
                                       own if other is tree else set()))
                       for other in trees.values()):
                unused.append("%s:%d %s" % (module, node.lineno, name))
    assert unused == []


def _imported_names(tree):
    """(name bound in the module, line) of each import, without
    `from __future__ import ...`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_imported_name_is_used():
    # __init__.py imports to re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in _imported_names(tree)
                   if name not in loaded]
    assert unused == []


def _exports(tree):
    """The literal __all__ of the module tree."""
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["__all__"]]
    return exported


def test_all_is_what_init_imports():
    # a name deleted from a module cannot linger in __all__, nor an import
    # stay unexported
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {name for name, _ in _imported_names(tree)}
    exported = _exports(tree)
    assert set(exported) == imported and len(exported) == len(imported)


def _used(tree, name):
    """Whether tree uses name outside its own module-level definition: a
    reference, or a string constant equal to it (the benchmark's tracer
    names its targets by string)."""
    own = {id(n) for defined, node in _definitions(tree) if defined == name
           for n in ast.walk(node)}
    return any(_references(tree, name, own)) or any(
        isinstance(n, ast.Constant) and n.value == name
        and id(n) not in own for n in ast.walk(tree))


def test_every_export_is_used_outside_tests():
    # no public API exists only for tests: each name in __all__ is used in
    # src/mindeg besides __init__.py, or in perfbench
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(PERFBENCH.glob("*.py"))
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in paths]
    assert len(trees) > 2, "no sources under %s or %s" % (SRC, PERFBENCH)
    exported = _exports(ast.parse((SRC / "__init__.py").read_text()))
    assert [name for name in exported
            if not any(_used(tree, name) for tree in trees)] == []
