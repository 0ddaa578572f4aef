"""The package source keeps no dead private helpers: every module-level name
that starts with an underscore is used somewhere in src/mindeg besides its
own definition. Read with ast alone, without importing the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mindeg"


def _private_definitions(tree):
    """(name, defining node) of each private module-level binding: a
    function, class or assignment target named _x (dunders excluded)."""
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
