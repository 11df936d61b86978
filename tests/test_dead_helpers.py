"""Every private helper of the package is used somewhere in the package:
a module-level or class-level name with a leading underscore (dunders
aside) must be referenced in src/blocktoeplitz beyond its own
definition. Every public export resolves."""

import ast
from pathlib import Path

import blocktoeplitz

SRC = Path(blocktoeplitz.__file__).parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _defined(body):
    """The names a module or class body binds at its own level."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from _defined(node.body)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _referenced(tree):
    """The names a module reads: loaded names, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_private_name_is_unused():
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    used = {name for tree in trees for name in _referenced(tree)}
    unused = sorted({name for tree in trees for name in _defined(tree.body)
                     if _private(name) and name not in used})
    assert not unused, f"private names defined but never used: {unused}"


def test_exports_resolve_once():
    # a stale export of a deleted name, or one listed twice
    names = blocktoeplitz.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(blocktoeplitz, name)]
    assert not missing, f"exported but undefined: {missing}"
