"""The package's public name list."""

import ast
import pathlib

import gcm


def test_all_lists_exactly_the_public_imports():
    # a name dropped from the imports of gcm/__init__.py must leave __all__ too
    tree = ast.parse(pathlib.Path(gcm.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(gcm.__all__) == sorted(public | {"__version__"})


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_a_private_name_of_another():
    # a name another gcm module needs is public; a leading underscore means "this module only"
    package = pathlib.Path(gcm.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        relative = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1]
        bound = {a.asname or a.name for n in relative if n.module is None for a in n.names}
        offenders += [
            f"{path.name}:{n.lineno}: from .{n.module} import {a.name}"
            for n in relative if n.module in modules for a in n.names if _private(a.name)
        ]
        offenders += [
            f"{path.name}:{n.lineno}: {n.value.id}.{n.attr}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in bound & modules and _private(n.attr)
        ]
    assert offenders == []
