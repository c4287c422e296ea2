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


def test_every_module_level_definition_has_a_caller_in_src_or_is_exported():
    # a function or class that only tests call is dead weight in the package
    package = pathlib.Path(gcm.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    used = set(gcm.__all__) | {
        n.id if isinstance(n, ast.Name) else n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    uncalled = [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert uncalled == []


def test_only_the_cli_handles_warnings():
    # cli.main ignores warnings and numpy floating-point errors for every run and
    # pool worker, so no other module imports warnings or sets numpy's error handling
    package = pathlib.Path(gcm.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [node.id if isinstance(node, ast.Name) else node.attr]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno}: {name}" for name in names
                if name.split(".")[0] == "warnings" or name in ("errstate", "seterr")
            ]
    assert offenders == []
