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
