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


def test_one_cli_helper_builds_and_writes_every_report():
    # fileio.make_report alone makes a report's values JSON-ready, and one cli
    # function, which main calls, is the only one to build a report.json
    package = pathlib.Path(gcm.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}

    def callers(name):
        """(module, top-level definition) of every call of ``name``, bare or as an attribute."""
        return {(module, getattr(top, "name", "<module>"))
                for module, tree in trees.items() for top in tree.body
                for node in ast.walk(top) if isinstance(node, ast.Call)
                and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}

    assert callers("jsonable") - {("fileio", "jsonable")} == {("fileio", "make_report")}
    (writer,) = callers("make_report")
    assert writer[0] == "cli" and ("cli", "main") in callers(writer[1])
    named = {top.name for top in trees["cli"].body for node in ast.walk(top)
             if isinstance(node, ast.Constant) and node.value == "report.json"}
    assert named == {writer[1]}


def _cli_test_offenders(source: str) -> list:
    """Where a test function of ``source`` checks a failing ``gcm`` call by itself: it
    keeps ``cli.main``'s code for later, compares an exit code with anything but 0, or
    parses stderr as JSON. The error-contract helpers ``_refused`` and ``_main`` may."""
    tree = ast.parse(source)
    helpers = {"_refused", "_main"}
    assert helpers <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}

    def is_call(node, owner, name):
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and owner is None and node.func.id == name
            or isinstance(node.func, ast.Attribute) and node.func.attr == name
            and isinstance(node.func.value, ast.Name) and node.func.value.id == owner)

    def is_code(node):
        return (is_call(node, "cli", "main") or is_call(node, None, "_main")
                or isinstance(node, ast.Attribute) and node.attr == "returncode")

    offenders = []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef) or func.name in helpers:
            continue
        parents = {child: node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}
        # names bound, directly or through other names, from what a process wrote on stderr
        tainted, grew = {"stderr"}, True

        def reads_stderr(node):
            return any(isinstance(n, ast.Attribute) and n.attr in ("err", "stderr")
                       or isinstance(n, ast.Name) and n.id in tainted for n in ast.walk(node))

        while grew:
            bound = {n.id for node in ast.walk(func) if isinstance(node, ast.Assign)
                     and reads_stderr(node.value)
                     for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name)}
            grew, tainted = not bound <= tainted, tainted | bound
        for node in ast.walk(func):
            where = f"{func.name}:{getattr(node, 'lineno', '?')}"
            if is_call(node, "cli", "main") and not isinstance(parents[node], (ast.Compare, ast.Expr)):
                offenders.append(f"{where}: cli.main's code kept for later")
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for a, b in zip(operands, operands[1:]):
                    tuples = isinstance(a, ast.Tuple) and isinstance(b, ast.Tuple)
                    for x, y in zip(a.elts, b.elts) if tuples else [(a, b)]:
                        offenders += [
                            f"{where}: exit code compared with {ast.unparse(other)}"
                            for code, other in ((x, y), (y, x))
                            if is_code(code)
                            and not (isinstance(other, ast.Constant) and other.value == 0)
                        ]
            elif (is_call(node, "json", "loads") or is_call(node, None, "_strict_json")) and any(
                    reads_stderr(arg) for arg in node.args):
                offenders.append(f"{where}: stderr parsed as JSON")
    return offenders


def test_every_failing_cli_call_is_checked_by_the_error_contract_helper():
    # tests/test_cli.py checks each failing call through _refused, which asserts the
    # exit code, the one stderr line and report.json together
    path = pathlib.Path(__file__).with_name("test_cli.py")
    assert _cli_test_offenders(path.read_text(encoding="utf-8")) == []


def _names(node) -> set:
    """Every name and attribute name in the expression ``node``."""
    return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}


def test_only_linalg_tells_an_spd_factor_from_an_array():
    # a fit or a law takes its covariance as an SpdFactor; only linalg's primitives
    # accept either, so no function outside linalg tests for a factor or annotates
    # a parameter that admits both
    package = pathlib.Path(gcm.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
                    and len(node.args) == 2 and "SpdFactor" in _names(node.args[1]):
                offenders.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.arg) and node.annotation is not None \
                    and {"ndarray", "SpdFactor"} <= _names(node.annotation):
                offenders.append(f"{path.name}:{node.lineno}: {node.arg}")
    assert offenders == []
