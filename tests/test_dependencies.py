"""The package's runtime dependency is numpy alone, its own modules import
each other without a cycle, and one function writes every file.

Every import under src/jointcert names the standard library, numpy, or the
package itself by a relative import.  scipy, sympy and Hypothesis serve the
tests only.  Every import statement sits at module level, so no module can
lean on a lazy import to break a cycle.  Every builtin open that may write
sits in codec._write_text, so its no-partial-file rule covers every output.
"""
import ast
import graphlib
import pathlib
import sys

import jointcert

PACKAGE = pathlib.Path(jointcert.__file__).resolve().parent
ALLOWED = sys.stdlib_module_names | {"numpy"}


def test_package_imports_only_the_standard_library_and_numpy():
    imported = set()
    for source in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in ALLOWED, f"{source.name}:{node.lineno} imports {name}"
                imported.add(name.split(".")[0])
    # a walk that found nothing would pass vacuously
    assert "numpy" in imported and "json" in imported


def test_relative_imports_form_no_cycle_and_sit_at_module_level():
    # module name -> the package modules it imports, by relative imports
    graph = {}
    for source in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        imported = graph.setdefault(source.stem, set())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            # an import inside a function or block could hide a cycle
            assert node in tree.body, f"{source.name}:{node.lineno} imports below module level"
            if isinstance(node, ast.ImportFrom) and node.level:
                imported.update([node.module] if node.module else [alias.name for alias in node.names])
    # a walk that found no edge would pass vacuously
    assert {"codec", "scenario"} <= graph["behavior"] and "scenario" in graph["codec"]
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        raise AssertionError(f"relative imports form a cycle: {exc.args[1]}") from exc


def write_opens(tree):
    """(enclosing function, line) of each builtin open call in tree whose
    mode may write: a mode holding "w", "a", "x" or "+", or one that is not
    a string literal."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            given = node.args[1:2] + [keyword.value for keyword in node.keywords if keyword.arg == "mode"]
            mode = given[0] if given else ast.Constant("r")
            literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            if not literal or set(mode.value) & set("wax+"):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_one_function_opens_files_for_writing():
    opens = []
    for source in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        opens += [(source.stem, function, line) for function, line in write_opens(tree)]
    # a walk that found no open would pass vacuously
    assert [(module, function) for module, function, _ in opens] == [("codec", "_write_text")], opens
