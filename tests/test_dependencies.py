"""The package's runtime dependency is numpy alone, and its own modules
import each other without a cycle.

Every import under src/jointcert names the standard library, numpy, or the
package itself by a relative import.  scipy, sympy and Hypothesis serve the
tests only.  Every import statement sits at module level, so no module can
lean on a lazy import to break a cycle.
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
