"""The package's runtime dependency is numpy alone, its own modules import
each other without a cycle, and one function writes every file.

Every import under src/jointcert names the standard library, numpy, or the
package itself by a relative import.  scipy, sympy and Hypothesis serve the
tests only.  Every import statement sits at module level, so no module can
lean on a lazy import to break a cycle.  Every builtin open that may write
sits in codec._write_text, so its no-partial-file rule covers every output.
Every array a cached function returns is shared by the whole process, so it
is read-only, and one helper, scenario._read_only, makes arrays read-only.
"""
import ast
import graphlib
import importlib
import pathlib
import sys

import numpy as np

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


def package_calls(matches):
    """(module, enclosing function, line) of each call node in the package
    that matches."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and matches(node):
            found.append((module, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for source in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(source.read_text(), filename=str(source)), source.stem, None)
    return found


def write_open(call):
    """Whether call is a builtin open whose mode may write: a mode holding
    "w", "a", "x" or "+", or one that is not a string literal."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    given = call.args[1:2] + [keyword.value for keyword in call.keywords if keyword.arg == "mode"]
    mode = given[0] if given else ast.Constant("r")
    literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
    return not literal or bool(set(mode.value) & set("wax+"))


def test_one_function_opens_files_for_writing():
    opens = package_calls(write_open)
    # a walk that found no open would pass vacuously
    assert [(module, function) for module, function, _ in opens] == [("codec", "_write_text")], opens


def freeze(call):
    """Whether call is some_array.setflags(write=False)."""
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "setflags"
        and any(ast.unparse(keyword) == "write=False" for keyword in call.keywords)
    )


def test_one_helper_makes_arrays_read_only():
    freezes = package_calls(freeze)
    # a walk that found no freeze would pass vacuously
    assert [(module, function) for module, function, _ in freezes] == [("scenario", "_read_only")], freezes


# the decorators that make a function a cache
CACHES = ("functools.cache", "_read_only_cache")
# one sample call per cached function in the package, as
# (module, function): arguments; a new cache must be listed here
CACHE_CALLS = {
    ("behavior", "_party_signs"): (2,),
    ("behavior", "_charlie_bit_signs"): (2,),
    ("cli", "build_parser"): (),
    ("codec", "_kernel_tables"): (),
    ("postselect", "_pauli_pairs"): (),
    ("quantum", "_bell_projectors"): (),
    ("quantum", "_state_tensor"): (),
    ("quantum", "_projector_stack"): (0,),
    ("quantum", "_closed_form_signs"): (),
}


def arrays_in(value):
    """The ndarrays in value, itself or inside nested tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [arr for item in value for arr in arrays_in(item)]
    return []


def test_cached_arrays_are_read_only():
    cached = set()
    for source in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(ast.unparse(decorator) in CACHES for decorator in node.decorator_list):
                    cached.add((source.stem, node.name))
    assert cached == set(CACHE_CALLS)
    writable, checked = [], 0
    for (module, name), args in CACHE_CALLS.items():
        for arr in arrays_in(getattr(importlib.import_module(f"jointcert.{module}"), name)(*args)):
            checked += 1
            if arr.flags.writeable:
                writable.append(f"{module}.{name}")
    assert writable == []
    # every cache but the parser returns arrays; finding none would pass vacuously
    assert checked >= len(CACHE_CALLS) - 1
