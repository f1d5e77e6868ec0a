"""The package's runtime dependency is numpy alone.

Every import under src/jointcert names the standard library, numpy, or the
package itself by a relative import.  scipy, sympy and Hypothesis serve the
tests only.
"""
import ast
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
