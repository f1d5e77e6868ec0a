"""The demos import only exported names.

Nothing runs the demos, so without this check a pruned export could break
them unnoticed.
"""
import ast
import pathlib

import jointcert

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_demo_imports_are_exported():
    checked = 0
    for script in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(), filename=str(script))):
            if isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] != "jointcert" for alias in node.names), (
                    f"{script.name}: import names from jointcert instead"
                )
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "jointcert":
                for alias in node.names:
                    assert alias.name in jointcert.__all__, f"{script.name} imports {alias.name}"
                    checked += 1
    assert checked > 0


def test_exported_names_resolve():
    for name in jointcert.__all__:
        assert hasattr(jointcert, name), name
