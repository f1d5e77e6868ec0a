"""The demos import only exported names, and the quick ones run.

classical_search runs the optimizer for seconds, so it is only checked for
its imports; without that check a pruned export could break it unnoticed.
The other demos run in-process and must print their tables.
"""
import ast
import pathlib
import re
import runpy

import pytest

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


# the quick demos: each one's table header and its number of rows
TABLES = {
    "violation_curve": (["p", "M", "N", "statistic", "sqrt(2p)", "verdict"], 21),
    "saturation_boundary": (["r", "M", "N", "r^2", "(1-r)^2", "statistic"], 11),
    "postselection_gap": (["p", "statistic", "chsh", "visibility", "nonclassical", "LHV-simulable", "gap"], 9),
}


@pytest.mark.parametrize("name", TABLES)
def test_quick_demos_print_their_tables(capsys, name):
    header, rows = TABLES[name]
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == header
    # a table row starts with its parameter value
    assert sum(bool(re.match(r" *[0-9]+\.[0-9]+ ", line)) for line in lines) == rows
