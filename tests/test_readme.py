"""The README's command-line examples, run as written.

Each `jointcert` line of the `sh` block under "Command line" runs as
`python -m jointcert` in a fresh directory, in order, so later lines see the
files earlier ones wrote.  A stated `# exit N` must be the exit code, and a
stated `statistic X` must be the reported statistic within 1e-9.  A line
that states no exit code must still not exit 2.  The strategy-file layout
the section states names the keys of classical.STRATEGY_FIELDS in file order,
and each list's length as that row's dims give it.
"""
import itertools
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import jointcert
from jointcert.classical import STRATEGY_FIELDS, STRATEGY_HEADER
from jointcert.codec import _axes

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
EXIT = re.compile(r"#.*\bexit (\d+)")
STATISTIC = re.compile(r"#.*\bstatistic (sqrt\(([0-9.]+)\)|[0-9.]+)")
SUPERSCRIPTS = {"ⁿ": "n", "ᵏ": "k"}


def command_lines():
    """The `jointcert` lines of the README's command block, with backslash
    continuations joined, each with its trailing comment."""
    text = README.read_text()
    section = text[text.index("## Command line") :]
    block = section[section.index("```sh\n") + len("```sh\n") :]
    block = block[: block.index("```")]
    lines = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("jointcert "):
            lines.append(line)
    return lines


def stated(line):
    """The exit code and statistic a line's comment states, or None."""
    exit_match = EXIT.search(line)
    stat_match = STATISTIC.search(line)
    statistic = None
    if stat_match:
        root = stat_match.group(2)
        statistic = math.sqrt(float(root)) if root else float(stat_match.group(1))
    return (int(exit_match.group(1)) if exit_match else None), statistic


def test_readme_commands_behave_as_stated(tmp_path):
    # the package this suite imports comes first, so the subprocesses run it
    # even where PYTHONPATH holds a relative entry
    source = str(pathlib.Path(jointcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [source] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    lines = command_lines()
    # an extraction that finds nothing would pass vacuously
    assert len(lines) == 9
    assert sum(stated(line)[1] is not None for line in lines) == 2
    for line in lines:
        argv = shlex.split(line, comments=True)
        result = subprocess.run(
            [sys.executable, "-m", "jointcert", *argv[1:]],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        code, statistic = stated(line)
        if code is None:
            assert result.returncode != 2, (line, result.stderr)
        else:
            assert result.returncode == code, (line, result.returncode, result.stderr)
        if statistic is not None:
            report = json.loads(result.stdout)
            assert report["statistic"] == pytest.approx(statistic, abs=1e-9), line


def test_readme_states_the_strategy_file_layout():
    # the bullet list under "Command line" that follows "A strategy file holds"
    text = README.read_text()
    section = text[text.index("## Command line") :]
    layout = section[section.index("A strategy file holds") :]
    layout = layout[layout.index("\n- ") + 1 : layout.index("\n\n", layout.index("\n- "))]
    bullets = layout.split("\n- ")
    keys = [re.findall(r"`(\w+)`", bullet.split(":")[0]) for bullet in bullets]
    assert keys[0] == ["n", "k", *STRATEGY_HEADER]
    assert [key for group in keys[1:] for key in group] == [row[0] for row in STRATEGY_FIELDS]
    # a per-party field is stated as n lists, any other as one list
    for bullet, (_, per_party, _) in zip(bullets[1:], STRATEGY_FIELDS):
        assert bullet.split(":")[1].startswith(" n lists of" if per_party else " one list of"), bullet


def strategy_layout():
    """The bullets of the list under "Command line" that follows "A strategy
    file holds", one per line of the file's keys."""
    text = README.read_text()
    section = text[text.index("## Command line") :]
    layout = section[section.index("A strategy file holds") :]
    layout = layout[layout.index("\n- ") + 1 : layout.index("\n\n", layout.index("\n- "))]
    return layout.split("\n- ")


def stated_count(phrase, sizes):
    """The count a README phrase such as "2k" or "Lⁿ·2ᵏ" states at sizes, a
    dict of n, k and L: a product of factors separated by "·", each a number,
    a size or a number times a size, raised to a superscript size or not."""
    count = 1
    for factor in phrase.split("·"):
        found = re.fullmatch(r"([0-9]*)([nkL]?)([ⁿᵏ]?)", factor)
        assert factor and found, phrase
        base = int(found[1] or 1) * (sizes[found[2]] if found[2] else 1)
        count *= base ** (sizes[SUPERSCRIPTS[found[3]]] if found[3] else 1)
    return count


def test_readme_states_the_strategy_list_lengths():
    # each list's stated count, such as "Lⁿ·2ᵏ", is the entry count of its
    # STRATEGY_FIELDS row's dims on a grid of small shapes
    bullets = strategy_layout()[1:]
    assert len(bullets) == len(STRATEGY_FIELDS)
    for bullet, (key, _, dims) in zip(bullets, STRATEGY_FIELDS):
        phrase = re.search(r" lists? of (\S+) numbers", bullet)
        assert phrase, bullet
        for n, k, L in itertools.product((1, 2, 3), (2, 3, 5), (1, 2, 7)):
            want = math.prod(_axes(dims(n, k, L)))
            assert stated_count(phrase[1], {"n": n, "k": k, "L": L}) == want, (key, n, k, L)
