"""codec._write_text, the one writer of every file the package writes.

It refuses a path as open(path, "w") does, with the same error text, before
it reads any chunk; it writes a regular file through a temporary file beside
it, so a write that fails part way leaves the path as it was, and several
files all or nothing; and it writes any other file, such as a FIFO, in
place.
"""
import os
import pathlib
import resource
import stat
import subprocess
import sys

import pytest

import jointcert
from jointcert.cli import EXIT_INVALID
from jointcert.codec import _write_text

FSIZE_LIMIT = 4096


def refusal_cases():
    """(id, setup) pairs: setup(folder) builds a case in an empty folder
    and returns the path to write, relative to the folder."""

    def read_only_file(folder):
        (folder / "old.txt").write_text("old\n")
        os.chmod(folder / "old.txt", 0o444)
        return "old.txt"

    def read_only_folder(folder):
        (folder / "locked").mkdir(mode=0o555)
        return os.path.join("locked", "new.txt")

    def parent_is_a_file(folder):
        (folder / "file").write_text("")
        return os.path.join("file", "new.txt")

    def symlink_loop(folder):
        os.symlink("loop", folder / "loop")
        return "loop"

    return [
        ("empty", lambda folder: ""),
        ("missing-parent", lambda folder: os.path.join("missing", "new.txt")),
        ("directory", lambda folder: "."),
        ("trailing-slash", lambda folder: "new" + os.sep),
        ("parent-is-a-file", parent_is_a_file),
        ("symlink-loop", symlink_loop),
        ("read-only-file", read_only_file),
        ("read-only-folder", read_only_folder),
    ]


def outcome(write, path):
    """The type and text of the OSError that write(path) raises, or None."""
    try:
        write(path)
    except OSError as exc:
        return type(exc), str(exc)
    return None


def listing(folder):
    return sorted(str(path.relative_to(folder)) for path in folder.rglob("*"))


@pytest.mark.parametrize("setup", [setup for _, setup in refusal_cases()], ids=[name for name, _ in refusal_cases()])
def test_refuses_what_open_refuses_with_its_text(tmp_path, monkeypatch, setup):
    # each case is built twice, once for open and once for the writer, and
    # written from inside its folder, so the two texts name one path; the
    # read-only cases compare two successes when the suite runs as root
    read = []

    def chunks():
        read.append(True)
        yield "new\n"

    def plain(path):
        with open(path, "w") as fh:
            fh.write("new\n")

    opened, written = tmp_path / "open", tmp_path / "writer"
    opened.mkdir()
    written.mkdir()
    monkeypatch.chdir(opened)
    want = outcome(plain, setup(opened))
    monkeypatch.chdir(written)
    path = setup(written)
    before = listing(written)
    assert outcome(lambda path: _write_text((path, chunks())), path) == want
    if want is None:
        assert (written / path).read_text() == "new\n"
    else:
        assert read == [] and listing(written) == before
    for folder in (opened, written):
        for locked in folder.rglob("*"):
            if not locked.is_symlink():
                os.chmod(locked, 0o755)


@pytest.mark.parametrize("locked", ["old.txt", "."], ids=["file", "folder"])
def test_a_file_the_user_may_not_write_is_not_replaced(tmp_path, monkeypatch, locked):
    # a rename needs only the folder's permission, so the file's own is
    # checked too; a file in a folder the user may not write cannot be
    # replaced; os.access stands in for a user other than root
    old = tmp_path / "old.txt"
    old.write_text("old\n")
    access, locked = os.access, os.path.realpath(tmp_path / locked)
    monkeypatch.setattr(os, "access", lambda path, mode: path != locked and access(path, mode))
    with pytest.raises(PermissionError) as refused:
        _write_text((old, ["new\n"]))
    assert str(refused.value) == f"[Errno 13] Permission denied: {str(old)!r}"
    assert old.read_text() == "old\n" and listing(tmp_path) == ["old.txt"]


def test_a_failed_write_leaves_the_old_bytes_and_no_temporary_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")

    def chunks():
        yield "new"
        raise ValueError("cut short")

    with pytest.raises(ValueError, match="cut short"):
        _write_text((path, chunks()))
    assert path.read_text() == "old\n"
    assert listing(tmp_path) == ["out.txt"]
    with pytest.raises(ValueError, match="cut short"):
        _write_text((tmp_path / "fresh.txt", chunks()))
    assert listing(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("old", [None, "old\n"], ids=["fresh", "old"])
def test_several_files_are_written_all_or_nothing(tmp_path, old):
    # no file is moved into place until every file is whole, and a refused
    # path stops the write before any chunk is read
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    names = [] if old is None else ["first.txt", "second.txt"]
    for path in (first, second)[: len(names)]:
        path.write_text(old)
    read = []

    def chunks():
        read.append(True)
        yield "new"
        raise ValueError("cut short")

    with pytest.raises(FileNotFoundError):
        _write_text((first, chunks()), (tmp_path / "missing" / "third.txt", chunks()))
    assert read == []
    with pytest.raises(ValueError, match="cut short"):
        _write_text((first, ["whole\n"]), (second, chunks()))
    assert listing(tmp_path) == names
    assert all(path.read_text() == old for path in (first, second)[: len(names)])
    _write_text((first, ["one\n"]), (second, ["two\n"]))
    assert (first.read_text(), second.read_text()) == ("one\n", "two\n")
    assert listing(tmp_path) == ["first.txt", "second.txt"]


def test_the_mode_follows_the_umask_and_an_old_file_keeps_its_own(tmp_path):
    old_umask = os.umask(0o027)
    try:
        _write_text((tmp_path / "new.txt", ["new\n"]))
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(os.stat(tmp_path / "new.txt").st_mode) == 0o640
    assert os.stat(tmp_path / "plain.txt").st_mode == os.stat(tmp_path / "new.txt").st_mode
    os.chmod(tmp_path / "new.txt", 0o600)
    _write_text((tmp_path / "new.txt", ["again\n"]))
    assert stat.S_IMODE(os.stat(tmp_path / "new.txt").st_mode) == 0o600
    assert (tmp_path / "new.txt").read_text() == "again\n"


def test_a_symlink_is_written_through(tmp_path):
    target, link, dangling = tmp_path / "target.txt", tmp_path / "link.txt", tmp_path / "dangling.txt"
    target.write_text("old\n")
    os.symlink(target.name, link)
    _write_text((link, ["new\n"]))
    assert link.is_symlink() and target.read_text() == "new\n"
    # a symlink to no file makes its target, as open does
    os.symlink("made.txt", dangling)
    _write_text((dangling, ["made\n"]))
    assert dangling.is_symlink() and (tmp_path / "made.txt").read_text() == "made\n"
    assert listing(tmp_path) == ["dangling.txt", "link.txt", "made.txt", "target.txt"]


def test_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # a reader opened first lets the writer's open return at once
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        _write_text((fifo, ["through ", "the pipe\n"]))
        assert os.read(reader, 100) == b"through the pipe\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert listing(tmp_path) == ["fifo"]


def limit_file_size():
    resource.setrlimit(resource.RLIMIT_FSIZE, (FSIZE_LIMIT, FSIZE_LIMIT))


SAVE_33 = (
    "import sys, numpy as np; from jointcert import BehaviorTensor, ScenarioShape, save_behavior; "
    "shape = ScenarioShape(3, 3); "
    "save_behavior(BehaviorTensor(shape, np.random.default_rng(3).random(shape.tensor_shape)), sys.argv[1])"
)


@pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["fresh", "existing"])
@pytest.mark.parametrize(
    "argv", [["-m", "jointcert", "sweep", "--steps", "101", "--out"], ["-c", SAVE_33]], ids=["sweep", "save_behavior"]
)
def test_a_write_past_the_file_size_limit_leaves_the_path_as_it_was(tmp_path, argv, old):
    # the child alone runs under RLIMIT_FSIZE, so its write fails with EFBIG
    # after 4096 bytes; Python ignores SIGXFSZ, so the write raises
    path = tmp_path / "out"
    if old is not None:
        path.write_bytes(old)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    source = str(pathlib.Path(jointcert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([source] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    result = subprocess.run(
        [sys.executable, *argv, str(path)],
        preexec_fn=limit_file_size,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "File too large" in result.stderr
    if argv[0] == "-m":
        assert result.returncode == EXIT_INVALID
        assert result.stderr.splitlines() == ["error: [Errno 27] File too large"]
    else:
        assert result.returncode != 0
    if old is None:
        assert listing(tmp_path) == []
    else:
        assert listing(tmp_path) == ["out"] and path.read_bytes() == old
