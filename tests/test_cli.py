import contextlib
import csv
import errno
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jointcert
from jointcert.behavior import (
    BehaviorTensor,
    InvalidBehaviorError,
    ScenarioShape,
    independence_residual,
    load_behavior,
    save_behavior,
    signalling_residuals,
)
from jointcert import classical, cli
from jointcert.classical import load_strategy, strategy_to_behavior
from jointcert.cli import EXIT_INVALID, EXIT_OK, EXIT_VIOLATED, MAX_SWEEP_STEPS, SWEEP_BLOCK, SWEEP_COLUMNS, _fmt, main
from jointcert.inequalities import evaluate_mn
from jointcert.postselect import gap_report
from jointcert.quantum import closed_form_behavior
from test_loader_properties import mutated, mutated_texts, saved_docs, saved_texts, doc_path  # noqa: F401
from test_writer import listing


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_certify_round_trip_violated(tmp_path, capsys):
    path = tmp_path / "q.json"
    assert main(["gen", "quantum", "--p", "0.8", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    code, out, _ = run(capsys, "certify", str(path))
    assert code == EXIT_VIOLATED
    report = json.loads(out)
    assert report["statistic"] == pytest.approx(np.sqrt(1.6), abs=1e-9)
    assert report["violated"] is True
    assert report["bound"] == 1.0


def test_certify_uniform_not_violated(tmp_path, capsys):
    path = tmp_path / "u.json"
    save_behavior(BehaviorTensor.uniform(ScenarioShape(2, 2)), path)
    code, out, _ = run(capsys, "certify", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["statistic"] == pytest.approx(0.0, abs=1e-12)


def test_certify_saturation_boundary_exits_zero(tmp_path, capsys):
    path = tmp_path / "s.json"
    assert main(["gen", "saturation", "--r", "0.25", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    for mode in ("mn", "chain"):
        code, out, _ = run(capsys, "certify", str(path), "--mode", mode)
        assert code == EXIT_OK  # statistic 1 is within tolerance of the bound
        assert json.loads(out)["statistic"] == pytest.approx(1.0, abs=1e-12)


def test_certify_closed_form_matches_quantum(tmp_path, capsys):
    qp = tmp_path / "q.json"
    cp = tmp_path / "c.json"
    main(["gen", "quantum", "--p", "0.3", "--out", str(qp)])
    main(["gen", "closed-form", "--p", "0.3", "--out", str(cp)])
    capsys.readouterr()
    code_q, out_q, _ = run(capsys, "certify", str(qp))
    code_c, out_c, _ = run(capsys, "certify", str(cp))
    assert code_q == code_c == EXIT_OK
    sq = json.loads(out_q)["statistic"]
    sc = json.loads(out_c)["statistic"]
    assert sq == pytest.approx(sc, abs=1e-10)


def test_certify_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "k": 2, "probabilities": [0.5]}')
    code, _, err = run(capsys, "certify", str(path))
    assert code == EXIT_INVALID
    assert "probabilities" in err


def test_certify_rejects_invariant_violation(tmp_path, capsys):
    arr = BehaviorTensor.uniform(ScenarioShape(2, 2)).probabilities.copy()
    arr[0, 0] *= 1.5
    path = tmp_path / "unnorm.json"
    save_behavior(BehaviorTensor(ScenarioShape(2, 2), arr), path)
    code, _, err = run(capsys, "certify", str(path))
    assert code == EXIT_INVALID
    assert "sums to" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.replace("0.0625", "NaN", 1), "non-finite"),
        (lambda text: text.replace("0.0625", "Infinity", 1), "non-finite"),
        (lambda text: text.replace('"n": 2', '"n": true'), "n must be an integer"),
        (lambda text: text.replace('"k": 2', '"k": 2.5'), "k must be an integer"),
        (lambda text: '{"n": 64, "k": 2, "probabilities": []}', "probabilities"),
        (lambda text: '{"n": 2, "k": 2, "probabilities": [%s]}' % ", ".join(['"a"'] * 64), "numbers"),
        (lambda text: text.replace('"n": 2', '"n": 1000000000'), "exceeds numpy's 64"),
        (lambda text: text.replace('"n": 2', '"n": ' + "9" * 5000), "not valid JSON"),
        (lambda text: text.replace("0.0625", "1" + "0" * 400, 1), "numbers"),
        (lambda text: "[" * 10**5, "not valid JSON"),
        (lambda text: text.replace("0.0625", '"0.0625"'), "got strings"),
        (lambda text: text.replace("0.0625", '"6.25e-2"', 1), "got strings"),
        (
            lambda text: '{"n": 2, "k": 2, "probabilities": [%s]}' % ", ".join((["true"] + ["false"] * 15) * 4),
            "got booleans",
        ),
    ],
    ids=[
        "nan", "inf", "bool-n", "fractional-k", "overflowing-shape", "strings", "huge-n",
        "huge-literal", "huge-entry", "deep-nesting", "numeric-strings", "one-numeric-string",
        "booleans",
    ],
)
def test_certify_rejects_bad_numbers(tmp_path, capsys, edit, message):
    path = tmp_path / "bad.json"
    save_behavior(BehaviorTensor.uniform(ScenarioShape(2, 2)), path)
    path.write_text(edit(path.read_text()))
    code, out, err = run(capsys, "certify", str(path))
    assert code == EXIT_INVALID
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"n": "2" * 10**6}, "n must be an integer, got '2222"),
        ({"k": [2] * 10**5}, "k must be an integer, got [2, 2"),
        ({"n": -(10**4000)}, "need at least one party, got n=an integer of 13288 bits"),
    ],
    ids=["long-string", "long-list", "long-negative"],
)
def test_certify_refusal_shows_a_long_value_cut_short(tmp_path, capsys, edit, message):
    # a refused value read from a file can be megabytes long; the error line
    # shows its start and its length
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"n": 2, "k": 2, "probabilities": [1 / 16] * 64, **edit}))
    code, out, err = run(capsys, "certify", str(path))
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
    assert message in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
def test_certify_refuses_bad_tolerance(tmp_path, capsys, tol):
    # without the check, nan and inf pass a statistic of sqrt(2) as not
    # violated, and -0.5 turns a behavior at the bound into a violation
    quantum, saturation = tmp_path / "q.json", tmp_path / "s.json"
    main(["gen", "quantum", "--p", "1.0", "--out", str(quantum)])
    main(["gen", "saturation", "--r", "0.25", "--out", str(saturation)])
    capsys.readouterr()
    for path in (quantum, saturation, tmp_path / "missing.json"):
        code, out, err = run(capsys, "certify", str(path), "--tol", tol)
        assert code == EXIT_INVALID
        assert out == ""
        # refused before the file is read, so the missing file goes unnamed
        assert err.startswith("error:") and "--tol" in err and "missing" not in err


def test_certify_missing_file(capsys):
    code, _, err = run(capsys, "certify", "/nonexistent/behavior.json")
    assert code == EXIT_INVALID
    assert err


def test_shared_coin_mixture_of_classical_devices_reads_violated(tmp_path, capsys):
    # the bound assumes independent hidden sources: devices that share one
    # fair coin choosing (M, N) = (1, 0) or (0, 1) break it while classical;
    # the coin also correlates the parties' outputs, which independent
    # sources forbid, so certify refuses the file
    pure = [strategy_to_behavior(classical.saturation_strategy(r)).probabilities for r in (1.0, 0.0)]
    for arr, components in zip(pure, [(1.0, 0.0), (0.0, 1.0)]):
        assert evaluate_mn(BehaviorTensor(ScenarioShape(2, 2), arr)).components == components
    mixture = BehaviorTensor(ScenarioShape(2, 2), 0.5 * pure[0] + 0.5 * pure[1])
    report = evaluate_mn(mixture)
    assert report.statistic == pytest.approx(np.sqrt(2), abs=1e-12)
    assert report.violated and report.floor == pytest.approx(1.41421356237309, abs=1e-14)
    path = tmp_path / "coin.json"
    save_behavior(mixture, path)
    code, out, err = run(capsys, "certify", str(path))
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("error: the parties' outputs are correlated") and err.count("\n") == 1
    assert "by 5.000e-01 in total variation" in err


def test_a_shared_coin_with_independent_parties_still_reads_violated(tmp_path, capsys):
    # the README's shared source that validation cannot see: private bits
    # u_j, one coin z seen by every device, a_j = u_j xor (x_j and z), and
    # the outcome's c_z = u_0 xor u_1 beside a fresh bit; the parties'
    # outputs are independent and nothing signals, yet M = N = 1/2
    arr = np.zeros(ScenarioShape(2, 2).tensor_shape)
    for x, y, u0, u1, z, fresh in itertools.product(range(2), repeat=6):
        c = (u0 ^ u1, fresh) if z == 0 else (fresh, u0 ^ u1)
        arr[x, y, u0 ^ (x & z), u1 ^ (y & z), c[0], c[1]] += 1 / 16
    behavior = BehaviorTensor(ScenarioShape(2, 2), arr)
    assert independence_residual(behavior) == 0.0 and signalling_residuals(behavior).max() == 0.0
    path = tmp_path / "shared.json"
    save_behavior(behavior, path)
    code, out, _ = run(capsys, "certify", str(path))
    assert code == EXIT_VIOLATED
    assert json.loads(out)["components"] == [0.5, 0.5]


def test_certify_refuses_the_signalling_example(tmp_path, capsys):
    # a_1 = 0, a_2 = c_0 with c_0 uniform, c_1 = c_0 xor x xor y: the
    # statistic would be the algebraic maximum 2, but both settings reach the
    # outcome, which no causal model of the scenario allows
    arr = np.zeros(ScenarioShape(2, 2).tensor_shape)
    for x, y, c0 in itertools.product(range(2), repeat=3):
        arr[x, y, 0, c0, c0, c0 ^ x ^ y] = 0.5
    behavior = BehaviorTensor(ScenarioShape(2, 2), arr)
    assert evaluate_mn(behavior).statistic == 2.0
    np.testing.assert_array_equal(signalling_residuals(behavior), [1.0, 1.0])
    path = tmp_path / "signalling.json"
    save_behavior(behavior, path)
    code, out, err = run(capsys, "certify", str(path))
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("error: party 0 signals")
    assert "party 1 signals" in err and "by 1.000e+00 in total variation" in err


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    nk=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    epsilon=st.floats(1e-8, 0.1),
    data=st.data(),
)
def test_certify_refuses_mass_moved_within_one_setting(tmp_path, capsys, nk, epsilon, data):
    # outputs a_j = f_j(x_j) and a uniform outcome do not signal; moving
    # epsilon from one cell to the cell with party m's output flipped keeps
    # every slice normalized, is invisible to P(a_-m, c | x), and moves
    # every other party's view by epsilon
    n, k = nk
    shape = ScenarioShape(n, k)
    functions = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=n, max_size=n))
    arr = np.zeros(shape.tensor_shape)
    for x in itertools.product(range(k), repeat=n):
        arr[x + tuple(functions[j][x[j]] for j in range(n))] = 1.0 / 2**k
    x = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    c = tuple(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
    m = data.draw(st.integers(0, n - 1))
    a = [functions[j][x[j]] for j in range(n)]
    source = x + tuple(a) + c
    a[m] = 1 - a[m]
    arr[source] -= epsilon
    arr[x + tuple(a) + c] += epsilon
    behavior = BehaviorTensor(shape, arr)
    residuals = signalling_residuals(behavior)
    assert residuals[m] == 0.0
    np.testing.assert_allclose(np.delete(residuals, m), epsilon, rtol=1e-6)
    path = tmp_path / "moved.json"
    save_behavior(behavior, path)
    with pytest.raises(InvalidBehaviorError, match="signals"):
        load_behavior(path, strict=True)
    capsys.readouterr()
    code, out, err = run(capsys, "certify", str(path))
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("error: party")
    named = [j for j in range(n) if f"party {j} signals" in err]
    assert named == [j for j in range(n) if j != m]
    assert "sums to" not in err


def test_certify_mode_mismatch(tmp_path, capsys):
    path = tmp_path / "b3.json"
    save_behavior(BehaviorTensor.uniform(ScenarioShape(3, 2)), path)
    # auto mode picks the chain form and succeeds
    code, out, _ = run(capsys, "certify", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["bound"] == 1.0
    # forcing the two-party form fails cleanly
    code, _, err = run(capsys, "certify", str(path), "--mode", "mn")
    assert code == EXIT_INVALID
    assert "n = k = 2" in err


def test_sweep_csv_contents(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--out", str(path))
    assert code == EXIT_OK
    raw = path.read_bytes()
    assert b"\r\n" in raw  # RFC-4180 line endings
    lines = raw.decode().strip().split("\r\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 12
    gap_rows = []
    for line in lines[1:]:
        fields = line.split(",")
        p = float(fields[0])
        statistic = float(fields[3])
        assert statistic == pytest.approx(np.sqrt(2 * p), abs=1e-9)
        assert float(fields[4]) == pytest.approx(2 * np.sqrt(2) * p, abs=1e-9)
        assert float(fields[5]) == pytest.approx(p, abs=1e-9)
        if fields[8] == "true":
            gap_rows.append(round(p, 1))
    assert gap_rows == [0.6]
    # the p = 0 row has exactly zero correlator columns
    first = lines[1].split(",")
    assert first[1] == "0" and first[2] == "0" and first[3] == "0"


def test_sweep_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "sweep", "--steps", "5", "--out", str(a))
    run(capsys, "sweep", "--steps", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# sha256 of the sweep CSV before the post-selection pass was stacked: the
# README's grid and a 101-point grid like the benchmark's
SWEEP_DIGESTS = {
    ("--steps", "11"): "b458836c3950fa3d61eb249a70cd1dfc3a696ca43e8235f5809315006c691fa7",
    ("--pmin", "0.0043", "--pmax", "0.9943", "--steps", "101"): (
        "3afc1977e70538db9e73ae3baa6acd50bd27d1699c60d99b0bacc62f171f230e"
    ),
    # three blocks of the sweep: 256 + 256 + 88 values of p
    ("--pmin", "0.0017", "--pmax", "0.9983", "--steps", "600"): (
        "649d1c28c2f54550581aad0b1c016c7cde242c89333de88e1ecce3c97de391d4"
    ),
}


@pytest.mark.parametrize("flags", list(SWEEP_DIGESTS))
def test_sweep_bytes_are_pinned(tmp_path, capsys, flags):
    path = tmp_path / "sweep.csv"
    assert run(capsys, "sweep", *flags, "--out", str(path))[0] == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_DIGESTS[flags]


def test_sweep_across_a_block_boundary_writes_the_rows_of_one_p_at_a_time(tmp_path, capsys):
    steps = SWEEP_BLOCK + 1
    path = tmp_path / "sweep.csv"
    flags = ("--pmin", "0.2", "--pmax", "0.9", "--steps", str(steps), "--tol", "1e-12")
    assert run(capsys, "sweep", *flags, "--out", str(path))[0] == EXIT_OK
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for p in np.linspace(0.2, 0.9, steps):
            exact = evaluate_mn(closed_form_behavior(p))
            gap = gap_report(p, tol=1e-12)
            row = (p, *exact.components, exact.statistic, gap.chsh_max, gap.werner_visibility)
            verdicts = (gap.jointly_nonclassical, gap.postselected_lhv_simulable, gap.gap_witness)
            writer.writerow([_fmt(value) for value in row + verdicts])
    assert path.read_bytes() == want.read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=2, max_value=30),
    st.sampled_from([0.0, 1e-12, 1e-9, 0.1]),
)
def test_stacked_sweep_rows_are_the_per_p_routes_bit_for_bit(a, b, steps, tol):
    # blocks of 7 cut short grids several times; each row's correlator
    # columns must be evaluate_mn of closed_form_behavior at its p, and its
    # post-selection columns gap_report at its p, to the last bit
    grid = np.linspace(min(a, b), max(a, b), steps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "SWEEP_BLOCK", 7)
        lines = list(cli._sweep_lines(grid, tol))
    want = [",".join(SWEEP_COLUMNS) + "\r\n"]
    for p in grid:
        exact, gap = evaluate_mn(closed_form_behavior(p)), gap_report(p, tol)
        row = (p, *exact.components, exact.statistic, gap.chsh_max, gap.werner_visibility)
        flags = (gap.jointly_nonclassical, gap.postselected_lhv_simulable, gap.gap_witness)
        want.append(",".join(_fmt(value) for value in row + flags) + "\r\n")
    assert lines == want


def test_sweep_memory_does_not_grow_with_the_grid(tmp_path, capsys):
    def peak(steps):
        tracemalloc.start()
        try:
            run(capsys, "sweep", "--steps", str(steps), "--out", str(tmp_path / f"{steps}.csv"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run(capsys, "sweep", "--steps", "3", "--out", str(tmp_path / "warm.csv"))  # caches filled
    one_block, four_blocks = peak(SWEEP_BLOCK), peak(4 * SWEEP_BLOCK)
    assert four_blocks <= 1.2 * one_block, (one_block, four_blocks)


def test_sweep_validates_range(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--pmin", "0.9", "--pmax", "0.1", "--out", str(tmp_path / "x.csv"))
    assert code == EXIT_INVALID and "pmin" in err
    code, _, err = run(capsys, "sweep", "--steps", "1", "--out", str(tmp_path / "x.csv"))
    assert code == EXIT_INVALID and "steps" in err
    # refused before the grid is built or the output file is opened
    out = tmp_path / "huge.csv"
    code, _, err = run(capsys, "sweep", "--steps", "100000000000", "--out", str(out))
    assert code == EXIT_INVALID and "steps" in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
def test_sweep_refuses_bad_tolerance(tmp_path, capsys, tol):
    # a nan tolerance used to flip jointly_nonclassical to false at p = 1
    out = tmp_path / "sweep.csv"
    code, stdout, err = run(capsys, "sweep", "--tol", tol, "--out", str(out))
    assert code == EXIT_INVALID
    assert stdout == ""
    assert err.startswith("error:") and "--tol" in err
    assert not out.exists()


SWEEP_NUMBERS = ["0", "0.25", "0.5", "1", "1e-12", "nan", "inf", "-inf", "-0.5", "1.5", "abc", ""]
SWEEP_STEPS = ["1", "2", "3", "17", "50", str(MAX_SWEEP_STEPS + 1), "100000000000", "-4", "x"]


@settings(max_examples=120, deadline=None)
@given(
    st.dictionaries(st.sampled_from(["--pmin", "--pmax", "--tol"]), st.sampled_from(SWEEP_NUMBERS)),
    st.none() | st.sampled_from(SWEEP_STEPS),
    st.sampled_from(["fresh", "directory", "missing-parent", "/dev/full"]),
)
def test_sweep_exits_0_or_2_with_one_error_line_and_no_new_file(numbers, steps, output):
    # every input gives 0 or 2, returned or raised by argparse, and never a
    # traceback; a refusal writes one error: line and creates no file.
    # Valid grids stay at 50 steps or fewer: longer ones are refused before
    # a grid is built
    if output == "/dev/full" and not os.path.exists(output):
        return
    with tempfile.TemporaryDirectory() as name:
        folder = pathlib.Path(name)
        (folder / "directory").mkdir()
        paths = {"fresh": folder / "out.csv", "directory": folder / "directory", "missing-parent": folder / "x" / "out"}
        out = str(paths.get(output, output))
        argv = ["sweep", *itertools.chain.from_iterable(numbers.items()), "--out", out]
        argv += ["--steps", steps] if steps is not None else []
        before = listing(folder)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as stdout:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's refusal of a flag's text
                code, returned = exc.code, False
            else:
                returned = True
        err = err.getvalue()
        assert code in (EXIT_OK, EXIT_INVALID), (argv, err)
        assert "Traceback" not in err and stdout.getvalue() == ""
        if code == EXIT_INVALID:
            if returned:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
            assert listing(folder) == before, argv
        else:
            assert err == "" and output == "fresh"
            rows = pathlib.Path(out).read_bytes().count(b"\r\n")
            assert rows == 1 + int(steps if steps is not None else 11)


def exits_by_contract(argv, folder, codes=(EXIT_OK, EXIT_INVALID, EXIT_VIOLATED)):
    """main(argv) run in-process on outputs under folder: the exit code,
    returned or raised by argparse, is one of codes, no traceback appears
    and no warning is issued; a returned 2 writes one error: line and
    nothing to stdout, or only problem: lines for validate-povm, and a 2
    creates no file under folder.  Returns the exit code and stdout."""
    before = listing(folder)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusal of a flag's text
            code, returned = exc.code, False
        else:
            returned = True
    out, err = out.getvalue(), err.getvalue()
    assert code in codes, (argv, err)
    assert "Traceback" not in err, argv
    assert not caught, (argv, [str(warning.message) for warning in caught])
    if code == EXIT_INVALID:
        lines = err.splitlines()
        if argv[0] == "validate-povm" and returned:
            assert lines and all(line.startswith("problem: ") for line in lines), (argv, err)
        elif returned:
            assert len(lines) == 1 and lines[0].startswith("error: ") and out == "", (argv, err)
        assert listing(folder) == before, argv
    return code, out


# flag values: valid, NaN, infinite, negative, huge and not numbers at all
FLAG_NUMBERS = ["0", "0.3", "0.5", "0.8", "1", "nan", "inf", "-inf", "-0.5", "1.5", "1e308", "abc"]
FLAG_INTS = ["1", "2", "3", "0", "-1", "1000000000", "x"]
# behavior files of finite entries whose sums overflow
HUGE_BEHAVIORS = {
    "1e308": {"n": 2, "k": 2, "probabilities": [1e308] * 64},
    "+-1e308": {"n": 2, "k": 2, "probabilities": [1e308, -1e308] * 32},
}
OUTPUTS = ["fresh", "directory", "missing-parent", "/dev/full"]


def output_path(folder, output):
    """The --out path named by one of OUTPUTS, with folder/directory made."""
    (folder / "directory").mkdir(exist_ok=True)
    paths = {"fresh": folder / "out.json", "directory": folder / "directory", "missing-parent": folder / "x" / "out"}
    return str(paths.get(output, output))


def flags(data, names, values):
    """Each of names with a value drawn from values, or left out."""
    chosen = data.draw(st.dictionaries(st.sampled_from(names), st.sampled_from(values)))
    return list(itertools.chain.from_iterable(chosen.items()))


@settings(max_examples=160, deadline=None)
@given(command=st.sampled_from(["certify", "gen", "optimize", "validate-povm"]), data=st.data())
def test_certify_gen_optimize_and_validate_povm_exit_by_contract(saved_texts, saved_docs, command, data):
    # the sweep's property (above) for the other subcommands: 0, 2 or 10, 0
    # or 2 for validate-povm, with one error: line and no new file on 2, and
    # never a traceback or a numpy warning.  optimize runs at most 2
    # restarts of 3 iterations
    outputs = st.sampled_from([o for o in OUTPUTS if o != "/dev/full" or os.path.exists(o)])
    with tempfile.TemporaryDirectory() as name:
        folder = pathlib.Path(name)
        codes = (EXIT_OK, EXIT_INVALID, EXIT_VIOLATED)
        if command == "certify":
            source = data.draw(st.sampled_from(["text", "document", *HUGE_BEHAVIORS, "missing", "directory"]))
            path = folder / "in.json"
            if source == "text":
                path.write_text(data.draw(mutated_texts(saved_texts)))
            elif source == "document":
                path.write_text(json.dumps(data.draw(mutated(saved_docs))))
            elif source in HUGE_BEHAVIORS:
                path.write_text(json.dumps(HUGE_BEHAVIORS[source]))
            elif source == "directory":
                path.mkdir()
            argv = ["certify", str(path), *flags(data, ["--tol"], FLAG_NUMBERS), *flags(data, ["--mode"], ["mn", "chain"])]
        elif command == "gen":
            family = data.draw(st.sampled_from(["quantum", "closed-form", "saturation"]))
            argv = ["gen", family, *flags(data, ["--p", "--r"], FLAG_NUMBERS), "--out", output_path(folder, data.draw(outputs))]
        elif command == "optimize":
            argv = ["optimize", *flags(data, ["--n", "--k", "--alphabet", "--seed"], FLAG_INTS)]
            argv += ["--restarts", data.draw(st.sampled_from(["1", "2", "0", "-1", "x"]))]
            argv += ["--iterations", data.draw(st.sampled_from(["0", "3", "-1", "x"]))]
            for flag in data.draw(st.sets(st.sampled_from(["--report-out", "--strategy-out"]))):
                argv += [flag, output_path(folder, data.draw(outputs))]
        else:
            argv, codes = ["validate-povm", *flags(data, ["--p"], FLAG_NUMBERS)], (EXIT_OK, EXIT_INVALID)
        exits_by_contract(argv, folder, codes)


@pytest.mark.parametrize(
    "argv",
    [["certify", "{1e308}"], ["certify", "{+-1e308}"], ["validate-povm", "--p", "inf"], ["validate-povm", "--p", "1e308"]],
)
def test_finite_but_huge_inputs_are_refused_without_numpy_warnings(tmp_path, argv):
    # their sums and squares overflow; the refusal reports it, numpy does not
    for label, behavior in HUGE_BEHAVIORS.items():
        (tmp_path / f"{label}.json").write_text(json.dumps(behavior))
    argv = [arg.format_map({label: str(tmp_path / f"{label}.json") for label in HUGE_BEHAVIORS}) for arg in argv]
    code, _ = exits_by_contract(argv, tmp_path)
    assert code == EXIT_INVALID


def test_optimize_outputs_byte_identical(tmp_path, capsys):
    args = [
        "optimize", "--n", "2", "--k", "2", "--alphabet", "2",
        "--restarts", "3", "--seed", "11", "--iterations", "40",
    ]
    r1 = tmp_path / "r1.json"
    s1 = tmp_path / "s1.json"
    code, out1, _ = run(capsys, *args, "--report-out", str(r1), "--strategy-out", str(s1))
    assert code == EXIT_OK
    r2 = tmp_path / "r2.json"
    s2 = tmp_path / "s2.json"
    _, out2, _ = run(capsys, *args, "--report-out", str(r2), "--strategy-out", str(s2))
    assert out1 == out2
    assert r1.read_bytes() == r2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()
    report = json.loads(out1)
    assert report["statistic"] <= report["bound"] + 1e-6
    assert json.loads(s1.read_text())["n"] == 2


def test_optimized_strategy_on_a_rounding_residue_certifies_as_classical(tmp_path, capsys):
    # the printed statistic exceeds the bound by 1.6e-6 of rounding in a
    # vanishing component; certify used to exit 10 on this classical behavior
    strategy_path, behavior_path = tmp_path / "s.json", tmp_path / "b.json"
    code, out, _ = run(
        capsys, "optimize", "--n", "3", "--k", "2", "--alphabet", "2", "--restarts", "100",
        "--seed", "1501", "--strategy-out", str(strategy_path),
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["statistic"] > report["bound"] >= report["floor"]
    assert report["violated"] is False
    save_behavior(strategy_to_behavior(load_strategy(strategy_path)), behavior_path)
    code, out, _ = run(capsys, "certify", str(behavior_path))
    assert code == EXIT_OK
    assert json.loads(out)["violated"] is False


def test_optimize_rejects_bad_flags(capsys):
    code, _, err = run(capsys, "optimize", "--n", "0", "--k", "2")
    assert code == EXIT_INVALID
    assert "party" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--iterations", "-5"], "iterations"),
        (["--n", "1000000000"], "logits"),
        (["--restarts", "1000000000000"], "logits"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ],
    ids=["negative-iterations", "huge-n", "huge-restarts", "negative-seed"],
)
def test_optimize_rejects_bad_sizes(capsys, flags, message):
    code, out, err = run(capsys, "optimize", *flags)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("flag", ["--report-out", "--strategy-out"])
def test_optimize_unwritable_output(tmp_path, capsys, monkeypatch, flag):
    # an unwritable path is refused before the ascent runs, and the other,
    # writable output is neither created nor truncated
    def no_ascent(*args, **kwargs):
        raise AssertionError("optimize_classical ran before the paths were checked")

    monkeypatch.setattr(cli, "optimize_classical", no_ascent)
    other = {"--report-out": "--strategy-out", "--strategy-out": "--report-out"}[flag]
    good = tmp_path / "good.json"
    for target, message in [
        (tmp_path / "missing" / "out.json", "No such file"),
        (tmp_path, "Is a directory"),
        ("", "No such file"),
    ]:
        for extra in ([], [other, str(good)]):
            code, out, err = run(
                capsys, "optimize", "--restarts", "1", "--iterations", "1", flag, str(target), *extra
            )
            assert code == EXIT_INVALID
            assert out == ""
            assert err.startswith("error:") and message in err
            assert not good.exists()
    good.write_text("kept\n")
    code, _, _ = run(capsys, "optimize", flag, str(tmp_path / "missing" / "out.json"), other, str(good))
    assert code == EXIT_INVALID
    assert good.read_text() == "kept\n"


def test_optimize_refuses_one_file_for_both_outputs(tmp_path, capsys, monkeypatch):
    # the strategy would overwrite the report; refused before the ascent,
    # also when the two spellings only resolve to the same file
    def no_ascent(*args, **kwargs):
        raise AssertionError("optimize_classical ran before the paths were checked")

    monkeypatch.setattr(cli, "optimize_classical", no_ascent)
    (tmp_path / "sub").mkdir()
    target = tmp_path / "out.json"
    for other in (target, tmp_path / "sub" / ".." / "out.json"):
        code, out, err = run(capsys, "optimize", "--report-out", str(target), "--strategy-out", str(other))
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error:") and "same file" in err
        assert not target.exists()


def test_optimize_refuses_a_hard_link_pair(tmp_path, capsys):
    # two names of one file resolve to different paths; neither is written
    report, link = tmp_path / "r.json", tmp_path / "s.json"
    report.write_text("kept\n")
    os.link(report, link)
    outputs = ["--report-out", str(report), "--strategy-out", str(link)]
    code, out, err = run(capsys, "optimize", "--restarts", "1", "--iterations", "1", *outputs)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error:") and "same file" in err and err.count("\n") == 1
    assert report.read_bytes() == link.read_bytes() == b"kept\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("full", ["--report-out", "--strategy-out"])
@pytest.mark.parametrize("old", [None, b"old\n"], ids=["fresh", "old"])
def test_optimize_writes_both_outputs_or_neither(tmp_path, capsys, full, old):
    # the strategy's write to /dev/full used to fail after the report was
    # in place, leaving a whole report beside no strategy
    other = {"--report-out": "--strategy-out", "--strategy-out": "--report-out"}[full]
    path = tmp_path / "r.json"
    if old is not None:
        path.write_bytes(old)
    argv = ["optimize", "--restarts", "1", "--iterations", "1", other, str(path), full, "/dev/full"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.splitlines() == [f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
    assert listing(tmp_path) == ([] if old is None else ["r.json"])
    if old is not None:
        assert path.read_bytes() == old


@pytest.mark.parametrize("n", ["20", "40"])
def test_optimize_refuses_an_oversized_report_before_the_ascent(capsys, monkeypatch, n):
    # few logits, but the report's behavior tensor would hold 2**42 floats at
    # n = 20 and have 82 axes at n = 40; refused before any ascent step
    def no_ascent(*args, **kwargs):
        raise AssertionError("the ascent ran before the report size was checked")

    monkeypatch.setattr(classical, "_ascend", no_ascent)
    code, out, err = run(
        capsys, "optimize", "--n", n, "--k", "2", "--alphabet", "1", "--restarts", "1", "--iterations", "1"
    )
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error:") and "behavior tensor" in err and "Traceback" not in err


def parse_report_line(out, label):
    for line in out.splitlines():
        if line.startswith(label + ":"):
            return float(line.split(":")[1])
    raise AssertionError(f"no {label!r} line in output")


def test_validate_povm_valid(capsys):
    code, out, _ = run(capsys, "validate-povm", "--p", "0.5")
    assert code == EXIT_OK
    assert "valid: true" in out
    assert "projective: false" in out
    assert parse_report_line(out, "eigenvalue floor") == pytest.approx(0.125, abs=1e-12)
    assert parse_report_line(out, "completeness residual") == pytest.approx(0.0, abs=1e-12)


def test_validate_povm_projective(capsys):
    code, out, _ = run(capsys, "validate-povm", "--p", "1.0")
    assert code == EXIT_OK
    assert "valid: true" in out
    assert "projective: true" in out


def test_validate_povm_invalid_sharpness(capsys):
    code, out, err = run(capsys, "validate-povm", "--p", "1.5")
    assert code == EXIT_INVALID
    assert "valid: false" in out
    assert parse_report_line(out, "eigenvalue floor") == pytest.approx(-0.125, abs=1e-12)
    assert "negative eigenvalue" in err
    code, out, err = run(capsys, "validate-povm", "--p", "nan")
    assert code == EXIT_INVALID
    assert "valid: false" in out
    assert "non-finite" in err


def test_gen_validates_parameters(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "quantum", "--p", "1.5", "--out", str(tmp_path / "x.json"))
    assert code == EXIT_INVALID and "sharpness" in err
    code, _, err = run(capsys, "gen", "saturation", "--r", "1.5", "--out", str(tmp_path / "x.json"))
    assert code == EXIT_INVALID and "[0, 1]" in err
    code, _, err = run(capsys, "gen", "quantum", "--p", "0.5", "--out", str(tmp_path / "no/dir/x.json"))
    assert code == EXIT_INVALID
    code, _, err = run(capsys, "gen", "quantum", "--p", "0.5", "--out", str(tmp_path))
    assert code == EXIT_INVALID and str(tmp_path) in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--steps", "11", "--out", "/dev/full"],
        ["gen", "quantum", "--out", "/dev/full"],
        ["optimize", "--restarts", "1", "--iterations", "1", "--report-out", "/dev/full"],
        ["optimize", "--restarts", "1", "--iterations", "1", "--strategy-out", "/dev/full"],
    ],
    ids=["sweep-out", "gen-out", "optimize-report-out", "optimize-strategy-out"],
)
def test_a_failed_write_exits_2_with_one_error_line(capsys, argv):
    # every write to /dev/full fails with ENOSPC; the sweep's rows used to
    # fail outside any handler and end in a traceback with exit 1
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.splitlines() == [f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv", [["certify", "{behavior}"], ["validate-povm", "--p", "0.5"]], ids=["certify", "validate-povm"]
)
def test_a_failed_buffered_stdout_write_exits_2_with_one_error_line(tmp_path, argv):
    # without PYTHONUNBUFFERED a file stdout is block-buffered, so print only
    # fills the buffer; the write used to fail in the interpreter's flush at
    # exit, after main had returned, with exit 120 and no error: line
    behavior = tmp_path / "q.json"
    save_behavior(closed_form_behavior(0.8), behavior)
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    # the package this suite imports comes first, so the child runs it
    source = str(pathlib.Path(jointcert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([source] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "jointcert", *[arg.format(behavior=behavior) for arg in argv]],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=60,
        )
    assert result.returncode == EXIT_INVALID, result.stderr
    assert "Exception ignored" not in result.stderr
    assert result.stderr.splitlines() == [f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]


def fresh_main(argv):
    """main with a parser built for this one call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        return main(argv)


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main builds its parser once per process; a run of calls across the
    # subcommands gives the exit codes, output and files of fresh parsers,
    # and no flag of one call (--mode, --tol) carries into the next
    assert cli.build_parser() is cli.build_parser()
    save_behavior(BehaviorTensor.uniform(ScenarioShape(3, 2)), tmp_path / "b3.json")
    calls = [
        (["gen", "quantum", "--p", "0.8", "--out", "{d}/q.json"], EXIT_OK),
        (["certify", "{d}/q.json", "--tol", "0.5"], EXIT_OK),
        (["certify", "{d}/q.json"], EXIT_VIOLATED),
        (["certify", "{b3}", "--mode", "mn"], EXIT_INVALID),
        (["certify", "{b3}"], EXIT_OK),
        (["certify", "{d}/q.json", "--mode", "chain", "--tol", "0.5"], EXIT_OK),
        (["certify", "{d}/q.json"], EXIT_VIOLATED),
        (["gen", "saturation", "--r", "0.3", "--out", "{d}/s.json"], EXIT_OK),
        (["sweep", "--steps", "3", "--out", "{d}/sweep.csv"], EXIT_OK),
        (["validate-povm", "--p", "1.2"], EXIT_INVALID),
        (["optimize", "--restarts", "2", "--iterations", "10", "--seed", "4",
          "--strategy-out", "{d}/strategy.json"], EXIT_OK),
        (["certify", "{d}/s.json"], EXIT_OK),
    ]
    results = {}
    for label, call in (("cached", main), ("fresh", fresh_main)):
        d = tmp_path / label
        d.mkdir()
        runs = []
        for argv, code in calls:
            got = call([a.format(d=d, b3=tmp_path / "b3.json") for a in argv])
            out, err = capsys.readouterr()
            assert got == code, (label, argv, err)
            runs.append((got, out, err))
        results[label] = runs, {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    assert results["cached"] == results["fresh"]
    assert len(results["cached"][1]) == 4


def test_patched_library_functions_reach_the_cached_parser(tmp_path, capsys, monkeypatch):
    path = tmp_path / "b3.json"
    save_behavior(BehaviorTensor.uniform(ScenarioShape(3, 2)), path)
    assert run(capsys, "certify", str(path))[0] == EXIT_OK  # the parser is built

    def patched(behavior):
        raise ValueError("patched evaluate_chain ran")

    monkeypatch.setattr(cli, "evaluate_chain", patched)
    code, _, err = run(capsys, "certify", str(path))
    assert code == EXIT_INVALID
    assert "patched evaluate_chain ran" in err
