import json

import numpy as np
import pytest

from jointcert.behavior import BehaviorTensor, ScenarioShape, save_behavior
from jointcert import classical, cli
from jointcert.classical import load_strategy, strategy_to_behavior
from jointcert.cli import EXIT_INVALID, EXIT_OK, EXIT_VIOLATED, SWEEP_COLUMNS, main


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
