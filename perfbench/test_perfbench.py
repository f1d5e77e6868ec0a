"""Self-tests of the benchmark: its checks catch planted faults, its inputs follow
the seed, its tracer restores what it wraps, and its metric names match
BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jointcert as jc
import layers
import speed
import workloads
from jointcert import cli

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def one_pass(workload_cls, workdir, seed=3):
    workload = workload_cls()
    workload.setup(seed, str(workdir))
    tally = workloads.Tally()
    clock = speed.SpeedClock()
    clock.start()
    outputs = workload.run_pass(clock)
    clock.stop()
    workload.check(outputs, tally)
    return tally


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload_cls", [workloads.Certify, workloads.Generate])
def test_known_answers_hold_on_two_seeds(tmp_path, workload_cls, seed):
    tally = one_pass(workload_cls, tmp_path, seed)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.failures


def test_planted_fault_in_certify_is_caught(tmp_path, monkeypatch):
    original = cli.evaluate_chain

    def negated(behavior):
        report = original(behavior)
        return dataclasses.replace(report, statistic=-report.statistic)

    monkeypatch.setattr(cli, "evaluate_chain", negated)
    tally = one_pass(workloads.Certify, tmp_path)
    assert tally.failed / tally.attempted > 0


def test_planted_fault_in_sweep_is_caught(tmp_path, monkeypatch):
    original = cli.closed_form_behavior
    monkeypatch.setattr(cli, "closed_form_behavior", lambda p: original(p / 2))
    tally = one_pass(workloads.Generate, tmp_path)
    assert tally.failed / tally.attempted > 0


def test_corpus_follows_the_seed(tmp_path):
    def digests(seed, name):
        workload = workloads.Certify()
        workdir = tmp_path / name
        workdir.mkdir()
        workload.setup(seed, str(workdir))
        return [workloads.file_digest(path) for path, _, _ in workload.cases]

    first = digests(5, "a")
    assert digests(5, "b") == first
    assert digests(6, "c") != first


def test_tracer_counts_calls_and_restores_bindings():
    tracer = layers.Tracer()
    original = jc.evaluate_mn
    tracer.install()
    try:
        cli.main(["validate-povm", "--p", "0.5"])
        jc.evaluate_mn(jc.closed_form_behavior(0.7))
    finally:
        tracer.uninstall()
    assert jc.evaluate_mn is original and cli.evaluate_mn is original
    stats = tracer.stats
    assert stats["inequalities.evaluate_mn"].calls == 1
    assert stats["quantum.closed_form_behavior"].calls == 1
    assert stats["cli.main"].calls == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(layers.metrics(layers.Tracer().stats, 1, 0.0, 0.0))
    assert names == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_end_to_end_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "generate", "--seed", "4", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
