"""jointcert benchmark: four workloads, known-answer checks, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload runs in fresh single-threaded interpreters with the BLAS thread
pools pinned to one thread.  With ``--trace 0`` the last stdout line is a JSON
object carrying ``wall_s``, ``setup_s`` (both speed-adjusted, see speed.py) and
``peak_rss_mb``; with ``--trace 1``
it carries the per-layer metrics of a separate traced run instead, whose passes
alternate untraced and traced.  The line before it is the full record: machine
and library versions, the seed, every sample, the checks and the raw layer
totals.  Exits non-zero without a result when the library is missing or a run
fails.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exhaustive", "optimize", "certify", "generate")
# Fresh interpreters timed for setup_s per run; the median is reported.
SETUP_SAMPLES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A single-workload run must finish within 180 s; leave room to report.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


# --- child process: one workload in a fresh interpreter -----------------------


def _environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _timed_passes(workload, seconds, tally, tracer=None):
    """Run passes until the next would overrun ``seconds``, at least one of each kind.

    Returns the untraced and the traced passes as (raw, adjusted) seconds.
    With a tracer, passes alternate untraced and traced, so drift in machine
    speed hits both alike.
    """
    passes, traced = [], []
    clock = speed.SpeedClock()
    start = perf_counter()
    while (
        not passes
        or (tracer and not traced)
        or perf_counter() - start + statistics.median(raw for raw, _ in passes + traced) <= seconds
    ):
        active = tracer if tracer and len(traced) < len(passes) else None
        if active:
            active.install()
        try:
            clock.start()
            outputs = workload.run_pass(clock)
            times = clock.stop()
        finally:
            if active:
                active.uninstall()
        (traced if active else passes).append(times)
        workload.check(outputs, tally)
    return passes, traced


def _mean_adjusted(passes):
    return statistics.fmean(adjusted for _, adjusted in passes)


def child(args):
    ref_before = speed.reference_loop()
    t0 = perf_counter()
    import jointcert

    src = (ROOT / "src").resolve()
    if src not in Path(jointcert.__file__).resolve().parents:
        raise BenchError(f"imported jointcert from {jointcert.__file__}, not from {src}")
    import workloads

    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(args.seed, workdir)
        setup_raw_s = perf_counter() - t0
        record = {"setup": (setup_raw_s, speed.adjust(setup_raw_s, ref_before, speed.reference_loop()))}
        if args.role == "setup":
            return record
        import layers

        tally = workloads.Tally()
        tracer = layers.Tracer() if args.trace else None
        passes, traced = _timed_passes(workload, args.seconds, tally, tracer)
        record.update(environment=_environment(), passes=passes)
        if tracer:
            record["traced_passes"] = traced
            record["layers"] = {name: s.as_dict() for name, s in tracer.stats.items()}
            record["layer_metrics"] = layers.metrics(
                tracer.stats, len(traced), _mean_adjusted(traced), _mean_adjusted(passes)
            )
        # ru_maxrss is in KiB on Linux.
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["checks"] = {"attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures}
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# --- parent process: orchestration and reporting -----------------------------


def _child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(role, args, workload, deadline):
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before the {role} process")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: {role} process timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: {role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, workload):
    """One workload: setup probes, then the measuring process; returns its record."""
    deadline = perf_counter() + BUDGET_S
    probes = [] if args.trace else [_spawn("setup", args, workload, deadline) for _ in range(SETUP_SAMPLES - 1)]
    record = _spawn("measure", args, workload, deadline)
    record["setup_samples"] = [p["setup"] for p in probes] + [record.pop("setup")]
    record.update(workload=workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    checks = record["checks"]
    checks["failed_ratio"] = checks["failed"] / checks["attempted"] if checks["attempted"] else 1.0
    if args.trace:
        metrics = record.pop("layer_metrics")
    else:
        # Speed-adjusted (see speed.py); raw seconds are in the record and summary.
        metrics = {
            "wall_s": (_mean_adjusted(record["passes"]), "s"),
            "setup_s": (statistics.median(adjusted for _, adjusted in record["setup_samples"]), "s"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        }
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return record


def _summary(record):
    w = record["workload"]
    checks = record["checks"]
    env = record["environment"]
    lines = [
        f"{w:<10} seed {record['seed']}, {record['seconds']:g} s per run, trace {record['trace']}; "
        f"python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
        f"{env['nproc']} x {env['cpu_model']}, threads {env['threads']}"
    ]
    raw = {
        "wall_s": (statistics.fmean(r for r, _ in record["passes"]), f"mean of {len(record['passes'])} passes"),
        "setup_s": (
            statistics.median(r for r, _ in record["setup_samples"]),
            f"median of {len(record['setup_samples'])} fresh interpreters",
        ),
    }
    for name, m in record["metrics"].items():
        note = ""
        if name in raw:
            note = f"  speed-adjusted; {raw[name][0]:.6g} s raw; {raw[name][1]}"
        lines.append(f"{w:<10} {name:<48} {m['value']:>14.6g} {m['unit']}{note}")
    lines.append(
        f"{w:<10} {'failed_ratio':<48} {checks['failed_ratio']:>14.6g} "
        f"({checks['failed']} of {checks['attempted']} known-answer checks failed)"
    )
    lines += [f"{w:<10} FAILED: {msg}" for msg in checks["failures"]]
    return lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "jointcert" / "__init__.py").is_file():
        print(f"error: no jointcert package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.role:
            print(json.dumps(child(args)))
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_workload(args, name) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print("\n".join(_summary(record)))
    print(json.dumps(records[0] if len(records) == 1 else records))
    prefix = len(records) > 1
    result = {
        "correct": all(r["checks"]["failed"] == 0 for r in records),
        "attempted": sum(r["checks"]["attempted"] for r in records),
        "failed": sum(r["checks"]["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): m
            for r in records
            for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
