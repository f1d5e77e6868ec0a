"""Command-line interface.

Subcommands:

 - certify: evaluate a behavior file against an inequality, print the report
   as JSON; exit 0 when not violated, 10 when violated, 2 on bad input.
 - sweep: tabulate the quantum model over a sharpness range as CSV, one row
   per p with correlator averages, statistic, post-selected CHSH/visibility,
   and the certification-gap flags.
 - optimize: run the seeded classical-strategy ascent and write report and
   strategy JSON, both or neither; byte-identical outputs for identical
   flags.
 - validate-povm: build the noisy Bell-measurement elements at a given
   sharpness (any float, so invalid ones are constructible) and check them.
 - gen: write a behavior file for one of the built-in families
   (quantum, closed-form, saturation).

Verdicts compare the report's floor, the statistic with each component's
rounding taken off (see inequalities), with the bound.  The library's is
strict; certify applies --tol (default inequalities.VERDICT_TOL, 1e-9) on
top of the bound before choosing its exit code, so it exits 10 only when
floor > bound + tol.  A negative or non-finite --tol would decide verdicts by
itself, so certify and sweep refuse it with exit 2.  main maps every
ValueError and OSError of a subcommand, a failed write of any output file
or of stdout included, to one error: line and exit 2.  The correlator
columns of sweep come from the exact closed form of the quantum model, the
post-selection columns from density-matrix simulation.  Both sides take a
stack of p: each block of SWEEP_BLOCK values is one closed-form stack, one
stacked correlator contraction (inequalities._mn_reports) and one stacked
simulation, so per row only the reports and the CSV text are left.
"""
import argparse
import functools
import os
import sys

import numpy as np

from .behavior import load_behavior, save_behavior
from .classical import STRATEGY_FIELDS, STRATEGY_HEADER, optimize_classical, saturation_strategy, strategy_to_behavior
from .codec import _file_chunks, _target, _write_text
from .inequalities import (
    VERDICT_TOL, _mn_reports, check_tol, evaluate_chain, evaluate_mn, exceeds_bound, report_to_json,
)
from .postselect import _gap_reports
from .quantum import POVM_TOL, _bsm_elements, _check_povm, _closed_form, closed_form_behavior, quantum_behavior
from .scenario import ScenarioShape

EXIT_OK = 0
EXIT_VIOLATED = 10
EXIT_INVALID = 2

# sweep refuses longer grids before it builds one, and simulates the grid
# SWEEP_BLOCK sharpness values at a time, so its memory does not grow with it
MAX_SWEEP_STEPS = 10**6
SWEEP_BLOCK = 256

SWEEP_COLUMNS = (
    "p",
    "component0",
    "component1",
    "statistic",
    "chsh_max",
    "werner_visibility",
    "jointly_nonclassical",
    "postselected_lhv_simulable",
    "gap_witness",
)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.17g" % value


def cmd_certify(args):
    tol = check_tol(args.tol, "--tol")
    behavior = load_behavior(args.behavior, strict=True)
    mode = args.mode
    if mode is None:
        mode = "mn" if (behavior.shape.n, behavior.shape.k) == (2, 2) else "chain"
    evaluator = evaluate_mn if mode == "mn" else evaluate_chain
    report = evaluator(behavior)
    print(report_to_json(report))
    return EXIT_VIOLATED if exceeds_bound(report, tol) else EXIT_OK


def cmd_sweep(args):
    if not 0.0 <= args.pmin <= args.pmax <= 1.0:
        raise ValueError(f"need 0 <= pmin <= pmax <= 1, got {args.pmin}, {args.pmax}")
    if not 2 <= args.steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"need 2 to {MAX_SWEEP_STEPS} steps, got {args.steps}")
    tol = check_tol(args.tol, "--tol")
    _write_text((args.out, _sweep_lines(np.linspace(args.pmin, args.pmax, args.steps), tol)))
    return EXIT_OK


def _sweep_lines(grid, tol):
    """The sweep's CSV lines, each ended by "\r\n": the header, then one row
    per sharpness of grid.  No field holds a comma, a quote or a line break,
    so these are csv.writer's bytes."""
    yield ",".join(SWEEP_COLUMNS) + "\r\n"
    for block in np.split(grid, range(SWEEP_BLOCK, grid.size, SWEEP_BLOCK)):
        for p, exact, gap in zip(block, _mn_reports(_closed_form(block)), _gap_reports(block, tol)):
            row = (p, *exact.components, exact.statistic, gap.chsh_max, gap.werner_visibility)
            flags = (gap.jointly_nonclassical, gap.postselected_lhv_simulable, gap.gap_witness)
            yield ",".join(_fmt(value) for value in row + flags) + "\r\n"


def cmd_optimize(args):
    # refuse an output path that cannot be written before the ascent runs,
    # so neither a long run nor a half-written pair of files is wasted
    for path in (args.report_out, args.strategy_out):
        if path is not None:
            _target(path)
    # the strategy would be written over the report: one path once resolved,
    # or, when both exist, one file under two names, as with a hard link
    report_out, strategy_out = args.report_out, args.strategy_out
    if report_out and strategy_out and (
        os.path.realpath(report_out) == os.path.realpath(strategy_out)
        or (os.path.exists(report_out) and os.path.exists(strategy_out) and os.path.samefile(report_out, strategy_out))
    ):
        raise ValueError(f"--report-out and --strategy-out name the same file: {strategy_out}")
    shape = ScenarioShape(args.n, args.k)
    report, strategy = optimize_classical(
        shape,
        hidden_alphabet=args.alphabet,
        restarts=args.restarts,
        seed=args.seed,
        iterations=args.iterations,
    )
    text = report_to_json(report)
    # both files or neither: each is moved into place only once both are whole
    outputs = [(report_out, [text + "\n"])] if report_out else []
    if strategy_out:
        outputs.append((strategy_out, _file_chunks(STRATEGY_HEADER, STRATEGY_FIELDS, strategy)))
    _write_text(*outputs)
    print(text)
    return EXIT_OK


def cmd_validate_povm(args):
    # a huge or non-finite p overflows the elements and their squares to
    # infinity or NaN, which the checks report, so numpy's warnings about it
    # are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        elements = _bsm_elements(args.p)
        problems, floor, residual = _check_povm(elements)
        projective = all(np.abs(el @ el - el).max() <= POVM_TOL for el in elements)
    print("eigenvalue floor: %.17g" % floor)
    print("completeness residual: %.17g" % residual)
    print("projective: %s" % ("true" if projective else "false"))
    print("valid: %s" % ("false" if problems else "true"))
    for item in problems:
        print(f"problem: {item}", file=sys.stderr)
    return EXIT_INVALID if problems else EXIT_OK


def cmd_gen(args):
    if args.family == "quantum":
        behavior = quantum_behavior(args.p)
    elif args.family == "closed-form":
        behavior = closed_form_behavior(args.p)
    else:
        behavior = strategy_to_behavior(saturation_strategy(args.r))
    save_behavior(behavior, args.out)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args fills a fresh
    namespace on every call, and each subcommand's function looks up the
    library functions it calls at call time."""
    parser = argparse.ArgumentParser(
        prog="jointcert",
        description="Certify non-classicality of a joint measurement from behavior files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="evaluate a behavior file")
    p_cert.add_argument("behavior", help="path to a behavior JSON file")
    p_cert.add_argument(
        "--mode",
        choices=("mn", "chain"),
        default=None,
        help="statistic to evaluate (default: mn when n=k=2, else chain)",
    )
    p_cert.add_argument("--tol", type=float, default=VERDICT_TOL, help="violation tolerance")
    p_cert.set_defaults(func=cmd_certify)

    p_sweep = sub.add_parser("sweep", help="tabulate the quantum model over p")
    p_sweep.add_argument("--pmin", type=float, default=0.0)
    p_sweep.add_argument("--pmax", type=float, default=1.0)
    p_sweep.add_argument("--steps", type=int, default=11)
    p_sweep.add_argument("--tol", type=float, default=VERDICT_TOL, help="violation tolerance")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_opt = sub.add_parser("optimize", help="ascent over classical strategies")
    p_opt.add_argument("--n", type=int, default=2, help="number of parties")
    p_opt.add_argument("--k", type=int, default=2, help="settings per party")
    p_opt.add_argument("--alphabet", type=int, default=2, help="hidden alphabet size")
    p_opt.add_argument("--restarts", type=int, default=20)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--iterations", type=int, default=500)
    p_opt.add_argument("--report-out", help="also write the report JSON here")
    p_opt.add_argument("--strategy-out", help="write the best strategy JSON here")
    p_opt.set_defaults(func=cmd_optimize)

    p_val = sub.add_parser("validate-povm", help="check the noisy Bell measurement")
    p_val.add_argument("--p", type=float, required=True, help="sharpness (any float)")
    p_val.set_defaults(func=cmd_validate_povm)

    p_gen = sub.add_parser("gen", help="write a built-in behavior file")
    p_gen.add_argument("family", choices=("quantum", "closed-form", "saturation"))
    p_gen.add_argument("--p", type=float, default=1.0, help="sharpness for the quantum families")
    p_gen.add_argument("--r", type=float, default=0.5, help="parameter for the saturation family")
    p_gen.add_argument("--out", required=True, help="output JSON path")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    flushing = False
    try:
        code = args.func(args)
        # a block-buffered stdout holds what print wrote until it is
        # flushed; flushed here, a failed write maps to exit 2 below instead
        # of failing in the interpreter's flush at exit (exit 120)
        flushing = True
        if sys.stdout is not None:  # None when the process has no stdout
            sys.stdout.flush()
        return code
    except (OSError, ValueError) as exc:  # InvalidBehaviorError is a ValueError
        if flushing:
            # the unwritten bytes stay buffered and the flush at exit would
            # fail again, so stdout's descriptor goes to devnull, as Python's
            # docs advise for SIGPIPE
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
