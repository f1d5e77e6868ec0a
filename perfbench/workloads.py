"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` (timed as
part of ``setup_s``), does a fixed amount of work in ``run_pass`` (the timed
region behind ``wall_s``) and checks that pass's outputs against known answers
in ``check``, outside the timed region.  ``run_pass`` calls ``clock.tick()``
between pieces of work, where a ``speed.SpeedClock`` may probe the machine's
speed.  Workloads call the library only
through public names looked up at call time (``jc.<name>`` and ``cli.main``),
so the tracer in ``layers.py`` can wrap them from outside.

Why each workload exists, and which layers it exercises or bypasses, is in
README.md next to this file.
"""
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

import jointcert as jc
from jointcert import cli

# Shapes of the non-signalling and random classical certify corpus files.
LARGE_SHAPES = ((3, 3), (4, 4), (6, 2), (5, 4))
STAT_TOL = 1e-9  # known-answer tolerance on printed statistics
CLI_TOL = 1e-9  # certify's default --tol, which decides its exit code


class Tally:
    """Known-answer checks made and failed; ``failed_ratio`` is their ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, message):
        self.count(1, 0 if ok else 1, message)

    def count(self, attempted, failed, message):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(message)


# --- inputs -------------------------------------------------------------------


def expected_exit(statistic, bound):
    return cli.EXIT_VIOLATED if statistic > bound + CLI_TOL else cli.EXIT_OK


def full_correlator_behavior(n, k, v):
    """A non-signalling behavior whose only nonzero correlators are full ones.

    P(a, c | x) = 2^-(n+k) (1 + sum_i E_i(x) (-1)^(a_1+..+a_n+c_i)).  Every
    setting tuple x lying in chain block i (all settings in {i, i+1 mod k})
    gets E_i(x) = s * v / m, where m is the number of blocks containing x and
    s = -1 per party at the wrapped setting, so each block contributes +v/m.
    Entries stay >= 0 because sum_i |E_i(x)| <= v <= 1, and summing out any
    output removes every character, so all marginals are uniform.

    Returns (behavior, statistic): each chain component equals v/2 at k = 2
    and v (1 - 2^-n) at k >= 3, so the statistic is k * I^(1/n).
    """
    corr = np.zeros((k,) * n + (k,))
    for x in itertools.product(range(k), repeat=n):
        blocks = [i for i in range(k) if set(x) <= {i, (i + 1) % k}]
        for i in blocks:
            wrapped = x.count(0) if i == k - 1 else 0
            corr[x + (i,)] = (-1.0) ** wrapped * v / len(blocks)
    a_parity = np.indices((2,) * n).sum(axis=0) % 2  # (2,)*n
    c_bits = np.indices((2,) * k)  # (k,) + (2,)*k
    chi = (-1.0) ** (a_parity.reshape((2,) * n + (1,) * k) + c_bits.reshape((k,) + (1,) * n + (2,) * k))
    arr = (1.0 + np.tensordot(corr, chi, axes=([n], [0]))) / 2 ** (n + k)
    component = v / 2 if k == 2 else v * (1 - 2.0**-n)
    return jc.BehaviorTensor(jc.ScenarioShape(n, k), arr), k * component ** (1.0 / n)


def visibility_threshold(n, k):
    """The v at which full_correlator_behavior's statistic meets the bound k-1."""
    if k == 2:
        return 2.0 ** (1 - n)
    return ((k - 1) / k) ** n / (1 - 2.0**-n)


def visibilities(rng, n, k):
    """One visibility well below the bound's threshold and one well above it."""
    vt = visibility_threshold(n, k)
    return vt * rng.uniform(0.3, 0.8), vt + (1 - vt) * rng.uniform(0.2, 0.9)


def random_classical(rng, n, k, alphabet=2):
    """A random classical strategy and its chain statistic by the product form.

    The statistic is computed here from I_i = Gamma_i prod_j hbar_j(i), not
    through the library's correlators, so it is an independent reference.
    """
    tables = tuple(rng.dirichlet(np.ones(2), size=k) for _ in range(n))
    dists = tuple(rng.dirichlet(np.ones(alphabet)) for _ in range(n))
    charlie = rng.dirichlet(np.ones(2**k), size=alphabet**n)
    strategy = jc.ClassicalStrategy(
        jc.ScenarioShape(n, k),
        alphabet,
        tables,
        dists,
        charlie.reshape((alphabet,) * n + (2,) * k),
    )
    weights = np.ones(())
    for d in dists:
        weights = np.multiply.outer(weights, d)
    c_dist = weights.reshape(-1) @ charlie  # P(c), row-major over c_0..c_{k-1}
    bits = (np.arange(2**k)[:, None] >> (k - 1 - np.arange(k))) & 1
    gamma = c_dist @ (1.0 - 2.0 * bits)
    components = []
    for i in range(k):
        sign = -1.0 if i == k - 1 else 1.0
        hbar = [(t[i, 0] - t[i, 1] + sign * (t[(i + 1) % k, 0] - t[(i + 1) % k, 1])) / 2 for t in tables]
        components.append(gamma[i] * math.prod(hbar))
    return strategy, sum(abs(c) ** (1.0 / n) for c in components)


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_cli(argv):
    """cli.main with stdout captured; returns (exit code, printed text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# --- workloads ----------------------------------------------------------------


class Exhaustive:
    """All 16384 deterministic strategies at n = k = 2, L = 2 (criterion 4)."""

    def setup(self, seed, workdir):
        # The enumeration is fixed; the seed has nothing to vary here.
        self.shape = jc.ScenarioShape(2, 2)
        self.expected_count = jc.deterministic_count(self.shape, 2)

    def run_pass(self, clock):
        stats = []
        for strategy in jc.enumerate_deterministic(self.shape, 2):
            stats.append(jc.evaluate_mn(jc.strategy_to_behavior(strategy)).statistic)
            if len(stats) % 256 == 0:
                clock.tick()
        return stats

    def check(self, stats, tally):
        tally.check(
            len(stats) == self.expected_count,
            f"enumerated {len(stats)} strategies, expected {self.expected_count}",
        )
        best = max(stats, default=math.nan)
        tally.check(abs(best - 1.0) <= 1e-12, f"exhaustive maximum {best!r}, expected 1")
        over = sum(1 for s in stats if not s <= 1.0 + 1e-12)
        tally.count(len(stats), over, f"{over} deterministic strategies exceed the bound 1")


class Optimize:
    """The three criterion-5 shapes, 100 restarts of 500 iterations each."""

    CONFIGS = ((2, 2, 4), (2, 3, 2), (3, 2, 2))  # (n, k, hidden alphabet)
    RESTARTS = 100
    ITERATIONS = 500

    def setup(self, seed, workdir):
        self.seed = seed
        self.reference = None

    def run_pass(self, clock):
        reports = []
        for n, k, alphabet in self.CONFIGS:
            report, _ = jc.optimize_classical(
                jc.ScenarioShape(n, k),
                hidden_alphabet=alphabet,
                restarts=self.RESTARTS,
                seed=self.seed,
                iterations=self.ITERATIONS,
            )
            reports.append(report)
            clock.tick()
        return reports

    def check(self, reports, tally):
        for (n, k, alphabet), report in zip(self.CONFIGS, reports):
            where = f"optimize (n={n}, k={k}, L={alphabet})"
            tally.check(report.bound == k - 1, f"{where}: bound {report.bound}, expected {k - 1}")
            tally.check(
                report.statistic <= report.bound + 1e-6,
                f"{where}: statistic {report.statistic!r} exceeds bound {report.bound}",
            )
        stats = [r.statistic for r in reports]
        if self.reference is None:
            self.reference = stats
        else:
            changed = sum(1 for a, b in zip(stats, self.reference) if a != b)
            tally.count(len(stats), changed, f"optimize statistics differ between passes: {stats} vs {self.reference}")


class Certify:
    """``certify`` on a seeded corpus of behavior files with known statistics."""

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.cases = []  # (path, expected exit code, expected statistic)

        def add(name, behavior, statistic, code):
            path = str(Path(workdir) / f"{name}.json")
            jc.save_behavior(behavior, path)
            self.cases.append((path, code, statistic))

        for j, p in enumerate(np.concatenate([rng.uniform(0.05, 0.45, 2), rng.uniform(0.55, 1.0, 2)])):
            statistic = math.sqrt(2 * p)
            add(f"quantum-{j}", jc.closed_form_behavior(p), statistic, expected_exit(statistic, 1.0))
        for j, r in enumerate(rng.uniform(0.0, 1.0, 2)):
            add(f"saturation-{j}", jc.strategy_to_behavior(jc.saturation_strategy(r)), 1.0, cli.EXIT_OK)
        for n, k in LARGE_SHAPES:
            for side, v in zip(("below", "above"), visibilities(rng, n, k)):
                behavior, statistic = full_correlator_behavior(n, k, v)
                add(f"full-{n}-{k}-{side}", behavior, statistic, expected_exit(statistic, k - 1))
        for n, k in ((2, 2),) + LARGE_SHAPES:
            strategy, statistic = random_classical(rng, n, k)
            add(f"classical-{n}-{k}", jc.strategy_to_behavior(strategy), statistic, cli.EXIT_OK)

    def run_pass(self, clock):
        results = []
        for path, _, _ in self.cases:
            results.append(run_cli(["certify", path]))
            clock.tick()
        return results

    def check(self, results, tally):
        for (path, code, statistic), (got_code, text) in zip(self.cases, results):
            name = Path(path).name
            tally.check(got_code == code, f"certify {name}: exit {got_code}, expected {code}")
            try:
                got = json.loads(text)["statistic"]
            except (ValueError, KeyError, TypeError):
                got = math.nan
            tally.check(
                abs(got - statistic) <= STAT_TOL,
                f"certify {name}: statistic {got!r}, expected {statistic!r}",
            )


class Generate:
    """``sweep`` and ``gen`` through the CLI, plus ``save_behavior`` at the certify shapes."""

    STEPS = 101

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)
        # Offset the 101-point grid so no point sits within 1e-4 of the
        # verdict boundaries p = 1/2 and p = 0.66, where rounding decides.
        while True:
            self.pmin = float(rng.uniform(0.0, 0.01))
            self.pmax = self.pmin + 0.99
            grid = np.linspace(self.pmin, self.pmax, self.STEPS)
            if np.abs(grid[:, None] - np.array([0.5, 0.66])).min() > 1e-4:
                break
        p_quantum, p_closed = rng.uniform(0.55, 0.95, 2)
        r = float(rng.uniform(0.0, 1.0))
        self.gens = [  # (argv, output file name, expected statistic)
            (["gen", "quantum", "--p", repr(float(p_quantum))], "gen-quantum.json", math.sqrt(2 * p_quantum)),
            (["gen", "closed-form", "--p", repr(float(p_closed))], "gen-closed-form.json", math.sqrt(2 * p_closed)),
            (["gen", "saturation", "--r", repr(r)], "gen-saturation.json", 1.0),
        ]
        self.saves = [
            (full_correlator_behavior(n, k, rng.uniform(0.1, 1.0))[0], f"save-{n}-{k}.json")
            for n, k in LARGE_SHAPES
        ]
        self.sweep_path = str(self.workdir / "sweep.csv")
        self.digests = None

    def run_pass(self, clock):
        codes = [
            cli.main(
                ["sweep", "--pmin", repr(self.pmin), "--pmax", repr(self.pmax),
                 "--steps", str(self.STEPS), "--out", self.sweep_path]
            )
        ]
        clock.tick()
        for argv, name, _ in self.gens:
            codes.append(cli.main(argv + ["--out", str(self.workdir / name)]))
            clock.tick()
        for behavior, name in self.saves:
            jc.save_behavior(behavior, str(self.workdir / name))
            clock.tick()
        return codes

    def check(self, codes, tally):
        tally.count(len(codes), sum(1 for c in codes if c != cli.EXIT_OK), f"generate exit codes {codes}")
        with open(self.sweep_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        tally.check(len(rows) == self.STEPS, f"sweep wrote {len(rows)} rows, expected {self.STEPS}")
        bad_stat = bad_gap = 0
        for row in rows:
            p = float(row["p"])
            bad_stat += not abs(float(row["statistic"]) - math.sqrt(2 * p)) <= STAT_TOL
            bad_gap += (row["gap_witness"] == "true") != (0.5 < p < 0.66)
        tally.count(len(rows), bad_stat, f"{bad_stat} sweep statistics differ from sqrt(2p)")
        tally.count(len(rows), bad_gap, f"{bad_gap} sweep gap_witness flags wrong")
        for _, name, statistic in self.gens:
            got = jc.evaluate_mn(jc.load_behavior(str(self.workdir / name), strict=True)).statistic
            tally.check(abs(got - statistic) <= STAT_TOL, f"{name}: statistic {got!r}, expected {statistic!r}")
        names = [name for _, name, _ in self.gens] + [name for _, name in self.saves]
        written = [self.sweep_path] + [str(self.workdir / name) for name in names]
        digests = [file_digest(path) for path in written]
        if self.digests is None:
            self.digests = digests
            # save -> load -> save is byte-identical, as the README promises.
            for path in written[1:]:
                again = path + ".again"
                jc.save_behavior(jc.load_behavior(path), again)
                tally.check(file_digest(again) == file_digest(path), f"{Path(path).name}: save/load/save differs")
        else:
            changed = sum(1 for a, b in zip(digests, self.digests) if a != b)
            tally.count(len(digests), changed, f"{changed} generated files differ between passes")


WORKLOADS = {
    "exhaustive": Exhaustive,
    "optimize": Optimize,
    "certify": Certify,
    "generate": Generate,
}
