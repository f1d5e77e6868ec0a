"""The bytes the README promises, pinned as one manifest of sha256 digests.

Every output is made in-process through cli.main, or save_behavior for
behaviors no gen family makes: gen files, certify's exit code and stdout on
them, optimize's stdout, report and strategy files, and the sweep CSVs,
whose digests test_cli.SWEEP_DIGESTS holds.  One more entry pins the
simulated side of the sweep, which its CSV shows only as verdict flags: the
float.hex of each gap report's components and statistic on a seeded grid.
A change that moves one of these bytes updates GOLDEN and lists each old
and new digest.  The digests are of
numpy 2.4.6; a numpy release that moves one is a finding to report, not a
reason to drop the entry.
"""
import contextlib
import hashlib
import io

import numpy as np

from jointcert.behavior import BehaviorTensor, ScenarioShape, save_behavior
from jointcert.classical import ClassicalStrategy, strategy_to_behavior
from jointcert.cli import main
from jointcert.inequalities import VERDICT_TOL
from jointcert.postselect import _gap_reports
from test_classical import random_strategy
from test_cli import SWEEP_DIGESTS

GEN = (
    ("quantum", "--p", "0.5"),
    ("quantum", "--p", "0.8"),
    ("quantum", "--p", "1"),
    ("closed-form", "--p", "0.3"),
    ("closed-form", "--p", "0.8"),
    ("saturation", "--r", "0.25"),
    ("saturation", "--r", "0.5"),
    ("saturation", "--r", "0.9"),
)
OPTIMIZE = (
    ("--n", "2", "--k", "2", "--alphabet", "4", "--restarts", "3", "--iterations", "40", "--seed", "7"),
    ("--n", "3", "--k", "2", "--alphabet", "2", "--restarts", "3", "--iterations", "40", "--seed", "7"),
    ("--n", "1", "--k", "2", "--alphabet", "3", "--restarts", "3", "--iterations", "40", "--seed", "7"),
    ("--n", "2", "--k", "3", "--alphabet", "2", "--restarts", "3", "--iterations", "40", "--seed", "7"),
)

GOLDEN = {
    "gen quantum --p 0.5": "66fda12256e17a61dd685750cad4438a3c3316ab64dd74be97dd16d844095cf1",
    "certify gen quantum --p 0.5": "e31b331fda5364078702498ca0ad886b297663716f7b51a1ecd936e9b7d05d97",
    "gen quantum --p 0.8": "467566f0c76b88da968dc7ba525d38525d31c603074d9e79c95da08ad47ad9c6",
    "certify gen quantum --p 0.8": "a3ec12daba0e2b00b027d813aeeb669d6f29ad7967c3ac139244ca2f71b10dd7",
    "gen quantum --p 1": "97f0d57050d4eb2b8458b767882a21ab142cb6d9b98c3d443780c464d82e373b",
    "certify gen quantum --p 1": "e67b45f19579af8de762407ef643f4e0cabe569a0c5a760158ba9712cc25063a",
    "gen closed-form --p 0.3": "6e76b47a47428cbaaa91f7574a94f2b12c8eb7228c3866215bfafa246704f81e",
    "certify gen closed-form --p 0.3": "2553b1be3e9d5156894d5b47f6f9a8a57bb7583bfb5553b2375a659962eae1e0",
    "gen closed-form --p 0.8": "c4b58524660fd311e2894fdd2f031e3b0fcf16e1c9fcf52ecb49c87c92486556",
    "certify gen closed-form --p 0.8": "136eb82b6834403e003c624ffaa0b988bb9df6aaa652b4f7ac728012d0d5dbc9",
    "gen saturation --r 0.25": "7ddde0c4e43e6f26f73d5a563dbbbbe482a40b1b815e1a4683c6b03ffb2d5627",
    "certify gen saturation --r 0.25": "df769b188d4c1682d090eb415326d7e28051b00bbcb7aa9367bf6eae788b95e2",
    "gen saturation --r 0.5": "ac6460665d89df8aa803999a2419f1199c6f47fe08fccccdbe3d1293f4a37f95",
    "certify gen saturation --r 0.5": "8ff20cecfc1fd6b196e32b489a95529a639b9c150e1dda638a9962997af2bce7",
    "gen saturation --r 0.9": "27c785ba50ffe1d7847c67dbaf923763adbb388cfe4c689d9e18306b2189ed56",
    "certify gen saturation --r 0.9": "0839b1c0471adf5f3a78d9de95eb0f531268bd6e15458a6be5ecb10bcaab2887",
    "classical (3, 2)": "c8834e99fc0890ba6a11716e71cd85fbebe4c0b8ddba2bf3f329e2985302cb20",
    "certify classical (3, 2)": "4318fdf625349212900bcfa940d27a2df526dd2add452f2d4b0182593facde73",
    "classical (2, 3)": "2aaa5f441bc4060fa365ff6b5b26ee47fa0f1e024d65aa87ee1cb3978c2163c4",
    "certify classical (2, 3)": "181aa66254054b39bfb0d5fc14bd52c27c16d547b923d1793eb9230c8b36e4b0",
    "deterministic (2, 2)": "e4b344c94cc4000c9755eee782746d3eaf27fde7e280a4ae463b35f60c6d1cba",
    "certify deterministic (2, 2)": "dbdcafc839628c2ee2f6d6f984c093c7dbf104d7054ba1421437daf2106abd16",
    "classical (4, 4)": "4755335575bd7b94c590d3a302ecb8d2a6896465ad5ad06af2f24b07f5b8d586",
    "certify classical (4, 4)": "191edeabab37897a55e2284fc727f622b9e56ece74d903decc9599cecafb915b",
    "optimize --n 2 --k 2 --alphabet 4 --restarts 3 --iterations 40 --seed 7": "102b5447b1d777929193251659b30b4f29fd6fbb59bf9092a5f4e20686b299ed",
    "optimize --n 2 --k 2 --alphabet 4 --restarts 3 --iterations 40 --seed 7 --report-out": "069aa29028b48dda7694540dd0dedea45885d44309659234243a6543dfa4442f",
    "optimize --n 2 --k 2 --alphabet 4 --restarts 3 --iterations 40 --seed 7 --strategy-out": "c40bba2b690713b0b29251bf76e09ce97f4df60b04b3a83537480eb8e53f48b3",
    "optimize --n 3 --k 2 --alphabet 2 --restarts 3 --iterations 40 --seed 7": "7edab9e60cc867c07a749e8a46311582af544433fa33a117ec621a6e6ea27c2a",
    "optimize --n 3 --k 2 --alphabet 2 --restarts 3 --iterations 40 --seed 7 --report-out": "6ef3cf9b1c6fdf38435022dfb3516794557688f28699b37e914758c1a59764e6",
    "optimize --n 3 --k 2 --alphabet 2 --restarts 3 --iterations 40 --seed 7 --strategy-out": "08f861e5dfb4c84d96aae02fece2128e35c3a09451531ea63a6db61da61776ce",
    "optimize --n 1 --k 2 --alphabet 3 --restarts 3 --iterations 40 --seed 7": "689cf6bae8b7139979f63cbd7dd4682e5489f2b3f6788c150ee85b0490dc00ee",
    "optimize --n 1 --k 2 --alphabet 3 --restarts 3 --iterations 40 --seed 7 --report-out": "60f537f681c2d36c9ecab1f1f9e56d533d00d5a9c1057052af296e9f1298fa7a",
    "optimize --n 1 --k 2 --alphabet 3 --restarts 3 --iterations 40 --seed 7 --strategy-out": "c0a58940b7785f0284ae7e276536d7b124b73ffdfd78196aad2d94d99d90d5a3",
    "optimize --n 2 --k 3 --alphabet 2 --restarts 3 --iterations 40 --seed 7": "01edb6fe1dfed448de00c8d543641e08d62b86add585b2f7a454fb394bf013de",
    "optimize --n 2 --k 3 --alphabet 2 --restarts 3 --iterations 40 --seed 7 --report-out": "49df32d69d55eb6e9ba5c50344be3eab4723e4adad533b1e7fda201111cae5ee",
    "optimize --n 2 --k 3 --alphabet 2 --restarts 3 --iterations 40 --seed 7 --strategy-out": "3c3a4339fbc5e850d025cbcf8cceda8c03e07a7156e5a1965c89d37d1d3dff20",
    "gap reports": "efffd8dc56c8cf0419ba07061a86ec2a4d93c3d52283f87fc3de6f4667cac27e",
}


def run(*argv):
    """main's exit code and stdout, as the bytes "exit CODE" and a newline
    followed by stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}".encode()


def negative_zeros(strategy):
    """strategy's behavior with each zero entry written as -0.0, which
    changes no sum and no verdict."""
    arr = strategy_to_behavior(strategy).probabilities
    return BehaviorTensor(strategy.shape, np.where(arr == 0, -0.0, arr))


def saved_behaviors():
    """(label, behavior) for the files save_behavior writes here: seeded
    random classical behaviors at (3, 2) and (2, 3); a deterministic one at
    (2, 2), whose 64 entries the deduplicating writer formats, holding
    negative zeros; and a (4, 4) one of 65536 entries, nearly all distinct,
    so one block of the digit kernel, holding negative zeros and entries
    below the kernel's window."""
    rng = np.random.default_rng(3101)
    for n, k in ((3, 2), (2, 3)):
        yield f"classical ({n}, {k})", strategy_to_behavior(random_strategy(n, k, 2, rng))
    shape = ScenarioShape(2, 2)
    charlie = np.zeros((1, 1, 2, 2))
    charlie[0, 0, 1, 0] = 1.0
    deterministic = ClassicalStrategy(shape, 1, (np.eye(2),) * 2, (np.ones(1),) * 2, charlie)
    yield "deterministic (2, 2)", negative_zeros(deterministic)
    mixed = random_strategy(4, 4, 2, rng)
    tables = [table.copy() for table in mixed.output_tables]
    tables[0][0] = (1.0, 0.0)
    tables[1][1] = (1.0, 1e-300)
    mixed = ClassicalStrategy(mixed.shape, 2, tables, mixed.hidden_dists, mixed.charlie_table)
    yield "classical (4, 4)", negative_zeros(mixed)


def gap_report_text():
    """The float.hex of each gap report's M, N and statistic, one line per
    p of 1000 seeded draws from [0, 1], by the sweep's stacked route.  The
    closed form's correlators share one magnitude per p, so the sweep CSV's
    components leave the association of the simulated sums free; these pin
    it."""
    p = np.random.default_rng(3401).uniform(0.0, 1.0, 1000)
    rows = ((*report.components, report.statistic) for report in _gap_reports(p, VERDICT_TOL))
    return "".join(" ".join(x.hex() for x in row) + "\n" for row in rows).encode()


def produced(tmp_path):
    """The digest of every pinned output, keyed by the command or file that
    makes it."""
    outputs = {"gap reports": gap_report_text()}
    for flags in SWEEP_DIGESTS:
        path = tmp_path / "sweep.csv"
        run("sweep", *flags, "--out", str(path))
        outputs["sweep " + " ".join(flags)] = path.read_bytes()
    files = []
    for family in GEN:
        label = "gen " + " ".join(family)
        path = tmp_path / f"gen-{len(files)}.json"
        run("gen", *family, "--out", str(path))
        files.append((label, path))
    for label, behavior in saved_behaviors():
        path = tmp_path / f"saved-{len(files)}.json"
        save_behavior(behavior, path)
        files.append((label, path))
    for label, path in files:
        outputs[label] = path.read_bytes()
        outputs["certify " + label] = run("certify", str(path))
    for flags in OPTIMIZE:
        label = "optimize " + " ".join(flags)
        report, strategy = tmp_path / "report.json", tmp_path / "strategy.json"
        outputs[label] = run("optimize", *flags, "--report-out", str(report), "--strategy-out", str(strategy))
        outputs[label + " --report-out"] = report.read_bytes()
        outputs[label + " --strategy-out"] = strategy.read_bytes()
    return {label: hashlib.sha256(data).hexdigest() for label, data in outputs.items()}


def test_promised_bytes_match_the_manifest(tmp_path):
    want = {**GOLDEN, **{"sweep " + " ".join(flags): digest for flags, digest in SWEEP_DIGESTS.items()}}
    assert produced(tmp_path) == want
