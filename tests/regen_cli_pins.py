"""The CLI argv corpus and the script that regenerates its pins.

`CORPUS` lists (argv, mutant) pairs for the five commands. `run` applies the
golden net's mutant that `mutant` names, by its id in tests/test_verify.py's
`MUTANTS` (this file keeps no mutant table of its own), runs the argv through
the tests' one CLI runner, `conftest.run_cli`
(`cli.main` in this process), and returns its exit code and the sha256 of
what it wrote to stdout. tests/cli_pins.json holds those pairs for every
entry, and tests/test_cli_pins.py replays them.

Rewrite the pins from the repository root with

    PYTHONPATH=src python tests/regen_cli_pins.py

A regeneration is a reviewed diff: each changed line is a changed record.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
from unittest import mock

from conftest import run_cli
from test_verify import MUTANTS

from cotsum.numeric import _FLOAT_MAX_B, _TABLE_MAX_B
from cotsum.totient import _FACTOR_MAX, _SCAN_MAX

PINS_PATH = pathlib.Path(__file__).with_name("cli_pins.json")


def run(argv: list[str], mutant: str | None = None) -> tuple[int, str]:
    """(exit code, stdout sha256) of run_cli(*argv), under `mutant` if it names one."""
    patch = contextlib.nullcontext()
    if mutant is not None:
        module, attr, make = MUTANTS[mutant][:3]
        patch = mock.patch.object(module, attr, make(getattr(module, attr)))
    with patch:
        code, out, _ = run_cli(*argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


def _eval() -> list[list[str]]:
    # b = 4097 streams its float sums; b = 4096 reads the cached tables
    triples = [(1, 1, 4), (1, 1, 3), (2, 3, 7), (1, 4, 4), (1, 3, 9), (5, 2, 6), (10**12, 10**12 + 1, 97)]
    triples += [(1, 7, _TABLE_MAX_B), (3, 5, _TABLE_MAX_B + 1)]
    argvs = [
        ["eval", "-n", str(n), "-a", str(a), "-b", str(b), "--mode", mode]
        for n, a, b in triples
        for mode in ("exact", "float", "both")
    ]
    # a float sum at the ceiling itself would take seconds, so only exact there
    argvs.append(["eval", "-n", "1", "-a", "7", "-b", str(_FLOAT_MAX_B), "--mode", "exact"])
    for mode in ("exact", "float", "both"):
        argvs.append(["eval", "-n", "1", "-a", "7", "-b", str(_FLOAT_MAX_B + 1), "--mode", mode])
    argvs += [
        ["eval", "-n", "1", "-a", "1", "-b", "4"],
        ["eval", "-n", "1", "-a", "1", "-b", "1"],
        ["eval", "-n", "0", "-a", "1", "-b", "4"],
        ["eval", "-n", "1", "-a", "0", "-b", "4"],
        ["eval", "-n", "-3", "-a", "1", "-b", "4"],
        ["eval", "-n", "1", "-a", "1"],
        ["eval", "-n", "x", "-a", "1", "-b", "4"],
        ["eval", "-n", "1", "-a", "1.5", "-b", "4"],
        ["eval", "-n", "1", "-a", "1", "-b", "True"],
        ["eval", "-n", "1", "-a", "1", "-b", "4", "--mode", "bogus"],
    ]
    return argvs


def _classify() -> list[list[str]]:
    pairs = [(a, b) for b in (2, 4, 5, 7) for a in range(1, b)]
    pairs += [(1, 3), (2, 3)]  # b = 3: no witness, no predicate
    pairs += [(3, 9), (4, 10), (6, 8)]  # gcd > 1, with and without a witness
    pairs += [(7, 5), (10, 5), (12, 5)]  # a >= b, r = 0 among them
    pairs += [(10**12, 7), (10**12 - 1, 1009), (10**12 + 1, 999983), (1, 10**6 + 3)]
    argvs = [["classify", "-a", str(a), "-b", str(b)] for a, b in pairs]
    strict = [(1, 4), (2, 4), (3, 7), (1, 3), (2, 3), (3, 9), (4, 10), (7, 5), (10**12, 7), (10**12 + 1, 999983)]
    argvs += [["classify", "-a", str(a), "-b", str(b), "--strict"] for a, b in strict]
    argvs += [
        ["classify", "-a", "1", "-b", "1"],
        ["classify", "-a", "0", "-b", "5"],
        ["classify", "-a", "x", "-b", "5"],
        ["classify", "-b", "5"],
    ]
    return argvs


def _totient() -> list[list[str]]:
    methods = ("direct", "mobius", "approx", "all")
    ranges = [
        ("12", "5", "17"),
        ("6", "1/2", "10/3"),  # rational endpoints
        ("6", "2/4", "14/3"),  # echoed reduced
        ("10", "0.5", "1e2"),  # decimal and exponent text
        ("30", "7", "100"),
        ("97", "1", "1000"),
        ("1", "5", "17"),  # n = 1: approx has no prime to work with
        ("6", "0", "5"),  # a zero endpoint
        ("6", "-1", "5"),
        ("6", "1", str(_SCAN_MAX + 1)),  # one integer over the gcd scan ceiling
        (str(_FACTOR_MAX + 1), "1", "10"),  # one over the factorization ceiling
    ]
    argvs = [["totient", n, lo, hi, "--method", m] for n, lo, hi in ranges for m in methods]
    argvs += [
        ["totient", "12", "5", "17"],
        ["totient", str(_FACTOR_MAX), "1", "10", "--method", "mobius"],
        ["totient", "6", "1/2", "7", "--method", "approx"],
        ["totient", "0", "1", "5"],
        ["totient", "6", "0", "0"],
        ["totient", "6", "5", "0"],
        ["totient", "6", "9", "4"],  # out of order
        ["totient", "6", "7/2", "3"],
        ["totient", "6", "10/3", "13/4"],
        ["totient", "6", "1/0", "5"],  # malformed
        ["totient", "6", "x", "5"],
        ["totient", "6", "1", "2/0"],
        ["totient", "6", "", "5"],
        ["totient", "6", "True", "5"],
        ["totient", "6", "1/2/3", "5"],
        ["totient", "6", "1", "5", "--method", "bogus"],
        ["totient", "6", "1"],
    ]
    return argvs


def _sweep() -> list[list[str]]:
    argvs = [
        ["sweep", lo, hi, "--format", fmt]
        for lo, hi in (("2", "6"), ("4", "10"), ("3", "3"), ("3", "8"), ("2", "2"))
        for fmt in ("csv", "json")
    ]
    argvs += [
        ["sweep", "2", "30"],
        ["sweep", "2", "30", "--workers", "2"],
        ["sweep", "2", "30", "--format", "json", "--workers", "2"],
        ["sweep", "2", "10001"],  # 50,004,998 residues, just over the ceiling
        ["sweep", "2", "10000000000"],
        ["sweep", "10", "5"],
        ["sweep", "1", "5"],
        ["sweep", "2", "6", "--workers", "0"],
        ["sweep", "2", "6", "--format", "xml"],
        ["sweep", "2"],
        ["sweep", "2", "6", "--out", "."],  # a directory cannot be written as a file
        ["sweep", "2", "6", "--format", "json", "--out", "."],
    ]
    return argvs


def _verify() -> list[list[str]]:
    return [
        ["verify", "--max-b", "12", "--max-n", "30", "--seed", "0"],
        ["verify", "--max-b", "2", "--max-n", "1", "--seed", "5", "--report", "."],
        ["verify", "--max-b", "1"],
        ["verify", "--max-n", "0"],
        ["verify", "--seed", "x"],
        ["verify", "--workers", "0"],
    ]


CORPUS: list[tuple[list[str], str | None]] = [
    (argv, None) for group in (_eval, _classify, _totient, _sweep, _verify) for argv in group()
]
CORPUS += [(["nonsense"], None), ([], None)]
CORPUS += [
    (["eval", "-n", "1", "-a", "1", "-b", "4", "--mode", "both"], "tolerance-below-0"),
    (["eval", "-n", "3", "-a", "5", "-b", str(_TABLE_MAX_B + 1), "--mode", "both"], "tolerance-below-0"),
    (["eval", "-n", "1", "-a", "1", "-b", "4", "--mode", "float"], "tolerance-below-0"),
    # the golden net's failing report at (12, 30, 0), written to stdout
    (["verify", "--max-b", "12", "--max-n", "30", "--seed", "0"], "tolerance-below-0"),
    (["sweep", "2", "20"], "sweep-kernel-plus-b-above-10"),
    (["sweep", "2", "20", "--format", "json"], "sweep-kernel-plus-b-above-10"),
    (["sweep", "2", "10"], "sweep-kernel-plus-b-above-10"),
    (["totient", "14", "1", "100", "--method", "all"], "mobius-plus-1-where-7-divides-n"),
    (["totient", "14", "1", "100", "--method", "mobius"], "mobius-plus-1-where-7-divides-n"),
    (["totient", "15", "1", "100", "--method", "all"], "mobius-plus-1-where-7-divides-n"),
    # a library self-check fails: no classify record, but a verify report
    (["classify", "-a", "4", "-b", "11"], "tag-zero-as-plus-above-10"),
    (["verify", "--max-b", "12", "--max-n", "30", "--seed", "0"], "tag-zero-as-plus-above-10"),
]


def main() -> None:
    lines = []
    for argv, mutant in CORPUS:
        code, sha256 = run(argv, mutant)
        lines.append(json.dumps({"argv": argv, "mutant": mutant, "exit": code, "stdout_sha256": sha256}))
    PINS_PATH.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(lines)} pins to {PINS_PATH}")


if __name__ == "__main__":
    main()
