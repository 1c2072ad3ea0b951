"""The self-check battery: determinism, report shape, pinned discrepancies,
and a golden net of whole-report digests, passing and under mutants."""

import hashlib
import json
import random
import time
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from cotsum import core, distribution, exact, numeric, totient, verify
from cotsum.verify import _randint, report_text, run_checks


@pytest.fixture(scope="module")
def small_report():
    return run_checks(max_b=25, max_n=60, seed=7)


def test_small_run_is_green(small_report):
    assert small_report["summary"]["ok"] is True
    assert small_report["summary"]["failed"] == 0
    assert small_report["summary"]["passed"] == small_report["summary"]["checks"]
    for check in small_report["checks"]:
        assert check["passed"], check
        assert check["cases"] > 0


def test_report_parameters_echoed(small_report):
    assert small_report["parameters"] == {"max_b": 25, "max_n": 60, "seed": 7}


def test_check_names_unique_and_grouped(small_report):
    names = [(c["module"], c["name"]) for c in small_report["checks"]]
    assert len(names) == len(set(names))
    modules = {c["module"] for c in small_report["checks"]}
    assert {"exact", "core", "numeric", "totient", "distribution"} <= modules


def test_report_is_json_ready_and_deterministic(small_report):
    blob = json.dumps(small_report, sort_keys=True)
    again = json.dumps(run_checks(max_b=25, max_n=60, seed=7), sort_keys=True)
    assert blob == again
    assert json.loads(blob) == small_report


def test_workers_do_not_change_the_report(small_report, monkeypatch):
    # two CPUs, so the seed-free checks run in a forked child on any host
    monkeypatch.setattr(distribution.os, "cpu_count", lambda: 2)
    parallel = run_checks(max_b=25, max_n=60, seed=7, workers=2)
    assert parallel == small_report


class _NoDraws(random.Random):
    """A stream that refuses every draw the battery makes (`_randint` reads getrandbits)."""

    def getrandbits(self, k):
        raise AssertionError("drew from the stream")


def test_checks_declared_seed_free_never_draw():
    # two processes run these away from the stream, so a wrong declaration
    # would move the report; each must pass without a single draw
    ctx = verify._Ctx(max_b=25, max_n=60, rng=_NoDraws(7))
    free = [check for i, check in enumerate(verify._CHECKS) if i not in verify._SEEDED]
    assert len(free) == 13
    for check in free:
        result = check(ctx)
        assert result.passed and result.cases > 0, result


def test_checks_declared_seeded_draw():
    # and the other way round: a check declared seeded but drawing nothing
    # would only keep work off the child
    assert len(verify._SEEDED) == 8
    for i in sorted(verify._SEEDED):
        ctx = verify._Ctx(max_b=25, max_n=60, rng=_NoDraws(7))
        with pytest.raises(AssertionError, match="^drew from the stream$"):
            verify._CHECKS[i](ctx)


def test_pinned_discrepancies(small_report):
    pinned = {rec["name"]: rec for rec in small_report["expected_discrepancies"]}
    assert small_report["summary"]["expected_discrepancies_pinned"] is True
    assert set(pinned) == {
        "mobius-half-open-undercount",
        "partition-indexed-by-divisor",
        "coprime-sum-off-symmetry",
    }
    for rec in pinned.values():
        assert rec["matches_pin"] is True
        assert rec["observed"] == rec["pinned"]

    assert pinned["mobius-half-open-undercount"]["observed"] == {
        "variant": 4, "corrected": 5, "agrees_for_n_above_1": True,
    }
    assert pinned["partition-indexed-by-divisor"]["observed"] == {"variant": 3, "corrected": 2}
    assert pinned["coprime-sum-off-symmetry"]["observed"] == {"sum": 3, "paired_formula": "5"}


def test_empirical_extremes_recorded(small_report):
    emp = small_report["empirical"]["main-term-error"]
    assert set(emp) >= {"max_abs_error", "max_error_over_2omega"}
    # the factor-of-2 headroom in the bound: the normalized ratio stays < 1
    assert 0 <= emp["max_error_over_2omega"] < 1


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        run_checks(max_b=1)
    with pytest.raises(ValueError):
        run_checks(max_n=0)
    with pytest.raises(ValueError):
        run_checks(workers=0)


# (kwargs, the exact message). The ids keep the names these cases were first
# collected under, from before the one wording of errors.check_int.
NON_INT_PARAMETERS = [
    ({"max_b": True}, "max_b must be an integer >= 2, got True", "max_b must be >= 2, got True"),
    ({"max_b": 4.5}, "max_b must be an integer >= 2, got 4.5", "max_b must be >= 2, got 4.5"),
    ({"max_b": "500"}, "max_b must be an integer >= 2, got '500'", "max_b must be >= 2, got 500"),
    ({"max_n": True}, "max_n must be an integer >= 1, got True", "max_n must be >= 1, got True"),
    ({"max_n": 2.0}, "max_n must be an integer >= 1, got 2.0", "max_n must be >= 1, got 2.0"),
    ({"workers": True}, "workers must be an integer >= 1, got True", "workers must be >= 1, got True"),
    ({"workers": 2.0}, "workers must be an integer >= 1, got 2.0", "workers must be >= 1, got 2.0"),
    ({"seed": True}, "seed must be an integer, got True", "seed must be an int, got True"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5", "seed must be an int, got 1.5"),
    ({"seed": "42"}, "seed must be an integer, got '42'", "seed must be an int, got '42'"),
]


@pytest.mark.parametrize(
    "kwargs,message",
    [case[:2] for case in NON_INT_PARAMETERS],
    ids=[f"kwargs{i}-{case[2]}" for i, case in enumerate(NON_INT_PARAMETERS)],
)
def test_non_int_parameters_rejected_up_front(kwargs, message):
    # bool is an int; refused before any check runs, not deep inside one
    with pytest.raises(ValueError) as info:
        run_checks(**kwargs)
    assert str(info.value) == message


def _unreachable(ctx):
    raise AssertionError("a check ran although run_checks should have refused its arguments")


def test_oversized_max_b_refused_before_any_check(monkeypatch):
    # the sweep check's residue ceiling also bounds the trichotomy check, which
    # walks the same residues; both are refused before the first check runs
    monkeypatch.setattr(verify, "_CHECKS", (_unreachable,))
    over = r"^a sweep classifies at most 50000000 residues, got 50004998 for b in \[2, 10001\]$"
    with pytest.raises(ValueError, match=over):
        run_checks(max_b=10_001, max_n=1)
    verify._check_run_args(10_000, 1, 0, 1)  # 49,994,998 residues, the widest under it


def test_a_library_invariant_error_is_a_failing_check(monkeypatch):
    # the runner reports a self-check's message with no counterexample, and
    # the rest of the battery runs on
    module, attr, make = MUTANTS["tag-zero-as-plus-above-10"][:3]
    monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    report = run_checks(max_b=11, max_n=1)
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing == [{
        "module": "core", "name": "trichotomy-and-predicates", "passed": False, "cases": 32,
        "detail": "tag PlusHalfB inconsistent with value 0", "counterexample": None,
    }]
    assert report["summary"]["checks"] == 21


def test_a_value_error_inside_a_check_is_not_a_failing_check(monkeypatch):
    # malformed input is not a broken identity: it leaves run_checks unreported
    def refuse(n, lo, hi):
        raise ValueError("refused inside a check")

    monkeypatch.setattr(totient, "phi_approx", refuse)
    with pytest.raises(ValueError, match="^refused inside a check$"):
        run_checks(max_b=2, max_n=2)


# lo == hi, width 2, widths 2^k - 1, 2^k and 2^k + 1 (where the rejection
# loop's bit count changes), widths above 2^64, and negative lo
_RANDINT_RANGES = (
    [(5, 5), (-3, -3), (0, 1), (7, 8)]
    + [(1, w) for k in (2, 3, 5, 8, 13, 31, 32, 53, 63, 64, 65) for w in (2**k - 1, 2**k, 2**k + 1)]
    + [(0, 2**70 + 12345), (-(2**65), 2**65), (-1000, 1000), (-(2**40), -1)]
)


def test_randint_draws_what_random_randint_draws():
    # the battery's report is pinned to Random.randint's stream: same values,
    # and the generator left in the same state after every sequence
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for lo, hi in _RANDINT_RANGES:
            got = [_randint(ours, lo, hi) for _ in range(3)]
            want = [theirs.randint(lo, hi) for _ in range(3)]
            assert got == want, (seed, lo, hi)
            assert ours.getstate() == theirs.getstate(), (seed, lo, hi)


# ---------------------------------------------------------------- golden net
# sha256 of the report bytes `cotsum verify` writes, for small triples and for
# failing batteries under single-fault mutants. A change that means to move a
# report updates its pin here and says which one in CHANGES.md.


def report_sha256(report: dict) -> str:
    return hashlib.sha256(report_text(report).encode()).hexdigest()


@pytest.fixture(scope="module")
def timed_12_30():
    """(report, times) of run_checks(12, 30, 0) with verify._CHECKS rebound to
    timing wrappers keyed on each result's module/name, as the benchmark
    rebinds it; the report must come out as it does unwrapped."""
    times: dict[str, float] = {}

    def timed(check):
        def wrapper(*args):
            start = time.perf_counter()
            result = check(*args)
            times[f"{result.module}/{result.name}"] = time.perf_counter() - start
            return result

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_CHECKS", tuple(timed(c) for c in verify._CHECKS))
        report = run_checks(max_b=12, max_n=30, seed=0)
    return report, times


# sha256 of the report bytes at each small (max_b, max_n, seed) triple, at
# every workers
REPORT_SHA256 = {
    (12, 30, 0): "05f54f3310c309a04456100799825848671b8afbd288a28a4aaf6e84f5775c7f",
    (25, 60, 7): "86ccc72152de2bc414d7726bea916aca5079e9149c4436600683814bc6482810",
    (25, 60, 1009): "f26776046c400157b8c54ac88bdafb999aa432fdfe29eb54118652435e58e863",
}


def test_report_bytes_pinned_25_60_7(small_report):
    assert report_sha256(small_report) == REPORT_SHA256[25, 60, 7]


def test_report_bytes_pinned_12_30_0(timed_12_30):
    assert report_sha256(timed_12_30[0]) == REPORT_SHA256[12, 30, 0]


def test_report_bytes_pinned_25_60_1009():
    assert report_sha256(run_checks(max_b=25, max_n=60, seed=1009)) == REPORT_SHA256[25, 60, 1009]


@pytest.mark.parametrize("triple", list(REPORT_SHA256), ids=lambda triple: "-".join(map(str, triple)))
def test_report_bytes_pinned_at_workers_2(triple, monkeypatch):
    # the pins above, with the seed-free checks run in a forked child
    monkeypatch.setattr(distribution.os, "cpu_count", lambda: 2)
    assert report_sha256(run_checks(*triple, workers=2)) == REPORT_SHA256[triple]


@pytest.mark.parametrize(
    "workers,cpus,forks",
    [
        (1, 2, False),
        (2, 1, False),  # one CPU: nothing forked
        (2, 2, True),
        (4, 2, True),
        (3, 4, True),  # at most two shares: the child's sweep check forks nothing
        (8, 8, True),
    ],
    ids=[
        "workers-1", "workers-2-on-1-cpu", "workers-2-on-2-cpus", "workers-4-on-2-cpus", "workers-3-on-4-cpus",
        "workers-8-on-8-cpus",
    ],
)
def test_run_checks_starts_at_most_one_process_per_cpu_and_share(monkeypatch, workers, cpus, forks):
    # a stand-in for the fork step runs each child's share in this process
    # and records the checks it ran; a job it runs may not fork again, since
    # a kill of the children would not reach a grandchild
    ran = []  # the position of every check, in the order it ran
    shares = []  # the positions run by each share handed to the fork step

    def logged(i, check):
        def run(ctx):
            ran.append(i)
            return check(ctx)

        return run

    forking = []  # the job the stand-in is running, if any

    def fork(job):
        if forking:
            pytest.fail("a forked job forked again")
        forking.append(job)
        first = len(ran)
        results = job()
        shares.append(ran[first:])
        forking.pop()
        return lambda kill=False: results

    monkeypatch.setattr(verify, "_CHECKS", tuple(logged(i, c) for i, c in enumerate(verify._CHECKS)))
    monkeypatch.setattr(distribution, "_fork", fork)
    monkeypatch.setattr(distribution.os, "cpu_count", lambda: cpus)
    assert report_sha256(run_checks(max_b=12, max_n=30, seed=0, workers=workers)) == REPORT_SHA256[12, 30, 0]
    positions = list(range(len(verify._CHECKS)))
    free = [i for i in positions if i not in verify._SEEDED]
    seeded = [i for i in positions if i in verify._SEEDED]
    assert len(free) == 13
    assert shares == ([free] if forks else [])
    # the child's share is forked before this process runs its own
    assert ran == (free + seeded if forks else positions)


def test_workers_3_run_leaves_no_process_behind_when_a_share_raises(monkeypatch, tmp_path):
    # four CPUs, so workers=3 allows three processes. The child's sweep check
    # marks each modulus started, sleeps and marks it done; this process's
    # main-term check waits for the first mark and raises, which kills the
    # child mid-sleep. A process the kill missed would mark a modulus done
    sleep, sweep = 0.5, distribution.sweep

    def slow_sweep(b):
        (tmp_path / f"started-{b}").touch()
        time.sleep(sleep)
        (tmp_path / f"done-{b}").touch()
        return sweep(b)

    def refuse(n, lo, hi):
        deadline = time.monotonic() + 30
        while not any(tmp_path.glob("started-*")) and time.monotonic() < deadline:
            time.sleep(0.01)
        raise ValueError("refused once a sweep started")

    monkeypatch.setattr(distribution.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(distribution, "sweep", slow_sweep)
    monkeypatch.setattr(totient, "phi_approx", refuse)
    with pytest.raises(ValueError, match="^refused once a sweep started$"):
        run_checks(max_b=12, max_n=30, seed=0, workers=3)
    time.sleep(2 * sleep)
    assert [path.name for path in tmp_path.glob("started-*")]
    assert [path.name for path in tmp_path.glob("done-*")] == []


def _kernel_plus_b_above_10(kernel):
    def mutant(na, b):
        num, den = kernel(na, b)
        return (num + b * den, den) if b > 10 else (num, den)

    return mutant


def _boundary_plus_b_at_k_b_plus_1(boundary_value):
    return lambda na, b, k: boundary_value(na, b, k) + (b if k == b + 1 else 0)


def _mobius_plus_1_where_7_divides_n(mobius_count):
    return lambda n, *rest: mobius_count(n, *rest) + (n % 7 == 0)


def _tag_zero_as_plus_above_10(tag):
    # the library's own self-check catches it: CotSumValue refuses the tag
    return lambda num, den, b: 1 if num == 0 and b > 10 else tag(num, den, b)


# these two fail where a check fails before counting the case: the first in
# PhiApproximation's own bound check, the second in the check itself
def _approx_bound_0_at_17(phi_approx):
    return lambda n, lo, hi: replace(phi_approx(n, lo, hi), bound=0) if n == 17 else phi_approx(n, lo, hi)


def _legendre_1_at_9_0(legendre_phi):
    return lambda n, x: 1 if (n, x) == (9, 0) else legendre_phi(n, x)


def _tolerance_below_0(tol):
    return lambda b: -1.0


def _negated_above_2b_at_n_2(eval_exact):
    return lambda n, a, b: -eval_exact(n, a, b) if n == 2 and a > 2 * b else eval_exact(n, a, b)


def _halved_for_even_b(eval_exact):
    return lambda n, a, b: eval_exact(n, a, b) / 2 if b % 2 == 0 else eval_exact(n, a, b)


def _frac_part_1_at_multiples(frac_part):
    # {x} taken in (0, 1] instead of [0, 1)
    return lambda n, a, b: frac_part(n, a, b) or Fraction(1)


def _prime_square_read_as_prime(arithmetic_profile):
    # what trial division bounded by p * p < n, not p * p <= n, makes of
    # n = p^2, p >= 5: one prime n, a profile that still validates itself
    def mutant(n):
        profile = arithmetic_profile(n)
        if n < 25 or [e for _, e in profile.prime_powers] != [2]:
            return profile
        return totient.ArithmeticProfile(n, ((n, 1),), 1, -1, n - 1, ((1, 1), (n, -1)))

    return mutant


def _coprime_sum_drops_lo(coprime_sum):
    # the sum over (lo, hi] instead of [lo, hi]
    return lambda n, lo, hi, strict=True: coprime_sum(n, lo, hi, strict) - lo * (gcd(n, lo) == 1)


# id: (module, attribute, mutant of the original, report sha256 at (12, 30, 0),
# the failing checks with their case counts at the first failure).
# tests/regen_cli_pins.py applies these same mutants by id.
MUTANTS = {
    "kernel-plus-b-above-10": (
        core, "_kernel", _kernel_plus_b_above_10, "76d1b9f47b8525609e608c225c19cd6704b19e9bdbc71114636014f3c89d6e59",
        [("trichotomy-and-predicates", 30), ("magnitude-bound", 143), ("master-congruence-witness", 88), ("float-oracle-agreement", 487)],
    ),
    # the sweep reads core._kernel through its own binding
    "sweep-kernel-plus-b-above-10": (
        distribution, "_kernel", _kernel_plus_b_above_10, "3c331b2037e5f367fbb2305023f4611cc5abe304ee103e719d67c930ef59a063",
        [("sweep-closed-forms", 9)],
    ),
    "tag-zero-as-plus-above-10": (
        core, "_tag", _tag_zero_as_plus_above_10, "0ffef10bca1273bb408ad6cfa51513518bb14d0030045c19d7a4906bf886dba7",
        [("trichotomy-and-predicates", 32)],
    ),
    "boundary-plus-b-at-k-b-plus-1": (
        exact, "_boundary_value", _boundary_plus_b_at_k_b_plus_1, "05d95ef19383fa47d554c6e962a2fc98c4c08f76efdf97404bc984300d711571",
        [("shift-rule-vs-direct-reduction", 4), ("boundary-count-window-steps", 4)],
    ),
    "mobius-plus-1-where-7-divides-n": (
        totient, "_mobius_count", _mobius_plus_1_where_7_divides_n, "b94353fe805df045cbdbdd90e48ffe0f190b4f0762872c68b5da0276c19e244f",
        [("prefix-exhaustive-agreement", 94), ("random-rational-agreement", 1231), ("prefix-decomposition", 1002), ("gcd-partition-telescopes", 301), ("sweep-closed-forms", 5)],
    ),
    "approx-bound-0-at-17": (
        totient, "phi_approx", _approx_bound_0_at_17, "354c3f70af60d6843bb3a516ac6d2f46ae0b522dddba7e7719a01b03af1a0b75",
        [("main-term-error-bound", 1500)],
    ),
    "legendre-1-at-9-0": (
        totient, "legendre_phi", _legendre_1_at_9_0, "eb5b18ba61e464c4786505e79438f0d8c51f37e51eba532d15028e7f75a004b1",
        [("prefix-exhaustive-agreement", 148)],
    ),
    "tolerance-below-0": (
        numeric, "tol", _tolerance_below_0, "426e070718e9c0e52df51b821e48673094e5394eca27592442c6cdb72769aaff",
        [("known-values", 2), ("float-oracle-agreement", 1), ("vanishing-cosine-powers", 1), ("vanishing-sine-squares", 1), ("sine-sum-fractional-part", 1)],
    ),
    "negated-above-2b-at-n-2": (
        core, "eval_exact", _negated_above_2b_at_n_2, "42b1d057b1ab69872b1707f88af46d27b72e01f314f0cab8abfc2f911243d338",
        [("periodicity-in-first-argument", 20)],
    ),
    "halved-for-even-b": (
        core, "eval_exact", _halved_for_even_b, "4d8d50b16aa7ce4f6476b2178e8a4c1505983373f71d734b38da5381b6f796ef",
        [("known-values", 7), ("even-modulus-integrality", 4), ("master-congruence-witness", 4), ("float-oracle-agreement", 46)],
    ),
    "frac-part-1-at-multiples": (
        exact, "frac_part", _frac_part_1_at_multiples, "00dfaebb4a489d77cabae59f008b6b7de6992d7afdec74e4e4652f55daf2eefe",
        [("shift-rule-vs-direct-reduction", 1), ("unit-shift-rules", 1)],
    ),
    "prime-square-read-as-prime": (
        totient, "arithmetic_profile", _prime_square_read_as_prime, "4f269428770a9fe7d059431b134c99091fb23cfef78fee8c403c1a36b81c863e",
        [("profile-invariants", 25), ("prefix-exhaustive-agreement", 1025), ("random-rational-agreement", 4921), ("prefix-decomposition", 4585)],
    ),
    "coprime-sum-drops-lo": (
        totient, "coprime_sum", _coprime_sum_drops_lo, "e1799655ee4fc6655405627d301dceda4e6d97256d708cb5900cc05e7a80f052",
        [("symmetric-coprime-sum", 2)],
    ),
}


@pytest.mark.parametrize("workers", [1, 2], ids=["workers-1", "workers-2"])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_failing_report_bytes_pinned_under_mutant(mutant, workers, monkeypatch):
    # at workers=2 the forked child inherits the monkeypatched mutant,
    # whichever share runs the checks it breaks
    module, attr, make, sha256, failing = MUTANTS[mutant]
    monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    monkeypatch.setattr(distribution.os, "cpu_count", lambda: 2)
    report = run_checks(max_b=12, max_n=30, seed=0, workers=workers)
    assert [(c["name"], c["cases"]) for c in report["checks"] if not c["passed"]] == failing
    assert report["summary"]["ok"] is False
    assert report_sha256(report) == sha256


@pytest.mark.parametrize("mutant", sorted(m for m in MUTANTS if MUTANTS[m][1] in ("_kernel", "_tag")))
def test_sweep_rows_under_kernel_and_tag_mutants_at_workers_2(mutant, monkeypatch):
    # each mutant is applied to the sweep's own binding of what it patches
    attr, make = MUTANTS[mutant][1:3]
    clean = distribution.sweep_range(2, 60)
    monkeypatch.setattr(distribution, attr, make(getattr(distribution, attr)))
    monkeypatch.setattr(distribution.os, "cpu_count", lambda: 2)
    serial = distribution.sweep_range(2, 60)
    assert serial != clean
    assert distribution.sweep_range(2, 60, workers=2) == serial


def test_every_check_has_a_failing_golden_pin(small_report):
    # so a new check cannot land without a mutant that it catches
    caught = {name for *_, failing in MUTANTS.values() for name, _ in failing}
    checks = {c["name"] for c in small_report["checks"]}
    assert len(checks) == 21
    assert caught == checks


def test_checks_are_rebindable_result_callables_in_report_order(timed_12_30):
    # the benchmark times each check through verify._CHECKS at workers=1; its
    # report bytes are pinned above with the wrappers in place, and the one
    # share runs them in report order
    report, times = timed_12_30
    assert len(verify._CHECKS) == 21 and all(map(callable, verify._CHECKS))
    assert list(times) == [f"{c['module']}/{c['name']}" for c in report["checks"]]
