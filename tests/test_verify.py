"""The self-check battery: determinism, report shape, pinned discrepancies,
and a golden net of whole-report digests, passing and under mutants."""

import hashlib
import importlib
import itertools
import json
import pkgutil
import random
import time
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

import cotsum
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


class _NoDraws(random.Random):
    """A stream that refuses every draw the battery makes (`_randint` reads getrandbits)."""

    def getrandbits(self, k):
        raise AssertionError("drew from the stream")


def test_checks_declared_seeded_draw_and_no_other_check_does():
    # two processes run the seed-free checks away from the stream, so a wrong
    # declaration would move the report: each must pass without a single
    # draw. And the other way round: a check declared seeded but drawing
    # nothing would only keep work off the child
    seeded = [check.seeded for check in verify._CHECKS]
    assert (seeded.count(False), seeded.count(True)) == (13, 8)
    for check in verify._CHECKS:
        ctx = verify._Ctx(max_b=25, max_n=60, rng=_NoDraws(7))
        if check.seeded:
            with pytest.raises(AssertionError, match="^drew from the stream$"):
                check(ctx)
        else:
            result = check(ctx)
            assert result.passed and result.cases > 0, result


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
    # the battery's own ceiling bounds the trichotomy check, which walks every
    # residue of every b <= max_b; it is refused before the first check runs
    monkeypatch.setattr(verify, "_CHECKS", (_unreachable,))
    over = r"^max_b must be at most 2500, got 2501$"
    with pytest.raises(ValueError, match=over):
        run_checks(max_b=2501, max_n=1)
    verify._check_run_args(2500, 1, 0, 1)  # the widest battery under it


def test_a_library_invariant_error_is_a_failing_check(monkeypatch):
    # the runner reports a self-check's message with no counterexample, and
    # the rest of the battery runs on
    module, attr, make = MUTANTS["tag-zero-as-plus-above-10"][:3]
    monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    report = run_checks(max_b=11, max_n=1)
    failing = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == ["trichotomy-and-predicates", "sweep-closed-forms"]
    assert failing[0] == {
        "module": "core", "name": "trichotomy-and-predicates", "passed": False, "cases": 32,
        "detail": "tag PlusHalfB inconsistent with value 0", "counterexample": None,
    }
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
    """(report, timed) of run_checks(12, 30, 0) with verify._CHECKS and
    verify._expected_discrepancies rebound to timing wrappers, as the
    benchmark rebinds them. timed lists (key, seconds) in the order the
    wrappers returned: a check keyed on its result's module/name, the pins on
    "pins". The report must come out as it does unwrapped."""
    timed: list[tuple[str, float]] = []

    def timing(fn, key):
        def wrapper(*args):
            start = time.perf_counter()
            result = fn(*args)
            timed.append((key(result), time.perf_counter() - start))
            return result

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_CHECKS", tuple(timing(c, lambda r: f"{r.module}/{r.name}") for c in verify._CHECKS))
        mp.setattr(verify, "_expected_discrepancies", timing(verify._expected_discrepancies, lambda r: "pins"))
        report = run_checks(max_b=12, max_n=30, seed=0)
    return report, timed


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
def test_run_checks_starts_at_most_one_process_per_cpu_and_share(monkeypatch, fork_here, workers, cpus, forks):
    # fork_here runs each child's share in this process and records its
    # check positions, and fails the test if a job it runs forks again
    ran = []  # the position of every check, in the order it ran

    def logged(i, gen):
        def run(ctx):
            ran.append(i)
            return gen(ctx)

        return run

    # each record keeps its seeded flag, which cuts the shares
    monkeypatch.setattr(verify, "_CHECKS", tuple(replace(c, gen=logged(i, c.gen)) for i, c in enumerate(verify._CHECKS)))
    monkeypatch.setattr(distribution.os, "cpu_count", lambda: cpus)
    assert report_sha256(run_checks(max_b=12, max_n=30, seed=0, workers=workers)) == REPORT_SHA256[12, 30, 0]
    positions = list(range(len(verify._CHECKS)))
    free = [i for i in positions if not verify._CHECKS[i].seeded]
    seeded = [i for i in positions if verify._CHECKS[i].seeded]
    assert len(free) == 13
    assert fork_here == ([free] if forks else [])
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
# the failing checks with their case counts at the first failure). Each
# patches the module that defines its name, and no module binds a sibling's
# private name, so the one mutant reaches every caller.
# tests/regen_cli_pins.py applies these same mutants by id.
MUTANTS = {
    "kernel-plus-b-above-10": (
        core, "_kernel", _kernel_plus_b_above_10, "38212aeaa829f9f4e8a9e6c4359d524e2b9b8035d01f95a529d1e940ddb227ea",
        [("trichotomy-and-predicates", 30), ("magnitude-bound", 143), ("master-congruence-witness", 88), ("float-oracle-agreement", 487), ("sweep-closed-forms", 9)],
    ),
    "tag-zero-as-plus-above-10": (
        core, "_tag", _tag_zero_as_plus_above_10, "1aaf366c0f5389a78eae5563e4a5459c3a372590aba576e9a2e24ce841a5d341",
        [("trichotomy-and-predicates", 32), ("sweep-closed-forms", 9)],
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


def test_each_mutant_patches_the_one_binding_of_its_target():
    # a second binding (`_kernel = core._kernel`, `from .core import
    # eval_exact`) would keep its callers on the original, out of the mutant's
    # reach; the package's lazy re-exports serve users, not callers inside it
    modules = [importlib.import_module(f"cotsum.{m.name}")
               for m in pkgutil.iter_modules(cotsum.__path__) if m.name != "__main__"]
    for module, attr, *_ in MUTANTS.values():
        target = getattr(module, attr)
        assert target.__module__ == module.__name__, (module.__name__, attr)
        bound = [(m.__name__, name) for m in modules for name, value in vars(m).items() if value is target]
        assert bound == [(module.__name__, attr)]


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
    module, attr, make = MUTANTS[mutant][:3]
    clean = distribution.sweep_range(2, 60)
    monkeypatch.setattr(module, attr, make(getattr(module, attr)))
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
    # the benchmark times each check through verify._CHECKS at workers=1, and
    # the pins through verify._expected_discrepancies; its report bytes are
    # pinned above with the wrappers in place, the one share runs the checks
    # in report order, and the pins run once, after them
    report, timed = timed_12_30
    assert len(verify._CHECKS) == 21 and all(map(callable, verify._CHECKS))
    assert [key for key, _ in timed] == [f"{c['module']}/{c['name']}" for c in report["checks"]] + ["pins"]


# ---------------------------------------------------------------- failure branches
# One fault for each failure branch that no mutant above reaches, and one
# wrong only at its first call for each branch that reports what the failing
# condition computed, so a second call could not hide it. Its check runs
# alone at (12, 30) on Random(0), and the whole failing result is pinned.


def _plus(extra):
    # the original's value plus extra(*its arguments)
    return lambda original: lambda *args: original(*args) + extra(*args)


def _moved(at, **fields):
    # the original's result at the arguments `at`, each named field set to
    # fields[name](that result); every other call is left alone
    def make(original):
        def mutant(*args):
            result = original(*args)
            return replace(result, **{k: f(result) for k, f in fields.items()}) if args == at else result

        return mutant

    return make


def _plus_1_once(when):
    # the original's value plus 1 at the first call where when(*args) holds
    def make(original):
        done = []

        def mutant(*args):
            if done or not when(*args):
                return original(*args)
            done.append(args)
            return original(*args) + 1

        return mutant

    return make


def _empty_span(n, bounds):
    lo, hi = bounds.integer_span()
    return lo > hi


def _classified(change):
    # classify's record v replaced by change(v)
    return lambda original: lambda a, b, strict=False: change(original(a, b, strict))


def _plus_as_minus(v):
    # a tag that matches its value but not the predicates
    return core.CotSumValue(core.CotTag.MINUS_HALF_B, -v.exact) if v.tag is core.CotTag.PLUS_HALF_B else v


def _6_read_as_prime(arithmetic_profile):
    # a profile that validates itself, with one prime where the sieve finds two
    six = totient.ArithmeticProfile(6, ((6, 1),), 1, -1, 5, ((1, 1), (6, -1)))
    return lambda n: six if n == 6 else arithmetic_profile(n)


# id: (check name, [(module, attribute, mutant of the original)], detail,
# cases, counterexample)
FAILURE_BRANCHES = {
    "shift-rule-literal-sweep": (
        "shift-rule-vs-direct-reduction", [(exact, "shifted_frac_part", _plus(lambda n, a, b, k: n > 1))],
        "shift rule broke", 1406, {"b": 2, "n": 2, "a": 1, "k": 0, "got": "1", "want": "0"},
    ),
    "unit-shift-two-below-a-multiple": (
        "unit-shift-rules", [(exact, "frac_part", _plus(lambda n, a, b: 1))],
        "two-below-a-multiple rule broke", 2, {"b": 2, "a": 4},
    ),
    "trichotomy-two-predicates": (
        "trichotomy-and-predicates", [(core, "predicate_plus", lambda original: lambda a, b: True)],
        "predicates must pick exactly one class", 1, {"a": 1, "b": 2, "preds": [True, True, False]},
    ),
    "trichotomy-tag-against-predicates": (
        "trichotomy-and-predicates", [(core, "classify", _classified(_plus_as_minus))],
        "classification left the three-value set", 2, {"a": 1, "b": 4, "tag": "MinusHalfB", "value": "-2"},
    ),
    "trichotomy-value-off-the-three": (
        "trichotomy-and-predicates", [(core, "classify", _classified(lambda v: replace(v, exact=3 * v.exact)))],
        "classification left the three-value set", 2, {"a": 1, "b": 4, "tag": "PlusHalfB", "value": "6"},
    ),
    "even-integrality-not-an-integer": (
        "even-modulus-integrality", [(core, "eval_exact", _plus(lambda n, a, b: Fraction(1, 2)))],
        "even b must give an integer with 2S divisible by b", 1, {"a": 1, "b": 2, "value": "1/2"},
    ),
    "float-oracle-abs-bound": (
        "float-oracle-agreement", [(numeric, "eval_float", _moved((1, 1, 2), abs_bound=lambda r: 0.0))],
        "reported abs_bound below the value", 1,
        {"n": 1, "a": 1, "b": 2, "float_value": 1.1246397028449712e-64, "abs_bound": 0.0},
    ),
    "profile-mu-zero": (
        "profile-invariants",
        [(totient, "arithmetic_profile", _moved((6,), squarefree_divisors=lambda r: ((1, 1), (2, 0), (3, 0), (6, -1))))],
        "squarefree divisors must all carry mu = +-1", 6, {"n": 6},
    ),
    "profile-omega": (
        "profile-invariants", [(totient, "arithmetic_profile", _6_read_as_prime)],
        "profile disagrees with sieve", 6, {"n": 6, "omega": 1, "mobius": -1, "sieve_omega": 2, "sieve_mobius": 1},
    ),
    "prefix-count-compared-once": (
        "prefix-exhaustive-agreement", [(totient, "legendre_phi", _plus_1_once(lambda n, x: x > 0))],
        "prefix count diverged from the gcd scan", 1, {"n": 1, "x": 1, "got": 2, "want": 1},
    ),
    "prefix-two-sided": (
        "prefix-exhaustive-agreement", [(totient, "phi_range_mobius", _plus(lambda n, bounds: bounds.lo > 1))],
        "two-sided count must telescope from prefixes", 4, {"n": 1, "lo": 2, "hi": 3},
    ),
    "random-rational-direct-compared-once": (
        "random-rational-agreement", [(totient, "phi_range_direct", _plus_1_once(lambda n, bounds: True))],
        "gcd scan and inclusion-exclusion disagree", 1, {"n": 1, "lo": "2/7", "hi": "134/7", "direct": 20, "mobius": 19},
    ),
    "random-rational-mobius-compared-once": (
        "random-rational-agreement", [(totient, "phi_range_mobius", _plus_1_once(lambda n, bounds: True))],
        "gcd scan and inclusion-exclusion disagree", 1, {"n": 1, "lo": "2/7", "hi": "134/7", "direct": 19, "mobius": 20},
    ),
    "random-rational-empty-span": (
        "random-rational-agreement",
        [(totient, "phi_range_mobius", _plus(_empty_span)), (totient, "phi_range_direct", _plus(_empty_span))],
        "empty span must count 0", 406, {"n": 2, "lo": "7/3", "hi": "7/3"},
    ),
    "random-rational-wide-range": (
        "random-rational-agreement", [(totient, "legendre_phi", _plus(lambda n, x: x > 3 * n))],
        "wide range disagrees with prefix difference", 201, {"n": 1, "lo": "2", "hi": "25/6"},
    ),
    "decomposition-frozen-instance": (
        "prefix-decomposition", [(totient, "phi_decomposition", _moved((12, 5, 17), prefix_hi=lambda r: r.prefix_hi + 1))],
        "frozen worked instance moved", 1, {"got": [7, 2, 1, 6]},
    ),
    "partition-total": (
        "gcd-partition-telescopes", [(totient, "divisor_partition_identity", _plus(lambda n, lo, hi: 1))],
        "partition total moved", 1, {"n": 1, "lo": 2, "hi": 5, "got": 5},
    ),
    "symmetric-paired-sum": (
        "symmetric-coprime-sum", [(verify, "gcd", lambda original: lambda n, k: 1 if 2 * k < n else original(n, k))],
        "paired sum identity broke", 13, {"n": 6, "lo": 1, "hi": 5, "total": 8, "count": 3},
    ),
    "sweep-partition": (
        "sweep-closed-forms", [(totient, "euler_phi", _plus(lambda n: 1))],
        "counts must partition the coprime residues", 1, {"b": 2, "phi": 2},
    ),
    "sweep-sign-symmetry": (
        "sweep-closed-forms",
        [(distribution, "sweep", _moved(
            (5,),
            count_plus=lambda r: r.count_plus + 1, closed_plus=lambda r: r.closed_plus + 1,
            count_minus=lambda r: r.count_minus - 1, closed_minus=lambda r: r.closed_minus - 1,
        ))],
        "sign symmetry a <-> b-a broke", 3, {"b": 5},
    ),
}


@pytest.mark.parametrize("branch", list(FAILURE_BRANCHES))
def test_failure_branch_reports_its_detail_and_counterexample(branch, monkeypatch):
    name, faults, detail, cases, counterexample = FAILURE_BRANCHES[branch]
    for module, attr, make in faults:
        monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    check = {c.name: c for c in verify._CHECKS}[name]
    result = check(verify._Ctx(12, 30, random.Random(0)))
    assert result == verify.CheckResult(check.module, name, False, cases, detail, counterexample)


class _Draws(random.Random):
    """A stream whose getrandbits returns the given values in turn, over and over."""

    def __init__(self, *values):
        super().__init__()
        self.values = itertools.cycle(values)

    def getrandbits(self, k):
        return next(self.values)


def test_sine_sum_check_steps_a_off_a_multiple_of_b(monkeypatch):
    # at b = 2 every n draw reads 1 and every a draw 2, so b divides n*a and
    # the check must step a to 3 before it sums
    seen = []
    original = numeric.frac_part_via_sine_sum
    monkeypatch.setattr(numeric, "frac_part_via_sine_sum", lambda n, a, b: seen.append((n, a, b)) or original(n, a, b))
    check = {c.name: c for c in verify._CHECKS}["sine-sum-fractional-part"]
    result = check(verify._Ctx(2, 30, _Draws(0, 1)))
    assert (result.passed, result.cases) == (True, 5)
    assert seen == [(1, 3, 2)] * 5


def test_half_open_variant_wrong_above_n_1_breaks_its_pin(monkeypatch):
    half_open = totient.phi_range_mobius_half_open
    monkeypatch.setattr(totient, "phi_range_mobius_half_open", _plus(lambda n, bounds: n == 5)(half_open))
    rec = verify._expected_discrepancies()[0]
    assert rec["name"] == "mobius-half-open-undercount"
    assert rec["observed"] == {"variant": 4, "corrected": 5, "agrees_for_n_above_1": False}
    assert rec["matches_pin"] is False
