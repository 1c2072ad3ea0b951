"""The one integer-argument rule, and every public entry that applies it."""

from enum import IntEnum
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from cotsum import core, distribution, exact, numeric, totient, verify
from cotsum.errors import InvariantError, PreconditionError, check_int


class _Level(IntEnum):
    ZERO = 0
    TWO = 2


def test_the_three_failure_kinds_are_unrelated_types():
    # no handler of malformed input (ValueError) or of a violated hypothesis
    # can swallow a broken identity, nor the other way round
    kinds = (ValueError, PreconditionError, InvariantError)
    for kind in kinds:
        assert [issubclass(kind, other) for other in kinds].count(True) == 1
    assert not issubclass(InvariantError, ArithmeticError)


def test_check_int_accepts_plain_ints_at_or_above_the_bound():
    check_int("n", 1, 1)
    check_int("k", 0, 0)
    check_int("seed", -5)
    check_int("n", 10**30, 1)
    # an int subclass other than bool passes the general rule, not the
    # exact-int shortcut, and is accepted as it always was
    check_int("n", _Level.TWO, 2)
    check_int("seed", _Level.ZERO)


@pytest.mark.parametrize(
    "value,least,message",
    [
        (True, 1, "n must be an integer >= 1, got True"),
        (False, 0, "n must be an integer >= 0, got False"),
        (2.0, 1, "n must be an integer >= 1, got 2.0"),
        ("3", 1, "n must be an integer >= 1, got '3'"),
        (Fraction(3), 1, "n must be an integer >= 1, got Fraction(3, 1)"),
        (None, 1, "n must be an integer >= 1, got None"),
        (0, 1, "n must be an integer >= 1, got 0"),
        (1, 2, "n must be an integer >= 2, got 1"),
        (True, None, "n must be an integer, got True"),
        (1.5, None, "n must be an integer, got 1.5"),
        (_Level.ZERO, 1, "n must be an integer >= 1, got <_Level.ZERO: 0>"),
        (-(10**30), 0, f"n must be an integer >= 0, got {-(10**30)}"),
    ],
)
def test_check_int_message(value, least, message):
    with pytest.raises(ValueError) as info:
        check_int("n", value, least)
    assert str(info.value) == message


_RESULT = numeric.eval_float(1, 2, 5)
_BOUNDS = totient.RangeBound(1, 5)

# (entry, valid arguments, {position: (name in the message, least)}); every
# call is valid as given and meets each entry's preconditions
N_A_B = {0: ("n", 1), 1: ("a", 1), 2: ("modulus b", 2)}
N_A_B_K = {**N_A_B, 3: ("window length k", 0)}
A_B = {0: ("a", 1), 1: ("modulus b", 2)}
B = {0: ("modulus b", 2)}
N = {0: ("n", 1)}
N_LO_HI = {0: ("n", 1), 1: ("lo", 1), 2: ("hi", 2)}  # hi's bound is lo = 2
ENTRIES = [
    (exact.frac_part, (1, 2, 5), N_A_B),
    (exact.boundary_count, (1, 2, 5, 3), N_A_B_K),
    (exact.shifted_frac_part, (1, 2, 5, 3), N_A_B_K),
    (core.eval_exact, (1, 2, 5), N_A_B),
    (core.classify, (2, 5), A_B),
    (core.master_witness, (2, 5), A_B),
    (core.predicate_zero, (2, 5), A_B),
    (core.predicate_plus, (2, 5), A_B),
    (core.predicate_minus, (2, 5), A_B),
    (numeric.tol, (5,), B),
    (numeric.agrees, (Fraction(0), _RESULT, 5), {2: ("modulus b", 2)}),
    (numeric.eval_float, (1, 2, 5), N_A_B),
    (numeric.cot_sin2_sum, (1, 2, 5), N_A_B),
    (numeric.cot_cos_power_sum, (2, 1, 2, 5), {0: ("q", 1), 1: ("n", 1), 2: ("a", 1), 3: ("modulus b", 2)}),
    (numeric.frac_part_via_sine_sum, (1, 2, 5), N_A_B),
    (totient.arithmetic_profile, (6,), N),
    (totient.euler_phi, (6,), N),
    (totient.spf_sieve, (6,), {0: ("limit", 1)}),
    (totient.phi_range_direct, (6, _BOUNDS), N),
    (totient.phi_range_mobius, (6, _BOUNDS), N),
    (totient.phi_range_mobius_half_open, (6, _BOUNDS), N),
    (totient.legendre_phi, (6, 5), N),
    (totient.phi_decomposition, (6, 2, 9), N_LO_HI),
    (totient.phi_approx, (6, 2, 9), N_LO_HI),
    (totient.divisor_partition_identity, (6, 2, 9), N_LO_HI),
    (totient.divisor_partition_by_divisor, (6, 2, 9), N_LO_HI),
    (totient.coprime_sum, (7, 2, 5), N_LO_HI),
    (distribution.closed_form_counts, (5,), B),
    (distribution.sweep, (5,), B),
    (distribution.sweep_range, (4, 6, 1), {0: ("modulus b_lo", 2), 1: ("modulus b_hi", 4), 2: ("workers", 1)}),
    (verify.run_checks, (2, 1, 0, 1), {0: ("max_b", 2), 1: ("max_n", 1), 2: ("seed", None), 3: ("workers", 1)}),
]


def _cases():
    for entry, args, checked in ENTRIES:
        for pos, (name, least) in checked.items():
            bad_values = [True, 2.0, "3"] + ([] if least is None else [least - 1])
            bound = "" if least is None else f" >= {least}"
            for bad in bad_values:
                call_args = args[:pos] + (bad,) + args[pos + 1 :]
                message = f"{name} must be an integer{bound}, got {bad!r}"
                yield pytest.param(entry, call_args, message, id=f"{entry.__name__}-{name}-{bad!r}")


def test_every_entry_runs_on_its_valid_arguments():
    for entry, args, _ in ENTRIES:
        if entry is not verify.run_checks:  # the battery's own tests run it
            entry(*args)


@pytest.mark.parametrize("entry,args,message", _cases())
def test_every_int_argument_is_refused_by_the_one_rule(entry, args, message):
    with pytest.raises(ValueError) as info:
        entry(*args)
    assert str(info.value) == message


S_OPERANDS = ("n", "a", "modulus b")


def _two_bad_operands():
    # every pair of S's operands an entry takes, both made bad: the first in
    # the order n, a, b is the one named
    for entry, args, checked in ENTRIES:
        operands = [(pos, name, least) for pos, (name, least) in checked.items() if name in S_OPERANDS]
        for (i, name, least), (j, _, later_least) in combinations(operands, 2):
            for bad, later_bad in ((least - 1, True), (2.0, later_least - 1)):
                call_args = list(args)
                call_args[i], call_args[j] = bad, later_bad
                message = f"{name} must be an integer >= {least}, got {bad!r}"
                yield pytest.param(entry, tuple(call_args), message, id=f"{entry.__name__}-{name}-{bad!r}-{later_bad!r}")


@pytest.mark.parametrize("entry,args,message", _two_bad_operands())
def test_the_first_bad_operand_in_the_order_n_a_b_is_named(entry, args, message):
    with pytest.raises(ValueError) as info:
        entry(*args)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call",
    [
        lambda b: numeric.eval_float(0, 1, b),
        lambda b: numeric.cot_sin2_sum(0, 1, b),
        lambda b: numeric.cot_cos_power_sum(2, 0, 1, b),
        lambda b: numeric.frac_part_via_sine_sum(0, 1, b),
    ],
    ids=["eval_float", "cot_sin2_sum", "cot_cos_power_sum", "frac_part_via_sine_sum"],
)
def test_a_float_sum_checks_its_operands_before_the_modulus_ceiling(call):
    with pytest.raises(ValueError) as info:
        call(10**8)
    assert str(info.value) == "n must be an integer >= 1, got 0"


def test_phi_approx_checks_its_precondition_before_lo():
    # n = 1 is a valid int that breaks the error analysis's hypothesis, so
    # it is refused before the bad lo
    with pytest.raises(PreconditionError, match="at least one prime factor"):
        totient.phi_approx(1, 0, 5)


# ---------------------------------------------------------------- arguments past the int rule


@pytest.mark.parametrize("entry", [totient.phi_range_direct, totient.phi_range_mobius, totient.phi_range_mobius_half_open])
@pytest.mark.parametrize("bounds", [1, (1, 5), "1", None], ids=repr)
def test_a_range_count_refuses_bounds_that_are_not_a_range_bound(entry, bounds):
    with pytest.raises(ValueError) as info:
        entry(6, bounds)
    assert str(info.value) == f"bounds must be a RangeBound, got {type(bounds).__name__}"
    with pytest.raises(ValueError) as info:  # n is checked first
        entry(0, bounds)
    assert str(info.value) == "n must be an integer >= 1, got 0"


@pytest.mark.parametrize("b", [10**7 + 1, 10**400], ids=["ceiling-plus-1", "10**400"])
def test_tol_and_agrees_refuse_a_modulus_with_no_float_sum(b):
    for call in (lambda: numeric.tol(b), lambda: numeric.agrees(Fraction(0), _RESULT, b)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"modulus b must be at most 10000000, got {b}"
    assert numeric.tol(10**7) == 1e-9 * 10**7 * 10**7


def test_agrees_checks_b_then_refuses_an_exact_value_no_float_holds():
    huge = Fraction(10**400)
    with pytest.raises(ValueError) as info:
        numeric.agrees(huge, _RESULT, 1)
    assert str(info.value) == "modulus b must be an integer >= 2, got 1"
    for exact in (huge, -huge, Fraction(10**400 + 1, 3)):
        with pytest.raises(ValueError) as info:
            numeric.agrees(exact, _RESULT, 5)
        assert str(info.value) == "exact must be at most 1.7976931348623157e+308 in magnitude, the largest float"
    # a value that rounds to a float, however small, is compared
    assert numeric.agrees(Fraction(1, 10**400), numeric.cot_sin2_sum(1, 2, 5), 5)


@pytest.mark.parametrize(
    "q,shown",
    [(2**53 + 1, "9007199254740993"), (10**400, str(10**400)), (10**5000, "a 16610-bit int")],
    ids=["2**53+1", "10**400", "10**5000"],
)
def test_cot_cos_power_sum_refuses_q_past_exact_float_powers(q, shown):
    # past 2**53, float(q) rounds to an even number and an odd power would
    # come out even; 10**5000's digits pass CPython's int-to-str limit
    for n in (1, 0):  # q is checked before n
        with pytest.raises(ValueError) as info:
            numeric.cot_cos_power_sum(q, n, 1, 4)
        assert str(info.value) == f"q must be at most 9007199254740992, got {shown}"


def test_agrees_refuses_an_exact_value_or_a_result_of_the_wrong_type():
    for bad in (None, "1", 0.5, [1]):
        with pytest.raises(ValueError) as info:
            numeric.agrees(bad, _RESULT, 5)
        assert str(info.value) == f"exact must be a Fraction or an int, got {type(bad).__name__}"
        with pytest.raises(ValueError) as info:
            numeric.agrees(Fraction(0), bad, 5)
        assert str(info.value) == f"result must be a NumericResult, got {type(bad).__name__}"
    with pytest.raises(ValueError, match="modulus b"):  # b is checked first
        numeric.agrees(None, None, 1)
    assert numeric.agrees(0, numeric.cot_sin2_sum(1, 2, 5), 5)  # an int is an exact value too


def test_cot_cos_power_sum_takes_q_up_to_2_to_the_53():
    odd, even = numeric.cot_cos_power_sum(3, 1, 1, 4), numeric.cot_cos_power_sum(2**53, 1, 1, 4)
    assert odd.value == -even.value != 0.0


# ---------------------------------------------------------------- numbers too long to print

# CPython will not turn an int of more than 4,300 digits into text: str and
# repr raise a ValueError naming no argument ("Exceeds the limit ..."), so a
# message that printed the caller's number that way changed kind and lost
# its argument. Every message prints it through errors.shown, which names
# such a number by its size in bits.
_HUGE = 10**5000
_BITS = "16610-bit"


def test_check_int_takes_both_bounds_and_names_a_huge_int_by_its_bits():
    check_int("n", 7, 1, 7)
    check_int("n", -(10**30), None, 0)
    check_int("n", _Level.TWO, 1, 2)
    for value, least, most, message in [
        (8, 1, 7, "n must be at most 7, got 8"),
        (_Level.TWO, 0, 1, "n must be at most 1, got 2"),
        (_HUGE, None, 7, f"n must be at most 7, got a {_BITS} int"),
        (-_HUGE, 1, 7, f"n must be an integer >= 1, got a negative {_BITS} int"),
        (1, _HUGE, None, f"n must be an integer >= a {_BITS} int, got 1"),
        (Fraction(_HUGE, 3), 1, 7, "n must be an integer >= 1, got a Fraction too long to print"),
        ([_HUGE], 1, 7, "n must be an integer >= 1, got a list too long to print"),
        (0, 1, 7, "n must be an integer >= 1, got 0"),  # below least: the floor message, whatever most is
        (2.0, 1, 7, "n must be an integer >= 1, got 2.0"),
    ]:
        with pytest.raises(ValueError) as info:
            check_int("n", value, least, most)
        assert str(info.value) == message


def _break_partition(monkeypatch):
    monkeypatch.setattr(totient, "_mobius_count", lambda *args: 0)


def _break_paired_sum(monkeypatch):
    # only lo reads as coprime, so 2*lo != n*1 although lo + hi = n
    lo = _HUGE - 1
    monkeypatch.setattr(totient, "math", SimpleNamespace(gcd=lambda n, k: 1 if k == lo else 2))


# (id, call, the kind it raises, a fragment naming the argument and its
# size, a fault to patch in first or None); each is a site that printed the
# caller's number with str or repr
HUGE_CASES = [
    ("check_int-floor", lambda: core.eval_exact(-_HUGE, 1, 2), ValueError, f"n must be an integer >= 1, got a negative {_BITS}", None),
    ("check_int-least", lambda: totient.phi_decomposition(1, _HUGE, 1), ValueError, f"hi must be an integer >= a {_BITS} int", None),
    ("check_int-fraction", lambda: exact.frac_part(1, Fraction(_HUGE, 3), 2), ValueError, "a must be an integer >= 1, got a Fraction too long to print", None),
    ("tol", lambda: numeric.tol(_HUGE), ValueError, f"modulus b must be at most 10000000, got a {_BITS} int", None),
    ("agrees", lambda: numeric.agrees(Fraction(0), _RESULT, _HUGE), ValueError, f"modulus b must be at most 10000000, got a {_BITS}", None),
    ("eval_float", lambda: numeric.eval_float(1, 1, _HUGE), ValueError, f"modulus b must be at most 10000000, got a {_BITS}", None),
    ("cot_sin2_sum", lambda: numeric.cot_sin2_sum(1, 1, _HUGE), ValueError, f"modulus b must be at most 10000000, got a {_BITS}", None),
    ("arithmetic_profile", lambda: totient.arithmetic_profile(_HUGE), ValueError, f"n must be at most 100000000000000, got a {_BITS}", None),
    ("euler_phi", lambda: totient.euler_phi(_HUGE), ValueError, f"n must be at most 100000000000000, got a {_BITS}", None),
    ("spf_sieve", lambda: totient.spf_sieve(_HUGE), ValueError, f"limit must be at most 1000000, got a {_BITS}", None),
    ("run_checks", lambda: verify.run_checks(_HUGE, 1), ValueError, f"max_b must be at most 2500, got a {_BITS}", None),
    ("CotSumValue", lambda: core.CotSumValue(core.CotTag.ZERO, Fraction(_HUGE)), InvariantError, "inconsistent with value a Fraction too long to print", None),
    ("MasterWitness-k", lambda: core.MasterWitness(1, 5, _HUGE, 0, 0, Fraction(0)), InvariantError, f"witness k=a {_BITS} int", None),
    ("MasterWitness-s", lambda: core.MasterWitness(1, 5, 0, 0, 0, Fraction(_HUGE)), InvariantError, "2*s = a Fraction too long to print", None),
    ("classify", lambda: core.classify(_HUGE, 2 * _HUGE, strict=True), PreconditionError, f"gcd(a, b) = a {_BITS} int", None),
    ("master_witness", lambda: core.master_witness(_HUGE, _HUGE), PreconditionError, f"no witness k: a {_BITS} int divides 3*a {_BITS} int", None),
    ("predicate_zero", lambda: core.predicate_zero(_HUGE + 1, _HUGE), PreconditionError, f"need 1 <= a <= a {_BITS} int", None),
    ("predicate_plus", lambda: core.predicate_plus(_HUGE, 2 * _HUGE), PreconditionError, f"gcd(a, b) = a {_BITS} int", None),
    ("predicate_minus", lambda: core.predicate_minus(_HUGE, 2 * _HUGE), PreconditionError, f"gcd(a, b) = a {_BITS} int", None),
    ("SweepReport", lambda: distribution.SweepReport(_HUGE, 0, 0, 0, 0, 0, 0, 0, False), InvariantError, f"for b=a {_BITS} int", None),
    ("sweep", lambda: distribution.sweep(_HUGE), ValueError, f"for b in [a {_BITS} int, a {_BITS} int]", None),
    ("sweep_range", lambda: distribution.sweep_range(2, _HUGE, 1), ValueError, f"for b in [2, a {_BITS} int]", None),
    ("BoundaryCount-value", lambda: exact.BoundaryCount(1, 1, 5, 0, _HUGE + 1), InvariantError, f"boundary count a {_BITS} int", None),
    ("BoundaryCount-k", lambda: exact.BoundaryCount(1, 1, _HUGE, _HUGE - 1, 2 * _HUGE), InvariantError, f"window of length a {_BITS} int", None),
    ("NumericResult-term_count", lambda: numeric.NumericResult(0.0, -_HUGE, 0.0), InvariantError, f"term_count must be >= 1, got a negative {_BITS}", None),
    ("NumericResult-abs_bound", lambda: numeric.NumericResult(0.0, 1, -_HUGE), InvariantError, f"abs_bound must be >= 0, got a negative {_BITS}", None),
    ("frac_part_via_sine_sum", lambda: numeric.frac_part_via_sine_sum(_HUGE, 1, 5), PreconditionError, f"5 divides a {_BITS} int*1", None),
    ("phi_range_direct", lambda: totient.phi_range_direct(1, totient.RangeBound(1, _HUGE)), ValueError, f"got a {_BITS} int in [1, a {_BITS} int]", None),
    ("ArithmeticProfile-n", lambda: totient.ArithmeticProfile(_HUGE, (), 0, 1, _HUGE, ((1, 1),)), InvariantError, f"reconstruct 1, not a {_BITS} int", None),
    ("ArithmeticProfile-euler_phi", lambda: totient.ArithmeticProfile(1, (), 0, 1, _HUGE, ((1, 1),)), InvariantError, f"euler_phi a {_BITS} int", None),
    ("RangeBound", lambda: totient.RangeBound(_HUGE, 1), ValueError, "bounds out of order: a Fraction too long to print > 1", None),
    ("RangeBound-container", lambda: totient.RangeBound(1, [_HUGE]), ValueError, "range endpoint must be an int, str or Fraction, got list a list too long to print", None),
    ("phi_range_mobius", lambda: totient.phi_range_mobius(6, totient.RangeBound(-_HUGE, 1)), ValueError, "got lo = a Fraction too long to print", None),
    ("legendre_phi", lambda: totient.legendre_phi(6, -_HUGE), ValueError, f"prefix bound must be >= 0, got a negative {_BITS} int", None),
    ("PhiDecomposition", lambda: totient.PhiDecomposition(1, 1, 1, 0, 0, _HUGE), InvariantError, f"endpoint indicator must be 0 or 1, got a {_BITS} int", None),
    ("PhiApproximation", lambda: totient.PhiApproximation(2, 1, 2, Fraction(0), _HUGE, Fraction(_HUGE), 4), InvariantError, "error a Fraction too long to print exceeds bound 4", None),
    ("divisor_partition_identity", lambda: totient.divisor_partition_identity(1, 1, _HUGE), InvariantError, f"partition of [1, a {_BITS} int]", _break_partition),
    ("coprime_sum-precondition", lambda: totient.coprime_sum(5, _HUGE, _HUGE + 1), PreconditionError, f"got a {_BITS} int + a {_BITS} int != 5", None),
    ("coprime_sum-invariant", lambda: totient.coprime_sum(2 * _HUGE, _HUGE - 1, _HUGE + 1), InvariantError, f"on [a {_BITS} int, a {_BITS} int]", _break_paired_sum),
]


@pytest.mark.parametrize("call,kind,fragment,fault", [case[1:] for case in HUGE_CASES], ids=[case[0] for case in HUGE_CASES])
def test_a_refusal_names_a_number_too_long_to_print_and_keeps_its_kind(monkeypatch, call, kind, fragment, fault):
    if fault is not None:
        fault(monkeypatch)
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is kind, repr(info.value)[:200]
    assert fragment in str(info.value)
    assert "Exceeds the limit" not in str(info.value)
