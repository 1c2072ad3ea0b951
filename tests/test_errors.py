"""The one integer-argument rule, and every public entry that applies it."""

from enum import IntEnum
from fractions import Fraction

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
