"""The exact evaluator, classification, congruence witness, and predicates."""

from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotsum import core
from cotsum.core import (
    CotTag,
    CotSumValue,
    MasterWitness,
    classify,
    eval_exact,
    master_witness,
    predicate_minus,
    predicate_plus,
    predicate_zero,
)
from cotsum.errors import InvariantError, PreconditionError
from cotsum.exact import boundary_count


SPOT_VALUES = {
    (1, 1, 3): Fraction(3, 4),
    (1, 1, 4): Fraction(2),
    (1, 3, 4): Fraction(-2),
    (1, 2, 5): Fraction(0),
    (1, 1, 2): Fraction(0),
    (1, 1, 5): Fraction(5, 2),
    (1, 4, 5): Fraction(-5, 2),
}


def oracle_eval(n, a, b):
    """The fractional-part case split in Fraction arithmetic, kept as an oracle."""
    na = n * a
    r = na % b
    if r == 0:
        return Fraction(0)
    if (3 * na) % b == 0:
        return Fraction(3 * b, 4) * (1 - 2 * Fraction(r, b))
    x1 = Fraction(r, b)
    x3 = Fraction(3 * na % b, b)
    return Fraction(b, 2) * (x3 - 3 * x1 + 1)


@pytest.mark.parametrize("args,want", sorted(SPOT_VALUES.items()))
def test_eval_exact_spot_values(args, want):
    assert eval_exact(*args) == want


def test_eval_exact_divisible_case_is_zero():
    # b | na kills every sine factor
    assert eval_exact(1, 6, 3) == 0
    assert eval_exact(2, 3, 6) == 0
    assert eval_exact(5, 4, 4) == 0


def test_eval_exact_triple_divisible_case():
    # b | 3na but b does not divide na: S = (3b/4)(1 - 2 x_n)
    for b in (3, 6, 9, 12):
        for a in range(1, 2 * b):
            if a % b != 0 and (3 * a) % b == 0:
                x = Fraction(a % b, b)
                assert eval_exact(1, a, b) == Fraction(3 * b, 4) * (1 - 2 * x)


def test_eval_exact_rejects_bad_inputs():
    with pytest.raises(ValueError):
        eval_exact(1, 1, 1)
    with pytest.raises(ValueError):
        eval_exact(0, 1, 4)
    with pytest.raises(ValueError):
        eval_exact(1, -2, 4)


@pytest.mark.parametrize("args", [(True, 1, 4), (1, True, 4), (1, 1, True)])
def test_eval_exact_rejects_bool(args):
    # bool is an int subclass, but True is not a positive integer argument
    with pytest.raises(ValueError):
        eval_exact(*args)


def test_periodicity_in_a():
    for b in range(2, 40):
        for a in range(b + 1, 3 * b):
            if a % b != 0:
                assert eval_exact(1, a, b) == eval_exact(1, a % b, b)
            for n in (2, 3):
                if (n * a) % b != 0:
                    assert eval_exact(n, a, b) == eval_exact(n, a % b, b)


def test_magnitude_bound():
    # |S(1,a,b)| < b whenever b does not divide 3a
    for b in range(2, 60):
        for a in range(1, 2 * b):
            if (3 * a) % b != 0:
                assert abs(eval_exact(1, a, b)) < b


def test_even_modulus_integrality():
    for b in range(2, 80, 2):
        for a in range(1, b):
            if gcd(a, b) == 1:
                s = eval_exact(1, a, b)
                assert s.denominator == 1
                assert (2 * s) % b == 0


@pytest.mark.parametrize(
    "a,b,tag",
    [
        (1, 4, CotTag.PLUS_HALF_B),
        (3, 4, CotTag.MINUS_HALF_B),
        (2, 5, CotTag.ZERO),
    ],
)
def test_classify_examples(a, b, tag):
    v = classify(a, b)
    assert v.tag is tag
    assert v.exact == {CotTag.ZERO: 0, CotTag.PLUS_HALF_B: Fraction(b, 2),
                       CotTag.MINUS_HALF_B: Fraction(-b, 2)}[tag]


def test_classify_permissive_returns_other_for_b3():
    v = classify(1, 3)
    assert v.tag is CotTag.OTHER
    assert v.exact == Fraction(3, 4)
    for a in range(1, 30):
        v = classify(a, 3)
        assert v.tag is (CotTag.ZERO if a % 3 == 0 else CotTag.OTHER)
        assert v.exact == oracle_eval(1, a, 3)


def test_classify_strict_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        classify(1, 3, strict=True)
    with pytest.raises(PreconditionError):
        classify(2, 4, strict=True)
    # permissive mode computes anyway
    assert classify(2, 4).exact == 0


def test_classify_reduces_a_mod_b():
    assert classify(5, 4).tag is classify(1, 4).tag
    assert classify(7, 5).tag is classify(2, 5).tag


def test_trichotomy_small_exhaustive():
    for b in range(2, 120):
        if b == 3:
            continue
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            v = classify(a, b)
            assert v.tag in (CotTag.ZERO, CotTag.PLUS_HALF_B, CotTag.MINUS_HALF_B)
            assert v.exact in (0, Fraction(b, 2), Fraction(-b, 2))


def test_cotsumvalue_tag_must_match_value():
    with pytest.raises(InvariantError, match=r"^tag Zero inconsistent with value 1$"):
        CotSumValue(tag=CotTag.ZERO, exact=Fraction(1))
    with pytest.raises(InvariantError, match=r"^tag PlusHalfB inconsistent with value -2$"):
        CotSumValue(tag=CotTag.PLUS_HALF_B, exact=Fraction(-2))
    for bad in (Fraction(0), Fraction(1, 2)):
        with pytest.raises(InvariantError, match=rf"^tag MinusHalfB inconsistent with value {bad}$"):
            CotSumValue(tag=CotTag.MINUS_HALF_B, exact=bad)
    # each sign passes under its own tag, and Other takes any value
    CotSumValue(tag=CotTag.ZERO, exact=Fraction(0))
    CotSumValue(tag=CotTag.PLUS_HALF_B, exact=Fraction(1, 4))
    CotSumValue(tag=CotTag.MINUS_HALF_B, exact=Fraction(-1, 4))
    for value in (Fraction(-3, 4), Fraction(0), Fraction(3, 4)):
        CotSumValue(tag=CotTag.OTHER, exact=value)


@pytest.mark.parametrize(
    "a,b,k,nu,e1k,s",
    [
        (5, 4, 0, 1, 0, Fraction(2)),
        (2, 5, 3, 1, 5, Fraction(0)),
        (1, 4, 0, 0, 0, Fraction(2)),
    ],
)
def test_master_witness_examples(a, b, k, nu, e1k, s):
    w = master_witness(a, b)
    assert (w.k, w.nu, w.e1k, w.s) == (k, nu, e1k, s)
    assert w.s == eval_exact(1, a, b)


def test_master_witness_equation_holds_small():
    for b in range(2, 80):
        for a in range(1, 3 * b):
            if (3 * a) % b == 0:
                continue
            w = master_witness(a, b)
            assert (3 * w.nu + 2) * b == (3 * a + w.k + 1) + 3 * w.e1k + 2 * w.s
            assert 0 <= w.k <= b - 2
            assert w.s == eval_exact(1, a, b)


def test_master_witness_boundary_count_matches_exact_layer():
    for b in range(2, 61):
        for a in range(1, 3 * b + 1):
            if (3 * a) % b == 0:
                continue
            w = master_witness(a, b)
            assert w.e1k == boundary_count(1, a, b, w.k).value, (a, b)


def test_master_witness_rejects_when_no_k_exists():
    # b | 3a leaves 3a + k + 1 = 0 mod b unsolvable inside [0, b-2]
    with pytest.raises(PreconditionError):
        master_witness(1, 3)
    with pytest.raises(PreconditionError):
        master_witness(2, 3)
    with pytest.raises(PreconditionError):
        master_witness(3, 9)


def test_master_witness_type_validates_equation():
    with pytest.raises(InvariantError):
        MasterWitness(a=1, b=4, k=0, nu=0, e1k=0, s=Fraction(3))
    with pytest.raises(InvariantError):
        MasterWitness(a=1, b=4, k=5, nu=0, e1k=0, s=Fraction(2))
    # a value off by 1/2 no longer balances, whatever the witness
    for a, b in [(1, 4), (2, 5), (5, 4), (7, 11)]:
        w = master_witness(a, b)
        with pytest.raises(InvariantError):
            replace(w, s=w.s + Fraction(1, 2))


@pytest.mark.parametrize(
    "pred,a,b,want",
    [
        (predicate_zero, 2, 5, True),
        (predicate_zero, 1, 4, False),
        (predicate_zero, 1, 2, True),
        (predicate_plus, 1, 4, True),
        (predicate_plus, 2, 5, False),
        (predicate_plus, 1, 5, True),
        (predicate_minus, 3, 4, True),
        (predicate_minus, 4, 5, True),
        (predicate_minus, 1, 4, False),
    ],
)
def test_predicate_examples(pred, a, b, want):
    assert pred(a, b) is want


def test_predicates_reject_out_of_domain():
    for pred in (predicate_zero, predicate_plus, predicate_minus):
        with pytest.raises(PreconditionError):
            pred(1, 3)
        with pytest.raises(PreconditionError):
            pred(2, 4)
        with pytest.raises(PreconditionError):
            pred(4, 4)
        with pytest.raises(PreconditionError):
            pred(5, 4)  # a must already be reduced here


def test_predicates_partition_and_match_tags():
    for b in range(2, 150):
        if b == 3:
            continue
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            z, p, m = predicate_zero(a, b), predicate_plus(a, b), predicate_minus(a, b)
            assert [z, p, m].count(True) == 1
            tag = classify(a, b).tag
            assert z == (tag is CotTag.ZERO)
            assert p == (tag is CotTag.PLUS_HALF_B)
            assert m == (tag is CotTag.MINUS_HALF_B)


def test_predicate_interval_characterization():
    # the three congruence windows are the three a-intervals
    for b in range(4, 100):
        if b == 3:
            continue
        lo_z, hi_z = (b + 3) // 3, (2 * b - 1) // 3
        hi_p = (b - 1) // 3
        lo_m = (2 * b + 3) // 3
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            assert predicate_zero(a, b) == (lo_z <= a <= hi_z)
            assert predicate_plus(a, b) == (1 <= a <= hi_p)
            assert predicate_minus(a, b) == (lo_m <= a <= b - 1)


@settings(max_examples=200)
@given(n=st.integers(1, 50), a=st.integers(1, 400), b=st.integers(2, 130))
def test_eval_exact_depends_only_on_na_mod_b(n, a, b):
    r = (n * a) % b
    if r == 0:
        assert eval_exact(n, a, b) == 0
    else:
        assert eval_exact(n, a, b) == eval_exact(1, r, b)


def test_eval_exact_matches_fraction_oracle_exhaustive():
    for b in range(2, 61):
        for a in range(1, 3 * b + 1):
            for n in (1, 2, 3):
                assert eval_exact(n, a, b) == oracle_eval(n, a, b), (n, a, b)


@settings(max_examples=300)
@given(n=st.integers(1, 10**12), a=st.integers(1, 10**12), b=st.integers(2, 10**5))
def test_eval_exact_matches_fraction_oracle_large(n, a, b):
    assert eval_exact(n, a, b) == oracle_eval(n, a, b)


def test_exact_values_are_fractions():
    for args in [(1, 1, 2), (1, 1, 3), (1, 1, 4), (2, 3, 7), (1, 2, 6)]:
        assert type(eval_exact(*args)) is Fraction
        assert type(classify(*args[1:]).exact) is Fraction
    assert type(master_witness(1, 4).s) is Fraction


def test_classify_non_coprime():
    # S(1, g*a', g*b') = g * S(1, a', b'), so a non-coprime a is tagged Other
    # exactly when the reduced modulus b' = b/gcd(a, b) is 3
    assert classify(2, 6).tag is CotTag.OTHER
    assert classify(4, 6).tag is CotTag.OTHER
    assert classify(10, 15).tag is CotTag.OTHER
    for b in range(2, 80):
        for a in range(1, b):
            g = gcd(a, b)
            if g == 1:
                continue
            v = classify(a, b)
            assert (v.tag is CotTag.OTHER) == (b // g == 3), (a, b)
            assert v.exact == oracle_eval(1, a, b)
