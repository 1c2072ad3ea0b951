"""Fractional parts, the boundary count, and the shift rule."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotsum.errors import InvariantError
from cotsum.exact import BoundaryCount, boundary_count, frac_part, shifted_frac_part


@pytest.mark.parametrize(
    "n,a,b,want",
    [
        (1, 7, 3, Fraction(1, 3)),
        (1, 3, 3, Fraction(0)),
        (3, 5, 4, Fraction(3, 4)),
        (2, 1, 4, Fraction(1, 2)),
        (1, 1, 2, Fraction(1, 2)),
    ],
)
def test_frac_part_values(n, a, b, want):
    assert frac_part(n, a, b) == want


def test_frac_part_rejects_bad_modulus():
    with pytest.raises(ValueError):
        frac_part(1, 1, 1)
    with pytest.raises(ValueError):
        frac_part(1, 1, 0)
    with pytest.raises(ValueError):
        frac_part(0, 1, 5)


@pytest.mark.parametrize("args", [(True, 3, 4), (1, True, 4), (1, 3, True)])
def test_frac_part_rejects_bool(args):
    with pytest.raises(ValueError):
        frac_part(*args)


@given(n=st.integers(1, 10**6), a=st.integers(1, 10**6), b=st.integers(2, 10**4))
def test_frac_part_in_unit_interval_and_canonical(n, a, b):
    x = frac_part(n, a, b)
    assert 0 <= x < 1
    # Fraction keeps lowest terms by construction; make that explicit here
    assert gcd(x.numerator, x.denominator) == 1
    assert x.denominator >= 1


@pytest.mark.parametrize(
    "n,a,b,k,want",
    [
        (1, 3, 5, 2, 5),  # window (3,5]: one multiple of 5
        (1, 3, 5, 0, 0),  # empty window by convention
        (1, 2, 7, 3, 0),  # window (2,5]: no multiple of 7
    ],
)
def test_boundary_count_values(n, a, b, k, want):
    e = boundary_count(n, a, b, k)
    assert e.value == want
    assert e.multiples == want // b


def test_boundary_count_matches_window_scan():
    # closed form vs literal scan over the window
    for b in range(2, 12):
        for a in range(1, 3 * b):
            for k in range(0, 2 * b + 1):
                na = a
                scan = b * sum(1 for lam in range(na + 1, na + k + 1) if lam % b == 0)
                assert boundary_count(1, a, b, k).value == scan


@st.composite
def windows(draw):
    """(n, a, b, k) with b up to 10^4; about half the draws have b | n*a."""
    b = draw(st.integers(2, 10**4))
    n = draw(st.integers(1, 10**3))
    a = draw(st.integers(1, 10**6))
    if draw(st.booleans()):
        a *= b // gcd(n, b)
    k = draw(st.integers(0, 3 * b))
    return n, a, b, k


@settings(max_examples=300, deadline=None)
@given(windows())
def test_window_helpers_match_literal_scan(window):
    n, a, b, k = window
    na = n * a
    hits = sum(1 for lam in range(na + 1, na + k + 1) if lam % b == 0)
    assert boundary_count(n, a, b, k).value == b * hits
    got = shifted_frac_part(n, a, b, k)
    assert got == Fraction((na + k) % b, b)
    assert got == frac_part(n, a, b) + Fraction(k - b * hits, b)


@pytest.mark.parametrize("k", [True, False, -1, 1.0, "1"])
def test_boundary_count_rejects_bad_window(k):
    with pytest.raises(ValueError, match="window length k"):
        boundary_count(1, 1, 4, k)


def test_boundary_count_monotone_in_steps_of_b():
    for b in (2, 5, 12):
        for a in (1, b - 1, b + 3):
            prev = 0
            for k in range(0, 3 * b):
                v = boundary_count(1, a, b, k).value
                assert v in (prev, prev + b)
                prev = v


def test_boundary_count_type_rejects_inconsistent_fields():
    with pytest.raises(InvariantError):
        BoundaryCount(n=1, a=1, b=5, k=2, value=3)  # not a multiple of b
    with pytest.raises(InvariantError):
        BoundaryCount(n=1, a=1, b=5, k=2, value=-5)  # a negative count
    with pytest.raises(InvariantError):
        BoundaryCount(n=1, a=1, b=5, k=0, value=5)  # empty window, nonzero count
    with pytest.raises(InvariantError):
        BoundaryCount(n=1, a=1, b=5, k=3, value=10)  # short window, two multiples
    with pytest.raises(InvariantError):
        BoundaryCount(n=1, a=1, b=0, k=0, value=0)  # no modulus below 2, so no division by 0


@pytest.mark.parametrize(
    "n,a,b,k,want",
    [
        (1, 3, 5, 2, Fraction(0)),
        (1, 2, 7, 3, Fraction(5, 7)),
        (2, 1, 4, 0, Fraction(1, 2)),
    ],
)
def test_shifted_frac_part_values(n, a, b, k, want):
    assert shifted_frac_part(n, a, b, k) == want


def test_shifted_frac_part_exhaustive_to_b30():
    # every residue of n*a, reached both below and above b, for every k <= 2b
    for b in range(2, 31):
        for n in (1, 2, b + 1):
            for a in range(1, 2 * b + 1):
                for k in range(2 * b + 1):
                    got = shifted_frac_part(n, a, b, k)
                    assert type(got) is Fraction
                    assert got == frac_part(1, n * a + k, b)


@pytest.mark.parametrize(
    "args",
    [(1, 1, 4, True), (1, 1, 4, False), (1, 1, 4, -1), (1, 1, 4, 2.0),
     (0, 1, 4, 1), (True, 1, 4, 1), (1, True, 4, 1), (1, 1, 1, 1), (1, 1, True, 1)],
)
def test_shifted_frac_part_keeps_every_argument_check(args):
    with pytest.raises(ValueError):
        shifted_frac_part(*args)


def test_shift_rule_equals_direct_reduction_small():
    # the rule {na+k / b} = x_n + k/b - E/b, against independent reduction
    for b in range(2, 14):
        for n in range(1, b + 2):
            for a in range(1, 2 * b):
                for k in range(0, 2 * b + 1):
                    assert shifted_frac_part(n, a, b, k) == frac_part(1, n * a + k, b)


@settings(max_examples=300)
@given(
    n=st.integers(1, 200),
    a=st.integers(1, 200),
    b=st.integers(2, 50),
    k=st.integers(0, 100),
)
def test_shift_rule_property(n, a, b, k):
    assert shifted_frac_part(n, a, b, k) == frac_part(1, n * a + k, b)


def test_unit_shift_rules():
    # {a/b} = {(a-1)/b} + 1/b off multiples of b; at multiples,
    # {(a-2)/b} = 1 - 2/b (degenerate equality 0 = 0 at b = 2)
    for b in range(2, 51):
        for a in range(2, 3 * b):
            if a % b != 0:
                assert frac_part(1, a, b) == frac_part(1, a - 1, b) + Fraction(1, b)
            elif a >= 3:
                assert frac_part(1, a - 2, b) == 1 - Fraction(2, b)


@given(
    p=st.fractions(max_denominator=100),
    q=st.fractions(max_denominator=100),
)
def test_fraction_arithmetic_stays_canonical(p, q):
    for r in (p + q, p - q, p * q):
        assert r.denominator >= 1
        assert gcd(abs(r.numerator), r.denominator) == 1
