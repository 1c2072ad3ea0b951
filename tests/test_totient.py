"""Coprime counting in ranges: three methods, identities, and the estimate."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotsum import totient
from cotsum.errors import InvariantError, PreconditionError
from cotsum.totient import (
    _ENDPOINT_DIGITS_MAX,
    _FACTOR_MAX,
    _SCAN_MAX,
    _SIEVE_MAX,
    ArithmeticProfile,
    PhiApproximation,
    RangeBound,
    arithmetic_profile,
    coprime_sum,
    divisor_partition_by_divisor,
    divisor_partition_identity,
    euler_phi,
    legendre_phi,
    phi_approx,
    phi_decomposition,
    phi_range_direct,
    phi_range_mobius,
    phi_range_mobius_half_open,
    spf_sieve,
)


# --- profiles ---------------------------------------------------------------


def test_euler_phi_values():
    known = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4, 30: 8, 50: 20, 97: 96, 360: 96}
    for n, want in known.items():
        assert euler_phi(n) == want


def test_profile_fields():
    p = arithmetic_profile(30)
    assert p.prime_powers == ((2, 1), (3, 1), (5, 1))
    assert p.omega == 3
    assert p.mobius == -1
    assert p.euler_phi == 8
    assert len(p.squarefree_divisors) == 8
    assert arithmetic_profile(12).mobius == 0
    assert arithmetic_profile(1).omega == 0
    assert arithmetic_profile(1).euler_phi == 1


def test_profile_cache_is_bounded():
    assert arithmetic_profile.cache_info().maxsize == 256
    arithmetic_profile.cache_clear()
    for n in range(1, 5001):
        arithmetic_profile(n)
    info = arithmetic_profile.cache_info()
    assert info.currsize <= 256
    assert info.misses == 5000
    # n = 1..4744 were evicted; a re-read is a miss that refactors n afresh
    for n in (1, 12, 30, 97, 360, 2310):
        misses = arithmetic_profile.cache_info().misses
        assert arithmetic_profile(n) == arithmetic_profile.__wrapped__(n)
        assert arithmetic_profile.cache_info().misses == misses + 1


def test_profile_cache_keeps_its_callers_repeats():
    # the battery's two access patterns, from a cleared cache. phi_approx
    # reads one n many times in a row: each profile is built once.
    arithmetic_profile.cache_clear()
    for n in range(2, 202):
        for lo in range(1, 101):
            phi_approx(n, lo, 2 * lo + n)
    assert arithmetic_profile.cache_info().misses == 200
    # the gcd partition reads every n/d for d | n on each call, so its
    # working set is d(n) profiles, 24 at most for n <= 500 (n = 360); once
    # they fit, only a first call per n misses, and at most once per (n, d),
    # sum_{n <= 500} d(n) = sum_{d <= 500} 500 // d times in all. At maxsize
    # 16 the 50 calls per n missed 15,014 times against 500 distinct n.
    arithmetic_profile.cache_clear()
    for n in range(1, 501):
        for call in range(50):
            divisor_partition_identity(n, call + 1, call + 3 * n)
            if call == 0:
                first = arithmetic_profile.cache_info().misses
        assert arithmetic_profile.cache_info().misses == first, n
    assert arithmetic_profile.cache_info().misses <= sum(500 // d for d in range(1, 501))


def test_spf_sieve_refuses_a_limit_over_the_ceiling():
    with pytest.raises(ValueError, match=rf"^a sieve takes limit <= {_SIEVE_MAX}, got {_SIEVE_MAX + 1}$"):
        spf_sieve(_SIEVE_MAX + 1)
    spf = spf_sieve(_SIEVE_MAX)  # 10^6: about 0.2 s and 38 MB
    assert len(spf) == _SIEVE_MAX + 1
    assert (spf[_SIEVE_MAX], spf[999_983], spf[999_999]) == (2, 999_983, 3)


def test_profile_against_sieve():
    spf = spf_sieve(2000)
    for n in range(2, 2001):
        p = arithmetic_profile(n)
        # rebuild the factorization from the smallest-prime-factor table
        m, pp = n, []
        while m > 1:
            q = spf[m]
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            pp.append((q, e))
        assert p.prime_powers == tuple(pp)


def test_profile_type_validates():
    with pytest.raises(InvariantError):
        ArithmeticProfile(n=6, prime_powers=((2, 1),), omega=1, mobius=-1,
                          euler_phi=1, squarefree_divisors=((1, 1), (2, -1)))
    with pytest.raises(InvariantError):
        ArithmeticProfile(n=6, prime_powers=((2, 1), (3, 1)), omega=2, mobius=-1,
                          euler_phi=2, squarefree_divisors=((1, 1), (2, -1), (3, -1), (6, 1)))
    with pytest.raises(InvariantError):
        ArithmeticProfile(n=6, prime_powers=((2, 1), (3, 1)), omega=2, mobius=1,
                          euler_phi=3, squarefree_divisors=((1, 1), (2, -1), (3, -1), (6, 1)))


# --- range bounds -----------------------------------------------------------


def test_range_bound_accepts_rationals_and_ints():
    rb = RangeBound(Fraction(1, 2), Fraction(10, 3))
    assert rb.integer_span() == (1, 3)
    assert RangeBound(3, 7).integer_span() == (3, 7)


def test_range_bound_rejects_inverted():
    with pytest.raises(ValueError):
        RangeBound(2, 1)


def test_range_bound_equal_endpoints_in_different_spellings():
    rb = RangeBound(Fraction(2, 4), "1/2")
    assert rb.lo == rb.hi == Fraction(1, 2)
    assert type(rb.lo) is Fraction and type(rb.hi) is Fraction


@pytest.mark.parametrize(
    "lo,hi",
    [
        (Fraction(3, 4), Fraction(2, 3)),  # 9/12 > 8/12
        (Fraction(1, 2), Fraction(1, 3)),  # 3/6 > 2/6
        ("7/10", Fraction(2, 3)),  # 21/30 > 20/30
        (5, Fraction(34, 7)),  # 35/7 > 34/7
    ],
)
def test_range_bound_rejects_out_of_order_by_one_over_lcm(lo, hi):
    with pytest.raises(ValueError):
        RangeBound(lo, hi)
    swapped = RangeBound(hi, lo)  # the same two values in order are fine
    assert swapped.lo < swapped.hi


@pytest.mark.parametrize("lo,hi", [(0.1, 2.9), (1, 2.5), (True, 3), (1, True), (None, 3)])
def test_range_bound_rejects_non_rational_endpoints(lo, hi):
    with pytest.raises(ValueError, match="float|bool|NoneType"):
        RangeBound(lo, hi)


@pytest.mark.parametrize("lo", [0, "0", Fraction(-1, 3), "-5/2", -4])
def test_phi_range_mobius_refuses_nonpositive_lo(lo):
    with pytest.raises(ValueError):
        phi_range_mobius(6, RangeBound(lo, 10))


def test_range_bound_empty_integer_span():
    lo, hi = RangeBound(Fraction(1, 3), Fraction(2, 3)).integer_span()
    assert lo > hi  # no integers inside


# --- the three methods ------------------------------------------------------


def test_phi_range_worked_example():
    rb = RangeBound(Fraction(1, 2), Fraction(10, 3))
    assert phi_range_direct(6, rb) == 1
    assert phi_range_mobius(6, rb) == 1


def test_phi_range_n1_counts_integers():
    assert phi_range_mobius(1, RangeBound(3, 7)) == 5
    assert phi_range_direct(1, RangeBound(3, 7)) == 5


def test_half_open_variant_is_short_by_one_exactly_at_n1():
    rb = RangeBound(3, 7)
    assert phi_range_mobius_half_open(1, rb) == 4
    # for n > 1 the two agree on every range tried
    for n in range(2, 80):
        rb = RangeBound(n // 2 + 1, 3 * n)
        assert phi_range_mobius_half_open(n, rb) == phi_range_mobius(n, rb)


def test_direct_equals_mobius_exhaustive_small():
    # a RangeBound does not depend on n, so each (lo, hi) is built once, and
    # one gcd-scan prefix count per n stands in for a brute scan per range
    bounds = {(lo, hi): RangeBound(lo, hi) for lo in range(1, 119) for hi in range(lo, lo + 118)}
    for n in range(1, 60):
        coprime_upto = [0, *accumulate(gcd(k, n) == 1 for k in range(1, 4 * n))]
        for lo in range(1, 2 * n + 1):
            for hi in range(lo, lo + 2 * n):
                rb = bounds[lo, hi]
                want = coprime_upto[hi] - coprime_upto[lo - 1]
                assert phi_range_direct(n, rb) == want
                assert phi_range_mobius(n, rb) == want


@settings(max_examples=300)
@given(
    n=st.integers(1, 400),
    lo_num=st.integers(1, 900),
    den=st.integers(1, 8),
    width_num=st.integers(0, 400),
)
def test_methods_agree_on_rational_ranges(n, lo_num, den, width_num):
    lo = Fraction(lo_num, den)
    hi = lo + Fraction(width_num, den)
    rb = RangeBound(lo, hi)
    assert phi_range_direct(n, rb) == phi_range_mobius(n, rb)


def test_phi_range_mobius_rejects_bool_n():
    with pytest.raises(ValueError):
        phi_range_mobius(True, RangeBound(3, 7))


def test_phi_range_on_empty_rational_interval():
    rb = RangeBound(Fraction(1, 3), Fraction(2, 3))
    assert phi_range_direct(5, rb) == 0
    assert phi_range_mobius(5, rb) == 0


# --- prefix decomposition ---------------------------------------------------


def test_legendre_phi_values():
    assert legendre_phi(12, 17) == 6
    assert legendre_phi(12, 5) == 2
    assert legendre_phi(1, 9) == 9
    assert legendre_phi(6, 0) == 0


@pytest.mark.parametrize(
    "x,shown", [(-1, "-1"), (-(10**20), str(-(10**20))), ("-1/2", "-1/2"), (Fraction(-1, 3), "-1/3")]
)
def test_legendre_phi_rejects_negative_bound(x, shown):
    with pytest.raises(ValueError) as info:
        legendre_phi(6, x)
    assert str(info.value) == f"prefix bound must be >= 0, got {shown}"


def test_legendre_phi_takes_int_str_and_fraction_alike():
    # k <= 7/2 coprime to 12: only k = 1; k <= 35/2 matches the integer prefix 17
    assert legendre_phi(12, "7/2") == legendre_phi(12, Fraction(7, 2)) == legendre_phi(12, 3) == 1
    assert legendre_phi(12, Fraction(35, 2)) == legendre_phi(12, "35/2") == legendre_phi(12, 17) == 6
    # an int bound is read as x/1 without a Fraction; it must count exactly
    # what the same bound as a Fraction or as text counts, and the gcd scan
    for n in range(1, 61):
        running = 0
        for x in range(0, 3 * n + 1):
            running += x > 0 and gcd(n, x) == 1
            assert legendre_phi(n, x) == legendre_phi(n, Fraction(x)) == legendre_phi(n, str(x)) == running


@pytest.mark.parametrize("x", [4.35 * 100, 7.0, True, False, None])
def test_legendre_phi_rejects_float_and_bool(x):
    # 4.35 * 100 is 434.99999999999994, which would silently count to 434
    with pytest.raises(ValueError) as info:
        legendre_phi(1, x)
    assert str(info.value) == f"prefix bound must be an int, str or Fraction, got {type(x).__name__} {x!r}"


def test_decomposition_worked_example():
    d = phi_decomposition(12, 5, 17)
    assert (d.prefix_hi, d.prefix_lo, d.endpoint) == (6, 2, 1)
    assert d.combined == 5
    assert d.combined == phi_range_mobius(12, RangeBound(5, 17))


def test_decomposition_matches_range_count():
    for n in range(2, 120):
        for lo in (1, 2, n // 2 + 1, n, 2 * n + 3):
            hi = lo + n
            d = phi_decomposition(n, lo, hi)
            assert d.combined == phi_range_mobius(n, RangeBound(lo, hi))


# --- the estimate -----------------------------------------------------------


def test_phi_approx_worked_examples():
    ap = phi_approx(30, 7, 100)
    assert ap.estimate == Fraction(129, 5)
    assert ap.exact == 25
    assert ap.error == Fraction(-4, 5)
    assert ap.bound == 16

    ap = phi_approx(12, 5, 17)
    assert ap.estimate == 5
    assert ap.error == 0

    ap = phi_approx(2, 1, 1)
    assert ap.estimate == 1 and ap.exact == 1 and ap.error == 0


def test_phi_approx_rejects_n1():
    with pytest.raises(PreconditionError):
        phi_approx(1, 3, 9)


@pytest.mark.parametrize("args", [(True, 3, 9), (6, True, 9), (6, 1, True)])
def test_phi_approx_rejects_bool(args):
    with pytest.raises(ValueError):
        phi_approx(*args)


@settings(max_examples=300)
@given(n=st.integers(2, 10**4), lo=st.integers(1, 10**6), width=st.integers(0, 10**6))
def test_phi_approx_matches_fraction_formulas(n, lo, width):
    hi = min(lo + width, 10**6)
    ap = phi_approx(n, lo, hi)
    delta = 1 if gcd(n, lo) == 1 else 0
    estimate = Fraction((hi - lo) * euler_phi(n), n) + delta
    assert type(ap.estimate) is Fraction and type(ap.error) is Fraction
    assert ap.estimate == estimate
    assert ap.exact == legendre_phi(n, hi) - legendre_phi(n, lo - 1)
    assert ap.error == ap.exact - estimate


def test_phi_approx_error_stays_under_half_bound():
    # the left-endpoint correction makes |error| <= 2^omega, half the stated bound
    for n in range(2, 300):
        for lo in (1, n // 3 + 1, n, 2 * n + 1):
            ap = phi_approx(n, lo, lo + 2 * n + 5)
            assert abs(ap.error) <= ap.bound // 2


def test_phi_approx_type_validates():
    with pytest.raises(InvariantError):
        PhiApproximation(n=6, lo=1, hi=6, estimate=Fraction(2), exact=2,
                         error=Fraction(1), bound=8)  # error != exact - estimate
    with pytest.raises(InvariantError):
        PhiApproximation(n=6, lo=1, hi=6, estimate=Fraction(30), exact=2,
                         error=Fraction(-28), bound=8)  # bound violated
    # an error off by 1/n no longer equals exact - estimate
    for n, lo, hi in [(30, 7, 100), (12, 5, 17), (2, 1, 1), (97, 3, 500)]:
        ap = phi_approx(n, lo, hi)
        for off in (Fraction(1, n), -Fraction(1, n)):
            with pytest.raises(InvariantError):
                replace(ap, error=ap.error + off)


# --- divisor identities -----------------------------------------------------


def test_partition_counts_every_integer_once():
    assert divisor_partition_identity(6, 3, 11) == 9
    for n in (1, 2, 12, 30, 49, 128):
        for lo in (1, 5, n):
            assert divisor_partition_identity(n, lo, lo + 17) == 18


def test_identity_self_checks_raise_invariant_error(monkeypatch):
    # a count that fails to telescope, or a sum that fails to pair, is a
    # broken identity, not a malformed argument
    with monkeypatch.context() as mp:
        mp.setattr(totient, "_mobius_count", lambda n, *rest: 1)
        with pytest.raises(InvariantError, match=r"^partition of \[8, 10\] by gcd with 6 came to 4, not 3$"):
            divisor_partition_identity(6, 8, 10)
    # a gcd that reads only k = 1 as coprime: the sum 1 does not pair to 5/2
    monkeypatch.setattr(totient, "math", SimpleNamespace(gcd=lambda n, k: 1 if k == 1 else n))
    with pytest.raises(InvariantError, match=r"^paired sum broke: 2\*1 != 5\*1 on \[1, 4\]$"):
        coprime_sum(5, 1, 4)


def fraction_route_partition(n, lo, hi, by_divisor):
    """The partition sums as first written: a RangeBound of Fractions per divisor."""
    return sum(
        phi_range_mobius(d if by_divisor else n // d, RangeBound(Fraction(lo, d), Fraction(hi, d)))
        for d in range(1, n + 1)
        if n % d == 0
    )


def test_partition_functions_match_fraction_route():
    rng = random.Random(2024)
    for n in range(1, 201):
        for _ in range(8):
            lo = rng.randint(1, 3 * n)
            hi = rng.randint(lo, lo + 3 * n)
            assert divisor_partition_identity(n, lo, hi) == fraction_route_partition(n, lo, hi, False)
            assert divisor_partition_by_divisor(n, lo, hi) == fraction_route_partition(n, lo, hi, True)


def test_partition_by_divisor_overcounts():
    # the d-indexed variant is wrong in general; smallest witness
    assert divisor_partition_by_divisor(2, 1, 2) == 3
    # though it happens to agree when n is 1 or a fixed point of d <-> n/d
    assert divisor_partition_by_divisor(1, 4, 9) == 6


def test_coprime_sum_symmetric_case():
    # endpoints mirroring around n/2: sum = (n/2) * count
    assert coprime_sum(5, 1, 4) == 10
    assert coprime_sum(12, 5, 7) == 12
    for n in range(2, 200):
        for lo in range(1, n // 2 + 1):
            hi = n - lo
            if lo > hi:
                continue
            total = coprime_sum(n, lo, hi)
            cnt = phi_range_direct(n, RangeBound(lo, hi))
            assert 2 * total == n * cnt


def test_coprime_sum_strict_gate():
    with pytest.raises(PreconditionError):
        coprime_sum(5, 1, 2)  # 1 + 2 != 5
    assert coprime_sum(5, 1, 2, strict=False) == 3


def test_input_validation():
    with pytest.raises(ValueError):
        euler_phi(0)
    with pytest.raises(ValueError):
        phi_range_direct(6, RangeBound(Fraction(-3), Fraction(2)))


def test_gcd_scans_refuse_ranges_over_the_ceiling():
    # only just over the limit: a scan at the limit itself takes seconds
    over = f"at most {_SCAN_MAX} integers, got {_SCAN_MAX + 1}"
    with pytest.raises(ValueError, match=over):
        phi_range_direct(6, RangeBound(1, _SCAN_MAX + 1))
    with pytest.raises(ValueError, match=over):
        phi_range_direct(6, RangeBound("1/2", f"{2 * _SCAN_MAX + 3}/2"))  # integers 1 .. _SCAN_MAX + 1
    with pytest.raises(ValueError, match=over):
        coprime_sum(_SCAN_MAX + 2, 1, _SCAN_MAX + 1)
    with pytest.raises(ValueError, match=over):
        coprime_sum(6, 5, _SCAN_MAX + 5, strict=False)
    # the Mobius route counts the same range without scanning it: the
    # integers coprime to 6 are those = 1 or 5 mod 6
    top = _SCAN_MAX + 1
    assert phi_range_mobius(6, RangeBound(1, top)) == 2 * (top // 6) + (top % 6 >= 1) + (top % 6 >= 5)


def test_factorization_refuses_n_over_the_ceiling():
    # only just over the limit: a prime just under it takes about 0.3-0.5 s
    over = f"factorizing takes n <= {_FACTOR_MAX}, got {_FACTOR_MAX + 1}"
    n = _FACTOR_MAX + 1
    for call in (
        lambda: arithmetic_profile(n),
        lambda: euler_phi(n),
        lambda: phi_range_mobius(n, RangeBound(1, 10)),
        lambda: legendre_phi(n, 10),
        lambda: phi_approx(n, 1, 10),
        lambda: divisor_partition_identity(n, 1, 10),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == over
    assert arithmetic_profile(_FACTOR_MAX).prime_powers == ((2, 14), (5, 14))
    # the gcd scans never factorize, so they still count for such an n
    # (10^14 + 1 = 29 * 101 * 281 * 121499449 is coprime to every k <= 10)
    assert phi_range_direct(n, RangeBound(1, 10)) == 10
    assert coprime_sum(n, 1, 10, strict=False) == 55


@pytest.mark.parametrize(
    "call",
    [
        lambda: RangeBound("1/0", 3),
        lambda: RangeBound(1, "3/0"),
        lambda: RangeBound("x", 3),
        lambda: legendre_phi(6, "1/0"),
    ],
    ids=["lo-1/0", "hi-3/0", "lo-x", "prefix-1/0"],
)
def test_malformed_endpoint_text_raises_value_error(call):
    with pytest.raises(ValueError, match="must be a rational number"):
        call()


# "1e" with a 4-digit exponent E stands for 1 + 4 + E digits
_E_AT = _ENDPOINT_DIGITS_MAX - 5


@pytest.mark.parametrize(
    "call,got",
    [
        (lambda: RangeBound(1, f"1e{_E_AT + 1}"), _ENDPOINT_DIGITS_MAX + 1),
        (lambda: RangeBound(1, f"2.5E+{_E_AT}"), _ENDPOINT_DIGITS_MAX + 1),
        (lambda: RangeBound(f"1e-{_E_AT + 1}", 1), _ENDPOINT_DIGITS_MAX + 1),
        (lambda: legendre_phi(6, f"1e{_E_AT + 1}"), _ENDPOINT_DIGITS_MAX + 1),
        (lambda: RangeBound(1, "1" * (_ENDPOINT_DIGITS_MAX + 1)), _ENDPOINT_DIGITS_MAX + 1),
        (lambda: RangeBound(f"1/{'3' * _ENDPOINT_DIGITS_MAX}", 1), _ENDPOINT_DIGITS_MAX + 1),
    ],
    ids=["hi", "hi-decimal", "lo-negative", "prefix", "hi-literal", "lo-denominator"],
)
def test_endpoint_text_refuses_an_exponent_over_the_ceiling(call, got):
    # only just over the budget, so a missing check fails here in
    # milliseconds; the message counts the digits instead of echoing them
    with pytest.raises(ValueError, match=rf"at most {_ENDPOINT_DIGITS_MAX} digits, .*, got {got}$"):
        call()


def test_endpoint_text_at_the_exponent_ceiling_parses():
    top = 10**_E_AT
    assert RangeBound(f"1e-{_E_AT}", f"1e{_E_AT}") == RangeBound(Fraction(1, top), top)
    assert RangeBound(1, "9" * _ENDPOINT_DIGITS_MAX).hi == 10**_ENDPOINT_DIGITS_MAX - 1
    assert RangeBound(1, f"1e{'0' * 20}5").hi == 10**5  # the exponent counts by its value
    assert legendre_phi(6, f"1e{_E_AT}") == legendre_phi(6, top)
    # ints and Fractions never pass through the text check
    big = 10 ** (2 * _ENDPOINT_DIGITS_MAX)
    assert RangeBound(Fraction(1, big), big).hi == big


def test_profile_cache_answers_only_for_ints():
    # 2.0 == 2 and True == 1, but lru_cache keys a lone int by itself and
    # anything else by a tuple, so they miss the cached profiles of 2 and 1
    # and reach the argument check
    arithmetic_profile(1)
    arithmetic_profile(2)
    for n in (True, 2.0):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            arithmetic_profile(n)
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            euler_phi(n)
