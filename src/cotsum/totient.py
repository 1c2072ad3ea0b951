"""Counting and summing integers coprime to n over rational-endpoint ranges.

phi(n, [lo, hi]) counts the integers k with lo <= k <= hi and gcd(n, k) = 1.
Three independent routes are provided so they can cross-check each other:

  phi_range_direct   literal gcd scan over the integer span
  phi_range_mobius   inclusion-exclusion over squarefree divisors of n,
                     sum of mu(d) * (floor(hi/d) - ceil(lo/d) + 1)
  phi_decomposition  prefix counts: phi(n,[1,hi]) - phi(n,[1,lo]) + [gcd(n,lo)=1]
                     with each prefix via legendre_phi

phi_range_mobius, its half-open variant, phi_approx, the gcd partition and
`distribution.closed_form_counts` all count through one private
inclusion-exclusion kernel on plain ints, and build a Fraction only where one
is returned. phi_range_direct and legendre_phi stay off that kernel: they are
the independent routes the others are checked against. The two gcd scans,
phi_range_direct and coprime_sum, refuse a range of more than _SCAN_MAX
(10^7) integers with a ValueError naming the limit, and an endpoint given as
text refuses to stand for more than _ENDPOINT_DIGITS_MAX (4000) digits.

Every other count starts from n's factorization, `arithmetic_profile(n)`,
which refuses n above _FACTOR_MAX (10^14) and is memoized for the last 256
distinct n: callers ask for one n many times in a row, so that keeps every
repeat a hit while a loop over millions of n stays at about 0.25 MB of
profiles instead of growing without limit (about 0.9 KB per n).

The ceilings on an int argument, n's _FACTOR_MAX and spf_sieve's
_SIEVE_MAX (10^6), are `check_int`'s `most`, so each refusal names the
argument, the limit and the value, at any size of the value.

On top of those: the main-term approximation with its explicit 2 * 2^omega(n)
error bound, a divisor-level partition of a range by gcd, and the paired sum
of coprime residues over a symmetric range.

Two historically tempting but wrong variants are kept, clearly labeled, so
their failure stays pinned down: `phi_range_mobius_half_open` (drops the +1
per divisor term, undercounting by exactly one when n = 1) and
`divisor_partition_by_divisor` (indexes the partition by d instead of n/d).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

from .errors import InvariantError, PreconditionError, check_int, shown

__all__ = [
    "ArithmeticProfile",
    "RangeBound",
    "PhiDecomposition",
    "PhiApproximation",
    "arithmetic_profile",
    "euler_phi",
    "spf_sieve",
    "phi_range_direct",
    "phi_range_mobius",
    "phi_range_mobius_half_open",
    "legendre_phi",
    "phi_decomposition",
    "phi_approx",
    "divisor_partition_identity",
    "divisor_partition_by_divisor",
    "coprime_sum",
]

RationalLike = int | str | Fraction


# The gcd scans (phi_range_direct, coprime_sum) take time in proportion to
# the range, so each refuses more than _SCAN_MAX integers before it scans. At
# the limit, n = 30030, they took 1.7 and 1.8 s (shared 2-vCPU x86-64 host,
# Python 3.11); `cotsum totient 6 1 10**12` would have run for about two days.
_SCAN_MAX = 10**7


def _check_scan(lo: int, hi: int) -> None:
    if hi - lo + 1 > _SCAN_MAX:
        raise ValueError(
            f"a gcd scan covers at most {_SCAN_MAX} integers, got {shown(hi - lo + 1)} in [{shown(lo)}, {shown(hi)}]"
        )


# Every count but the gcd scans starts from n's factorization, by trial
# division up to sqrt(n), so arithmetic_profile refuses n above _FACTOR_MAX
# before it factorizes. The worst case is a prime: 999,999,999,989 took
# 0.03-0.06 s and 99,999,999,999,973, just under the limit, 0.28-0.51 s
# (shared 2-vCPU x86-64 host, Python 3.11); the time grows with sqrt(n), so
# a prime near 10^18 would take about half a minute.
_FACTOR_MAX = 10**14


def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    # trial division: n <= _FACTOR_MAX keeps it under a second
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    p = 5
    step = 2  # alternate 5,7,11,13,... skipping multiples of 2 and 3
    while p * p <= n:
        if n % p == 0:
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += step
        step = 6 - step
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@dataclass(frozen=True)
class ArithmeticProfile:
    """Factorization-derived data for one n, validated on construction."""

    n: int
    prime_powers: tuple[tuple[int, int], ...]
    omega: int
    mobius: int
    euler_phi: int
    squarefree_divisors: tuple[tuple[int, int], ...]  # (d, mu(d)) pairs, d ascending

    def __post_init__(self) -> None:
        # each p**e is at least 2**(e * (bit_length(p) - 1)), so a table that
        # would exceed n is refused before any power is built: a pair like
        # (2, 10**30) would otherwise exhaust memory in C
        for p, e in self.prime_powers:
            check_int("prime", p, 2)
            check_int("exponent", e, 1)
        if sum(e * (p.bit_length() - 1) for p, e in self.prime_powers) >= self.n.bit_length():
            raise InvariantError(f"prime powers reconstruct more than {shown(self.n)}")
        prod = 1
        phi = self.n
        for p, e in self.prime_powers:
            prod *= p**e
            phi -= phi // p
        if prod != self.n:
            raise InvariantError(f"prime powers reconstruct {shown(prod)}, not {shown(self.n)}")
        if phi != self.euler_phi:
            raise InvariantError(f"euler_phi {shown(self.euler_phi)} disagrees with the product formula {shown(phi)}")
        if self.omega != len(self.prime_powers):
            raise InvariantError("omega disagrees with the factor list")
        squarefree = all(e == 1 for _, e in self.prime_powers)
        if self.mobius != ((-1) ** self.omega if squarefree else 0):
            raise InvariantError("mobius value inconsistent with factorization")
        if len(self.squarefree_divisors) != 2**self.omega:
            raise InvariantError("squarefree divisor count must be 2^omega")
        if sum(mu for _, mu in self.squarefree_divisors) != (1 if self.n == 1 else 0):
            raise InvariantError("mu does not sum to the n=1 indicator over divisors")


# Sized to the reuse its callers show: each asks for one n many times in a
# row (50-200 calls per n in the battery's totient checks, 4-5 per b in a
# sweep), and only the gcd partition reads other n, its divisors n/d <= 500.
# A profile is about 0.9 KB, so unbounded the battery held 10,000 of them and
# a library loop of euler_phi over 10^7 integers would hold about 9 GB. One
# process running run_checks(500, 2000, 42), Python 3.11 on Linux x86-64
# (the first rows measured peak RSS, the later ones its rise above the import):
#   profile size / _tables size   peak RSS   above import   profile misses
#   unbounded / 64                31.9 MB    -              10,000
#   2048 / 8                      22.8 MB    -              12,000
#   1024 / 8                      22.0 MB    +1.16 MB       12,500
#   512 / 8                       -          +0.66 MB       13,499
#   256 / 8                       -          +0.38 MB       14,660
#   64 / 8                        -          +0.29 MB       15,763
#   32 / 8                        -          -              16,202
#   16 / 8                        -          -              29,266
# Below 32 the partition's divisor sets stop fitting. A miss costs about
# 10 us for n <= 10^4, so 256 adds about 0.02-0.03 s to the battery over
# 1024; but a miss near _FACTOR_MAX costs 0.3-0.5 s, and 256 still lets a
# caller rotate over a couple of hundred large n and keep its hits. A hit
# costs the same 0.1 us bounded or not.
@lru_cache(maxsize=256)
def _profile(n: int) -> ArithmeticProfile:
    pp = _factorize(n)
    phi = n
    for p, _ in pp:
        phi -= phi // p
    divs = [(1, 1)]
    for p, _ in pp:
        divs += [(d * p, -mu) for d, mu in divs]
    divs.sort()
    return ArithmeticProfile(
        n=n,
        prime_powers=pp,
        omega=len(pp),
        mobius=0 if any(e > 1 for _, e in pp) else (-1) ** len(pp),
        euler_phi=phi,
        squarefree_divisors=tuple(divs),
    )


def arithmetic_profile(n: int) -> ArithmeticProfile:
    """Factorization-derived data for n, memoized for the last 256 distinct n.

    n is at most _FACTOR_MAX (10^14); a larger n raises ValueError. n is
    checked before the cache hashes it, so an unhashable n is refused too.
    """
    check_int("n", n, 1, _FACTOR_MAX)
    return _profile(n)


arithmetic_profile.cache_info = _profile.cache_info
arithmetic_profile.cache_clear = _profile.cache_clear


def euler_phi(n: int) -> int:
    """Count of 1 <= k <= n with gcd(n, k) = 1."""
    return arithmetic_profile(n).euler_phi


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in arithmetic_profile(n).prime_powers:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


# spf_sieve holds a list of limit + 1 ints, about 38 bytes an index: limit
# 10^6 took 0.13-0.20 s and raised peak RSS by 38 MB, 3 * 10^6 0.5-0.7 s and
# 115 MB (shared 2-vCPU x86-64 host, Python 3.11), so 10^9 would ask for
# about 38 GB. It refuses a limit above _SIEVE_MAX before it allocates; the
# battery sieves to 10^4.
_SIEVE_MAX = 10**6


def spf_sieve(limit: int) -> list[int]:
    """Smallest prime factor for every index up to limit (0 and 1 map to themselves).

    Used by verification code as an independent source of omega/mobius data.
    limit is at most _SIEVE_MAX (10^6); a larger one raises ValueError.
    """
    check_int("limit", limit, 1, _SIEVE_MAX)
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:  # p prime
            for multiple in range(p * p, limit + 1, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    return spf


# A str endpoint may stand for at most _ENDPOINT_DIGITS_MAX digits: the digits
# it is written with, plus the magnitude N of a decimal exponent, for which
# Fraction builds 10**N (1e1000000 parsed in 0.2-0.3 s and 1e10000000 in
# 9-10 s on a shared 2-vCPU x86-64 host, Python 3.11). The cap also keeps
# every number a CLI record prints under CPython's 4,300-digit limit on int
# to str: the endpoints themselves, and phi_approx's estimate and error,
# whose parts gain at most 15 digits from an n <= _FACTOR_MAX. It is checked
# before Fraction parses the text, so 1e100000000 is refused at once.
_ENDPOINT_DIGITS_MAX = 4000


def _check_digits(text: str, what: str) -> None:
    digits = sum(map(str.isdigit, text))
    _, e, exp = text.lower().rpartition("e")
    if e and digits <= _ENDPOINT_DIGITS_MAX:  # so int() reads at most that many digits
        try:
            digits += abs(int(exp))
        except ValueError:  # not an exponent: Fraction refuses the text
            pass
    if digits > _ENDPOINT_DIGITS_MAX:
        raise ValueError(
            f"{what} must stand for at most {_ENDPOINT_DIGITS_MAX} digits, "
            f"its digits plus its decimal exponent, got {digits}"
        )


def _endpoint(value: RationalLike, what: str = "range endpoint") -> Fraction:
    # bool is an int and float converts to its binary expansion; both would
    # silently stand for a different range than the caller wrote
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(
            f"{what} must be an int, str or Fraction, got {type(value).__name__} {shown(value, repr)}"
        )
    if isinstance(value, str):
        _check_digits(value, what)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} must be a rational number, got {value!r}") from None


@dataclass(frozen=True)
class RangeBound:
    """Closed rational interval [lo, hi], lo <= hi.

    Endpoints may be given as int, str or Fraction (float and bool are
    refused; text standing for over _ENDPOINT_DIGITS_MAX digits too) and are
    stored as Fraction.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi
        if not isinstance(lo, Fraction):
            lo = _endpoint(lo)
            object.__setattr__(self, "lo", lo)
        if not isinstance(hi, Fraction):
            hi = _endpoint(hi)
            object.__setattr__(self, "hi", hi)
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError(f"bounds out of order: {shown(lo)} > {shown(hi)}")

    def integer_span(self) -> tuple[int, int]:
        """(ceil(lo), floor(hi)); first > second means no integers inside."""
        lo, hi = self.lo, self.hi
        return -(-lo.numerator // lo.denominator), hi.numerator // hi.denominator


def _check_positive_range(n: int, bounds: RangeBound) -> None:
    check_int("n", n, 1)
    if not isinstance(bounds, RangeBound):
        raise ValueError(f"bounds must be a RangeBound, got {type(bounds).__name__}")
    if bounds.lo.numerator <= 0:
        raise ValueError(f"range must sit inside the positive reals, got lo = {shown(bounds.lo)}")


def phi_range_direct(n: int, bounds: RangeBound) -> int:
    """gcd scan over every integer in the range."""
    _check_positive_range(n, bounds)
    lo, hi = bounds.integer_span()
    _check_scan(lo, hi)
    return operator.countOf(map(math.gcd, repeat(n), range(lo, hi + 1)), 1)


def _mobius_count(n: int, lo_num: int, lo_den: int, hi_num: int, hi_den: int, plus: int) -> int:
    """sum over squarefree d | n of mu(d) * (floor(hi/d) - ceil(lo/d) + plus).

    The inclusion-exclusion kernel behind every Mobius-route count, on plain
    ints: lo = lo_num/lo_den and hi = hi_num/hi_den need not be reduced, and
    ceil(x/y) is -((-x) // y). plus is 1 for the closed-range count and 0 for
    the pinned half-open variant.
    """
    total = 0
    for d, mu in arithmetic_profile(n).squarefree_divisors:
        total += mu * (hi_num // (hi_den * d) + (-lo_num) // (lo_den * d) + plus)
    return total


def phi_range_mobius(n: int, bounds: RangeBound) -> int:
    """Inclusion-exclusion count; every arithmetic step is on plain ints.

    Per squarefree divisor d the multiples of d in [lo, hi] number
    floor(hi/d) - ceil(lo/d) + 1 (never negative; an empty fit gives
    ceil > floor and the two cancel the +1).
    """
    _check_positive_range(n, bounds)
    lo, hi = bounds.lo, bounds.hi
    return _mobius_count(n, lo.numerator, lo.denominator, hi.numerator, hi.denominator, 1)


def phi_range_mobius_half_open(n: int, bounds: RangeBound) -> int:
    """The same inclusion-exclusion with the +1 dropped from each term.

    Kept as a pinned wrong variant: dropping the +1 subtracts
    sum_d mu(d) = [n = 1], so it agrees with phi_range_mobius for n > 1 and
    undercounts by exactly 1 at n = 1 (e.g. n=1, [3, 7] gives 4, not 5).
    """
    _check_positive_range(n, bounds)
    lo, hi = bounds.lo, bounds.hi
    return _mobius_count(n, lo.numerator, lo.denominator, hi.numerator, hi.denominator, 0)


def legendre_phi(n: int, x: RationalLike) -> int:
    """Count of 1 <= k <= x with gcd(n, k) = 1; x may be rational.

    x is taken as an int, str or Fraction, like a `RangeBound` endpoint.
    """
    check_int("n", n, 1)
    if type(x) is int:  # the common case reads as x/1 without a Fraction
        num, den = x, 1
    else:
        if not isinstance(x, Fraction):
            x = _endpoint(x, "prefix bound")
        num, den = x.numerator, x.denominator
    if num < 0:
        raise ValueError(f"prefix bound must be >= 0, got {shown(x)}")
    total = 0
    for d, mu in arithmetic_profile(n).squarefree_divisors:
        total += mu * (num // (den * d))
    return total


@dataclass(frozen=True)
class PhiDecomposition:
    """phi(n, [lo, hi]) split into prefix counts plus the left-endpoint fix."""

    n: int
    lo: int
    hi: int
    prefix_hi: int  # coprime count on [1, hi]
    prefix_lo: int  # coprime count on [1, lo]
    endpoint: int  # 1 if gcd(n, lo) = 1 else 0 (lo was subtracted twice)

    def __post_init__(self) -> None:
        if self.endpoint not in (0, 1):
            raise InvariantError(f"endpoint indicator must be 0 or 1, got {shown(self.endpoint)}")

    @property
    def combined(self) -> int:
        return self.prefix_hi - self.prefix_lo + self.endpoint


def phi_decomposition(n: int, lo: int, hi: int) -> PhiDecomposition:
    """Range count through prefix counts: phi[1,hi] - phi[1,lo] + [gcd(n,lo)=1]."""
    _check_int_range(n, lo, hi)
    return PhiDecomposition(
        n=n,
        lo=lo,
        hi=hi,
        prefix_hi=legendre_phi(n, hi),
        prefix_lo=legendre_phi(n, lo),
        endpoint=1 if math.gcd(n, lo) == 1 else 0,
    )


def _check_int_range(n: int, lo: int, hi: int) -> None:
    check_int("n", n, 1)
    check_int("lo", lo, 1)
    check_int("hi", hi, lo)


@dataclass(frozen=True)
class PhiApproximation:
    """Main-term estimate for phi(n, [lo, hi]) with a proven error bound.

    estimate = (hi - lo)/n * phi(n), plus 1 when gcd(n, lo) = 1 so the left
    endpoint is handled exactly. The true count then differs from the estimate
    by a signed accumulation of fractional parts, one pair per squarefree
    divisor, hence |error| <= 2 * 2^omega(n). Construction re-checks the bound.
    """

    n: int
    lo: int
    hi: int
    estimate: Fraction
    exact: int
    error: Fraction
    bound: int

    def __post_init__(self) -> None:
        # both checks cross-multiply numerators and denominators, so no
        # Fraction is built: error == exact - estimate and |error| <= bound
        est, err = self.estimate, self.error
        exact_minus_est = self.exact * est.denominator - est.numerator  # over est.denominator
        if err.numerator * est.denominator != exact_minus_est * err.denominator:
            raise InvariantError("error field must equal exact - estimate")
        if abs(err.numerator) > self.bound * err.denominator:
            raise InvariantError(
                f"error {shown(self.error)} exceeds bound {shown(self.bound)} for n={shown(self.n)},"
                f" [{shown(self.lo)}, {shown(self.hi)}]"
            )


def phi_approx(n: int, lo: int, hi: int) -> PhiApproximation:
    check_int("n", n, 1)  # before the precondition reads it; the range helper checks it again
    if n == 1:
        raise PreconditionError("the error analysis needs n with at least one prime factor")
    _check_int_range(n, lo, hi)
    profile = arithmetic_profile(n)
    delta = 1 if math.gcd(n, lo) == 1 else 0
    # estimate and error are integers over n; each Fraction is built once
    estimate_num = (hi - lo) * profile.euler_phi + delta * n
    exact = _mobius_count(n, lo, 1, hi, 1, 1)
    return PhiApproximation(
        n=n,
        lo=lo,
        hi=hi,
        estimate=Fraction(estimate_num, n),
        exact=exact,
        error=Fraction(exact * n - estimate_num, n),
        bound=2 * 2**profile.omega,
    )


def divisor_partition_identity(n: int, lo: int, hi: int) -> int:
    """sum over d | n of phi(n/d, [lo/d, hi/d]); always equals hi - lo + 1.

    Each integer k in [lo, hi] is counted exactly once, by d = gcd(n, k)
    (k/d is then coprime to n/d). The function recomputes the sum and raises
    InvariantError if it ever fails to telescope, so a plain return value
    doubles as a verified identity instance.
    """
    _check_int_range(n, lo, hi)
    total = 0
    for d in _divisors(n):
        total += _mobius_count(n // d, lo, d, hi, d, 1)
    if total != hi - lo + 1:
        raise InvariantError(
            f"partition of [{shown(lo)}, {shown(hi)}] by gcd with {shown(n)} came to {shown(total)},"
            f" not {shown(hi - lo + 1)}"
        )
    return total


def divisor_partition_by_divisor(n: int, lo: int, hi: int) -> int:
    """The d-indexed (wrong) variant: sum over d | n of phi(d, [lo/d, hi/d]).

    Kept as a pinned misstatement. Counterexample: n=2, lo=1, hi=2 gives
    phi(1,[1,2]) + phi(2,[1/2,1]) = 2 + 1 = 3, but the interval holds 2
    integers. No consistency check on purpose.
    """
    _check_int_range(n, lo, hi)
    total = 0
    for d in _divisors(n):
        total += _mobius_count(d, lo, d, hi, d, 1)
    return total


def coprime_sum(n: int, lo: int, hi: int, strict: bool = True) -> int:
    """Sum of the integers in [lo, hi] coprime to n.

    With strict=True (default) the symmetric-range hypothesis lo + hi = n is
    required; under it k <-> n-k pairs the coprime values, forcing the sum to
    n/2 times the coprime count, and the function re-derives that as a self
    check. strict=False just sums (the identity genuinely fails off the
    symmetric case, e.g. n=5, [1, 2] sums to 3 while the paired formula
    would claim 5).
    """
    _check_int_range(n, lo, hi)
    _check_scan(lo, hi)
    if strict and lo + hi != n:
        raise PreconditionError(
            f"pairing k <-> n-k needs lo + hi = n; got {shown(lo)} + {shown(hi)} != {shown(n)}"
        )
    gcd = math.gcd
    count = 0
    total = 0
    for k in range(lo, hi + 1):
        if gcd(n, k) == 1:
            count += 1
            total += k
    if strict and 2 * total != n * count:
        raise InvariantError(
            f"paired sum broke: 2*{shown(total)} != {shown(n)}*{shown(count)} on [{shown(lo)}, {shown(hi)}]"
        )
    return total
