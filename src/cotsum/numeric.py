"""Floating-point oracle for the cotangent sums.

Everything here deliberately avoids the exact case analysis: sums are formed
term by term from trig tables so they can disagree with the rational path if
either is wrong. Two things keep the rounding error controlled:

  * integer angle reduction: the angle 2*pi*m*n*a/b is reduced as the integer
    m*(n*a mod b) mod b before any float is formed, so precision does not
    degrade as n*a grows;
  * correctly rounded `math.fsum` for every sum, in one helper. Table
    rounding, not summation, sets the error: for n = 1, every residue and
    b <= 300 the worst |exact - float| / tol(b) is 6.46e-8 with Kahan
    summation and with fsum alike.

Each sum reads two O(b) float tables of its modulus, cot(pi*m/b) and the
power of sin(2*pi*j/b) or cos(2*pi*j/b) it multiplies by, and builds only
those. The last 8 (modulus, kind) tables are memoized, which keeps repeated
sums over the same b close to table lookup speed. One table is b floats,
about 3.2 MB at b = 10^5, so at that modulus the 8 tables hold about 26 MB
at most.

The comparison tolerance is tol(b) = 1e-9 * b**2: the largest table entry is
cot(pi/b) ~ b/pi and sums have b-1 terms, so admissible rounding noise grows
about quadratically in b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import PreconditionError
from .exact import check_modulus, check_positive

__all__ = [
    "NumericResult",
    "tol",
    "agrees",
    "eval_float",
    "cot_sin2_sum",
    "cot_cos_power_sum",
    "frac_part_via_sine_sum",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NumericResult:
    """A float sum, correctly rounded by `math.fsum`, plus the bookkeeping to trust it."""

    value: float
    term_count: int
    abs_bound: float  # a priori bound on every partial sum and on value

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite sum {self.value!r}")
        if self.term_count < 1:
            raise ValueError(f"term_count must be >= 1, got {self.term_count}")
        if self.abs_bound < 0.0:
            raise ValueError(f"abs_bound must be >= 0, got {self.abs_bound}")


def tol(b: int) -> float:
    """Comparison tolerance for modulus b."""
    check_modulus(b)
    return 1e-9 * b * b


def agrees(exact: Fraction, result: NumericResult, b: int) -> bool:
    """Whether a float evaluation matches an exact value within tol(b)."""
    return abs(float(exact) - result.value) <= tol(b)


# Every caller loops b on the outside (the battery's numeric checks, the
# acceptance tests, one b per CLI call), so all reuse is of the most recent b.
# run_checks(500, 2000, 42) makes 161,470 hits and 3,598 misses at every
# maxsize from 2 to 8: each numeric check builds cot and its other tables once
# per b. Unbounded it makes 2,691 misses (9 kinds for each b <= 300) but holds
# every table. 8 lets a caller interleave cot with up to seven other tables of
# one b without a rebuild. One table is b floats, about 3.2 MB at b = 10^5, so
# the cache holds at most about 26 MB there.
@lru_cache(maxsize=8)
def _tables(b: int, kind: str) -> list[float]:
    """One trig table of modulus b, indexed by m (cot) or j (the rest) in [0, b-1].

    kind is "cot" for cot(pi*m/b), "sin", "sin2" or "sin3" for powers of
    sin(2*pi*j/b), or "cos<q>" for cos(2*pi*j/b)**q with q >= 1.
    """
    check_modulus(b)
    if kind == "cot":
        # index 0 unused, cot(0) never appears
        return [0.0, *(math.cos(math.pi * m / b) / math.sin(math.pi * m / b) for m in range(1, b))]
    if kind.startswith("cos"):
        q = int(kind[3:])
        return [math.cos(_TWO_PI * j / b) ** q for j in range(b)]
    # the powers come straight from a generator of sines: no sin list is built
    sines = (math.sin(_TWO_PI * j / b) for j in range(b))
    if kind == "sin":
        return list(sines)
    if kind == "sin2":
        return [s * s for s in sines]
    if kind == "sin3":
        return [s * s * s for s in sines]
    raise ValueError(f"unknown table kind {kind!r}")


def _term_bound(b: int, cot: list[float]) -> float:
    # |cot(pi*m/b)| peaks at m=1 and the other factor is at most 1,
    # so (b-1)*cot(pi/b) dominates the sum of |terms|, hence every partial sum
    return (b - 1) * abs(cot[1])


def _cot_sum(cot: list[float], table: list[float], r: int) -> float:
    """Correctly rounded sum of cot(pi*m/b) * table[m*r mod b] for m in [1, b-1]."""
    b = len(cot)
    # a generator, not a list: at b = 10^5 a list of the terms costs 3 MB
    return math.fsum(cot[m] * table[m * r % b] for m in range(1, b))


def eval_float(n: int, a: int, b: int) -> NumericResult:
    """Brute-force S(n, a, b): sum of cot(pi*m/b) * sin(2*pi*m*n*a/b)**3."""
    check_positive("n", n)
    check_positive("a", a)
    cot = _tables(b, "cot")
    s = _cot_sum(cot, _tables(b, "sin3"), n * a % b)
    return NumericResult(value=s, term_count=b - 1, abs_bound=_term_bound(b, cot))


def cot_sin2_sum(n: int, a: int, b: int) -> NumericResult:
    """sum of cot(pi*m/b) * sin(2*pi*m*n*a/b)**2; identically zero.

    The m -> b-m flip negates the cotangent and fixes the squared sine, so
    terms cancel in pairs. Returned unsimplified as a cancellation probe.
    """
    check_positive("n", n)
    check_positive("a", a)
    cot = _tables(b, "cot")
    s = _cot_sum(cot, _tables(b, "sin2"), n * a % b)
    return NumericResult(value=s, term_count=b - 1, abs_bound=_term_bound(b, cot))


def cot_cos_power_sum(q: int, n: int, a: int, b: int) -> NumericResult:
    """sum of cot(pi*m/b) * cos(2*pi*m*n*a/b)**q; identically zero for q >= 1.

    Same pairing as cot_sin2_sum: cosine is even under m -> b-m, cotangent odd.
    """
    check_positive("q", q)
    check_positive("n", n)
    check_positive("a", a)
    cot = _tables(b, "cot")
    s = _cot_sum(cot, _tables(b, f"cos{q}"), n * a % b)
    return NumericResult(value=s, term_count=b - 1, abs_bound=_term_bound(b, cot))


def frac_part_via_sine_sum(n: int, a: int, b: int) -> NumericResult:
    """{n*a/b} recovered from the plain (first-power) cotangent-sine sum.

    Uses sum_{m=1}^{b-1} cot(pi*m/b) * sin(2*pi*m*j/b) = b - 2*j for
    j = n*a mod b, which needs b to not divide n*a. Compare against
    frac_part(n, a, b) within tol(b).
    """
    check_positive("n", n)
    check_positive("a", a)
    check_modulus(b)
    r = n * a % b
    if r == 0:
        raise PreconditionError(f"{b} divides {n}*{a}; the sine sum degenerates")
    cot = _tables(b, "cot")
    s = _cot_sum(cot, _tables(b, "sin"), r)
    inner_bound = _term_bound(b, cot)
    return NumericResult(
        value=0.5 - s / (2.0 * b),
        term_count=b - 1,
        abs_bound=max(inner_bound, 0.5 + inner_bound / (2.0 * b)),
    )
