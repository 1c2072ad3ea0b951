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

Per-modulus tables of cot(pi*m/b), sin(2*pi*j/b), its cube and cos(2*pi*j/b)
are memoized for the last 8 moduli, which keeps repeated sums over the same b
close to table lookup speed. Callers loop b on the outside, so only the most
recent b is ever reused; the bound keeps a run over large moduli from holding
more than 8 entries of about 13 MB each (b = 10^5).

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
# acceptance tests, one b per CLI call), so all reuse is of the most recent b:
# the battery's 81k hits are repeats of it, and 64 entries gave no reuse
# between checks (1,196 misses at both 64 and 8). One entry is four O(b) float
# lists, about 13 MB at b = 10^5.
@lru_cache(maxsize=8)
def _tables(b: int) -> tuple[list[float], list[float], list[float], list[float]]:
    check_modulus(b)
    sin = [math.sin(_TWO_PI * j / b) for j in range(b)]
    cos = [math.cos(_TWO_PI * j / b) for j in range(b)]
    sin3 = [s * s * s for s in sin]
    cot = [0.0]  # index 0 unused, cot(0) never appears
    for m in range(1, b):
        cot.append(math.cos(math.pi * m / b) / math.sin(math.pi * m / b))
    return cot, sin, cos, sin3


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
    cot, _, _, sin3 = _tables(b)
    s = _cot_sum(cot, sin3, n * a % b)
    return NumericResult(value=s, term_count=b - 1, abs_bound=_term_bound(b, cot))


def cot_sin2_sum(n: int, a: int, b: int) -> NumericResult:
    """sum of cot(pi*m/b) * sin(2*pi*m*n*a/b)**2; identically zero.

    The m -> b-m flip negates the cotangent and fixes the squared sine, so
    terms cancel in pairs. Returned unsimplified as a cancellation probe.
    """
    check_positive("n", n)
    check_positive("a", a)
    cot, sin, _, _ = _tables(b)
    s = _cot_sum(cot, [v * v for v in sin], n * a % b)
    return NumericResult(value=s, term_count=b - 1, abs_bound=_term_bound(b, cot))


def cot_cos_power_sum(q: int, n: int, a: int, b: int) -> NumericResult:
    """sum of cot(pi*m/b) * cos(2*pi*m*n*a/b)**q; identically zero for q >= 1.

    Same pairing as cot_sin2_sum: cosine is even under m -> b-m, cotangent odd.
    """
    check_positive("q", q)
    check_positive("n", n)
    check_positive("a", a)
    cot, _, cos, _ = _tables(b)
    s = _cot_sum(cot, [v**q for v in cos], n * a % b)
    return NumericResult(value=s, term_count=b - 1, abs_bound=_term_bound(b, cot))


def frac_part_via_sine_sum(n: int, a: int, b: int) -> NumericResult:
    """{n*a/b} recovered from the plain (first-power) cotangent-sine sum.

    Uses sum_{m=1}^{b-1} cot(pi*m/b) * sin(2*pi*m*j/b) = b - 2*j for
    j = n*a mod b, which needs b to not divide n*a. Compare against
    frac_part(n, a, b) within tol(b).
    """
    check_positive("n", n)
    check_positive("a", a)
    cot, sin, _, _ = _tables(b)
    r = n * a % b
    if r == 0:
        raise PreconditionError(f"{b} divides {n}*{a}; the sine sum degenerates")
    s = _cot_sum(cot, sin, r)
    inner_bound = _term_bound(b, cot)
    return NumericResult(
        value=0.5 - s / (2.0 * b),
        term_count=b - 1,
        abs_bound=max(inner_bound, 0.5 + inner_bound / (2.0 * b)),
    )
