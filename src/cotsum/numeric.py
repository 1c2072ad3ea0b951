"""Floating-point oracle for the cotangent sums.

Everything here deliberately avoids the exact case analysis: sums are formed
term by term from trig values so they can disagree with the rational path if
either is wrong. Two things keep the rounding error controlled:

  * integer angle reduction: the angle 2*pi*m*n*a/b is reduced as the integer
    m*(n*a mod b) mod b before any float is formed, so precision does not
    degrade as n*a grows;
  * correctly rounded `math.fsum` for every sum, in one helper. The rounding
    of the trig values, not summation, sets the error: for n = 1, every
    residue and b <= 300 the worst |exact - float| / tol(b) is 6.46e-8 with
    Kahan summation and with fsum alike.

Each sum multiplies cot(pi*m/b) by the power of sin(2*pi*j/b) or
cos(2*pi*j/b) it needs. Up to b = _TABLE_MAX_B (4096) both factors come from
memoized O(b) tables of the modulus, the last 8 (modulus, kind) tables, which
keeps repeated sums over the same b close to table lookup speed; they hold
about 1 MB at most. Above that limit each term is computed as the sum runs,
so a one-off sum at a huge b holds no table at all. Both paths evaluate the
same float expressions, so a sum gives the same bits on either side of the
limit. Time grows with b on both paths, so every sum refuses a modulus above
_FLOAT_MAX_B (10^7, about 8 s), and so do tol and agrees, which compare such
sums; cot_cos_power_sum refuses an exponent q above _Q_MAX (2^53). Each
ceiling is `check_int`'s `most`, so the ValueError names the argument, the
limit and the value.

The comparison tolerance is tol(b) = 1e-9 * b**2: the largest cotangent is
cot(pi/b) ~ b/pi and sums have b-1 terms, so admissible rounding noise grows
about quadratically in b.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

from .errors import InvariantError, PreconditionError, check_int, check_operands, shown

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
            raise InvariantError(f"non-finite sum {shown(self.value, repr)}")
        if self.term_count < 1:
            raise InvariantError(f"term_count must be >= 1, got {shown(self.term_count)}")
        if self.abs_bound < 0.0:
            raise InvariantError(f"abs_bound must be >= 0, got {shown(self.abs_bound)}")


def tol(b: int) -> float:
    """Comparison tolerance for modulus b <= _FLOAT_MAX_B, beyond which no float sum exists."""
    check_int("modulus b", b, 2, _FLOAT_MAX_B)
    return 1e-9 * b * b


def agrees(exact: Fraction, result: NumericResult, b: int) -> bool:
    """Whether a float evaluation matches an exact value, one a float can hold, within tol(b)."""
    t = tol(b)
    if not isinstance(exact, Rational):
        raise ValueError(f"exact must be a Fraction or an int, got {type(exact).__name__}")
    try:
        value = float(exact)
    except OverflowError:
        raise ValueError(f"exact must be at most {sys.float_info.max!r} in magnitude, the largest float") from None
    if not isinstance(result, NumericResult):
        raise ValueError(f"result must be a NumericResult, got {type(result).__name__}")
    return abs(value - result.value) <= t


def _terms(b: int, kind: str, ms: Iterable[int], r: int = 1, cot: bool = True) -> Iterator[float]:
    """The term of each m in ms: cot(pi*m/b) times the `kind` factor at j = m*r mod b.

    With cot false the factor comes alone, as the tables hold it. kind is
    "sin", "sin2" or "sin3" for a power of sin(2*pi*j/b), "cos<q>"
    for cos(2*pi*j/b)**q with q >= 1, or "cot", the cosine's zeroth power:
    its factor is 1.0, so its terms are the cotangents themselves. Unchecked:
    the public sums name only these kinds. Every float expression of the
    oracle is written here once, and each term is computed whole in one
    loop, so a tabled sum and a streamed one give the same bits.
    """
    cosine = kind.startswith("c")
    p = int(kind[3:] or (0 if cosine else 1))
    sin, cos, pi = math.sin, math.cos, math.pi
    for m in ms:
        if cosine:
            f = cos(_TWO_PI * (m * r % b) / b) ** p if p else 1.0
        else:
            s = sin(_TWO_PI * (m * r % b) / b)
            f = s if p == 1 else s * s if p == 2 else s * s * s
        yield cos(pi * m / b) / sin(pi * m / b) * f if cot else f


# Moduli up to _TABLE_MAX_B read cached tables; above it every term is
# computed as the sum runs and no O(b) list is held. The largest table is
# 4096 floats, about 130 KB, so the 8 cached tables hold about 1 MB at worst,
# and a cold `cotsum eval` at b = 4096 peaks at about 16.2 MB of RSS, as one
# at b = 101 does (one at b = 99,991 peaked at 23.6 MB when every b had
# tables). The trade-off: many sums at one modulus above the limit recompute
# their trig every time. At b = 99,991 a streamed sum takes 47-72 ms and one
# over warm tables 12-22 ms (shared 2-vCPU x86-64 host, Python 3.11); a cold
# one over freshly built tables took 75-95 ms. Nothing in the
# battery or the tests sums repeatedly above the limit: the battery stops at
# b = 300 and a CLI call makes one sum.
_TABLE_MAX_B = 4096

# A float sum takes time in proportion to b, so every sum refuses a modulus
# above _FLOAT_MAX_B before it computes a term. The worst case at the limit,
# eval_float(1, 7, 10**7) (the sine cube is the dearest factor), took 8.0 s
# (shared 2-vCPU x86-64 host, Python 3.11); b = 10**9 would have taken about
# 13 minutes. The exact value has no such limit.
_FLOAT_MAX_B = 10**7

# A cosine power's exponent is a float in the sum, and every int up to 2**53
# is one exactly; past it float(q) rounds to an even number, so
# (-1.0) ** (2**53 + 1) is 1.0 and an odd power would come out even.
_Q_MAX = 2**53


# Every caller loops b on the outside (the battery's numeric checks, the
# acceptance tests, one b per CLI call), so all reuse is of the most recent b.
# run_checks(500, 2000, 42) makes 161,470 hits and 3,598 misses at every
# maxsize from 2 to 8: each numeric check builds cot and its other tables once
# per b. Unbounded it makes 2,691 misses (9 kinds for each b <= 300) but holds
# every table. 8 lets a caller interleave cot with up to seven other tables of
# one b without a rebuild.
@lru_cache(maxsize=8)
def _tables(b: int, kind: str) -> list[float]:
    """One trig table of modulus b, indexed by m (cot) or j (the rest) in [0, b-1].

    kind is one of the kinds of `_terms`. Unchecked: `_cot_sum`, the one
    caller, asks only for 2 <= b <= _TABLE_MAX_B.
    """
    if kind == "cot":
        return [0.0, *_terms(b, kind, range(1, b))]  # index 0 unused, cot(0) never appears
    return list(_terms(b, kind, range(b), cot=False))


def _cot_sum(b: int, kind: str, na: int) -> NumericResult:
    """Correctly rounded sum of cot(pi*m/b) times the `kind` factor at m*na mod b, m in [1, b-1].

    Unchecked: each public sum checks its operands first, b up to _FLOAT_MAX_B.
    """
    r = na % b
    if b <= _TABLE_MAX_B:
        cot = _tables(b, "cot")
        table = _tables(b, kind)
        # a generator, not a list: the terms are never held together
        s = math.fsum(cot[m] * table[m * r % b] for m in range(1, b))
        cot1 = cot[1]
    else:
        s = math.fsum(_terms(b, kind, range(1, b), r))
        cot1 = next(_terms(b, "cot", (1,)))
    # |cot(pi*m/b)| peaks at m=1 and the other factor is at most 1,
    # so (b-1)*cot(pi/b) dominates the sum of |terms|, hence every partial sum
    return NumericResult(value=s, term_count=b - 1, abs_bound=(b - 1) * abs(cot1))


def eval_float(n: int, a: int, b: int) -> NumericResult:
    """Brute-force S(n, a, b): sum of cot(pi*m/b) * sin(2*pi*m*n*a/b)**3."""
    check_operands(n, a, b, _FLOAT_MAX_B)
    return _cot_sum(b, "sin3", n * a)


def cot_sin2_sum(n: int, a: int, b: int) -> NumericResult:
    """sum of cot(pi*m/b) * sin(2*pi*m*n*a/b)**2; identically zero.

    The m -> b-m flip negates the cotangent and fixes the squared sine, so
    terms cancel in pairs. Returned unsimplified as a cancellation probe.
    """
    check_operands(n, a, b, _FLOAT_MAX_B)
    return _cot_sum(b, "sin2", n * a)


def cot_cos_power_sum(q: int, n: int, a: int, b: int) -> NumericResult:
    """sum of cot(pi*m/b) * cos(2*pi*m*n*a/b)**q; identically zero for q >= 1.

    Same pairing as cot_sin2_sum: cosine is even under m -> b-m, cotangent odd.
    """
    check_int("q", q, 1, _Q_MAX)
    check_operands(n, a, b, _FLOAT_MAX_B)
    return _cot_sum(b, f"cos{q}", n * a)


def frac_part_via_sine_sum(n: int, a: int, b: int) -> NumericResult:
    """{n*a/b} recovered from the plain (first-power) cotangent-sine sum.

    Uses sum_{m=1}^{b-1} cot(pi*m/b) * sin(2*pi*m*j/b) = b - 2*j for
    j = n*a mod b, which needs b to not divide n*a. Compare against
    frac_part(n, a, b) within tol(b).
    """
    check_operands(n, a, b, _FLOAT_MAX_B)  # the limit comes before the precondition
    r = n * a % b
    if r == 0:
        raise PreconditionError(f"{shown(b)} divides {shown(n)}*{shown(a)}; the sine sum degenerates")
    inner = _cot_sum(b, "sin", r)
    return NumericResult(
        value=0.5 - inner.value / (2.0 * b),
        term_count=b - 1,
        abs_bound=max(inner.abs_bound, 0.5 + inner.abs_bound / (2.0 * b)),
    )
