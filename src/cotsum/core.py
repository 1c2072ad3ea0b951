"""Exact evaluation and classification of the cubic cotangent sum.

The sum in question is

    S(n, a, b) = sum_{m=1}^{b-1} cot(pi*m/b) * sin(2*pi*m*n*a/b)**3

for positive integers n, a and modulus b >= 2. Despite the trig, S is always
rational: the cube collapses under the triple-angle identity into two sine
sums, each of which evaluates to an affine function of a fractional part.
Writing x_j = {j*n*a/b}, the value is

    0                          if b | n*a,
    (3*b/4) * (1 - 2*x_1)      if b | 3*n*a but b does not divide n*a,
    (b/2) * (x_3 - 3*x_1 + 1)  otherwise.

With r = n*a mod b and r3 = 3*r mod b that is the integer quotient

    3*(b - 2*r) / 4            if r3 = 0 (and r != 0),
    (r3 - 3*r + b) / 2         otherwise,

so S is always an integer over 1, 2 or 4. One private integer kernel
computes that (numerator, denominator) pair, and one private tag rule reads
the three-way tag off it by comparing 2*numerator with 0 and with
+-b*denominator. `eval_exact` and `classify` build their `Fraction` once,
from the kernel's pair, at the API edge; `distribution.sweep` tallies tags
from the same kernel and rule without building one.

For n = 1, gcd(a, b) = 1 and b != 3 the value is forced into {0, +b/2, -b/2},
and which of the three happens is decided by where the unique witness
k = (-3a - 1) mod b falls:

    S = 0     iff  k = 2b - 3a - 1 lands in [0, b-2]
    S = +b/2  iff  k =  b - 3a - 1 lands in [0, b-2]
    S = -b/2  iff  k = 3b - 3a - 1 lands in [0, b-2]

Exactly one of the three candidate expressions can land in [0, b-2] since
they differ by b, and for coprime reduced a one always does.

`master_witness` exposes the underlying congruence
(3*nu + 2)*b = (3a + k + 1) + 3*E(1,k) + 2*S with all parts exact, so callers
can re-check the books themselves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError, PreconditionError, check_int
from .exact import _boundary_value

__all__ = [
    "CotTag",
    "CotSumValue",
    "MasterWitness",
    "eval_exact",
    "classify",
    "master_witness",
    "predicate_zero",
    "predicate_plus",
    "predicate_minus",
]


class CotTag(enum.Enum):
    """Which of the three permitted values S(1, a, b) took."""

    ZERO = "Zero"
    PLUS_HALF_B = "PlusHalfB"
    MINUS_HALF_B = "MinusHalfB"
    OTHER = "Other"


@dataclass(frozen=True)
class CotSumValue:
    tag: CotTag
    exact: Fraction

    def __post_init__(self) -> None:
        # a Fraction carries its sign on the numerator; identity tests on
        # the members, since Enum hashing is a Python-level call
        num, tag = self.exact.numerator, self.tag
        if (
            (tag is CotTag.ZERO and num != 0)
            or (tag is CotTag.PLUS_HALF_B and num <= 0)
            or (tag is CotTag.MINUS_HALF_B and num >= 0)
        ):
            raise InvariantError(f"tag {tag.value} inconsistent with value {self.exact}")


@dataclass(frozen=True)
class MasterWitness:
    """Solution of (3*nu + 2)*b = (3a + k + 1) + 3*e1k + 2*s.

    k is the unique shift in [0, b-2] with b | 3a + k + 1, nu counts how far
    a + k overshoots b, e1k is the boundary count E(1, k), and s is the exact
    sum value the congruence forces.
    """

    a: int
    b: int
    k: int
    nu: int
    e1k: int
    s: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.k <= self.b - 2:
            raise InvariantError(f"witness k={self.k} outside [0, {self.b - 2}]")
        # 2*s must equal the integer rest; cross-multiplied, so no Fraction
        rest = (3 * self.nu + 2) * self.b - (3 * self.a + self.k + 1) - 3 * self.e1k
        if rest * self.s.denominator != 2 * self.s.numerator:
            raise InvariantError(f"witness books do not balance: 2*s = {2 * self.s}, the rest is {rest}")


# classify's tags in the order of the tag rule's indices
_TAGS = (CotTag.ZERO, CotTag.PLUS_HALF_B, CotTag.MINUS_HALF_B, CotTag.OTHER)


def _kernel(na: int, b: int) -> tuple[int, int]:
    """S as (numerator, denominator) over plain ints, denominator in {1, 2, 4}.

    S(n, a, b) depends on n and a only through na = n*a. The pair is not
    reduced; Fraction reduces it at the edge.
    """
    r = na % b
    if r == 0:
        return 0, 1
    r3 = 3 * r % b  # = 3*na mod b
    if r3 == 0:
        # x_3 degenerates; the sine sum for it drops out entirely
        return 3 * (b - 2 * r), 4
    return r3 - 3 * r + b, 2


def _tag(num: int, den: int, b: int) -> int:
    """Index into _TAGS of the value num/den: 0, +b/2, -b/2 or anything else."""
    twice = 2 * num
    if twice == 0:
        return 0
    if twice == b * den:
        return 1
    if twice == -b * den:
        return 2
    return 3


def eval_exact(n: int, a: int, b: int) -> Fraction:
    """S(n, a, b) as an exact rational, by the fractional-part case split."""
    check_int("n", n, 1)
    check_int("a", a, 1)
    check_int("modulus b", b, 2)
    return Fraction(*_kernel(n * a, b))


def classify(a: int, b: int, strict: bool = False) -> CotSumValue:
    """Tag S(1, a, b) as Zero / PlusHalfB / MinusHalfB / Other.

    The three-way split is guaranteed for gcd(a, b) = 1 and b != 3; outside
    that the tag Other can occur (e.g. a=1, b=3 gives 3/4). strict=True
    rejects such inputs up front with PreconditionError instead.
    """
    check_int("a", a, 1)
    check_int("modulus b", b, 2)
    if strict:
        if b == 3:
            raise PreconditionError("b = 3 admits values outside {0, +b/2, -b/2}")
        g = math.gcd(a, b)
        if g != 1:
            raise PreconditionError(f"gcd(a, b) = {g}; classification needs gcd(a, b) = 1")
    num, den = _kernel(a, b)
    return CotSumValue(tag=_TAGS[_tag(num, den, b)], exact=Fraction(num, den))


def master_witness(a: int, b: int) -> MasterWitness:
    """The exact congruence witness for S(1, a, b).

    Requires that b not divide 3a, which is what makes a k in [0, b-2] with
    b | 3a + k + 1 exist (under gcd(a, b) = 1 the only failure is b = 3).
    The returned s always equals eval_exact(1, a, b); the dataclass re-checks
    the balance on construction.
    """
    check_int("a", a, 1)
    check_int("modulus b", b, 2)
    if (3 * a) % b == 0:
        raise PreconditionError(f"no witness k: {b} divides 3*{a}")
    k = (-3 * a - 1) % b  # lands in [0, b-2] exactly because b does not divide 3a
    nu = (a + k) // b
    e1k = _boundary_value(a, b, k)  # E(1, k), the boundary count of (a, a + k]
    s = Fraction((3 * nu + 2) * b - (3 * a + k + 1) - 3 * e1k, 2)
    return MasterWitness(a=a, b=b, k=k, nu=nu, e1k=e1k, s=s)


def _check_reduced_coprime(a: int, b: int) -> None:
    check_int("a", a, 1)
    check_int("modulus b", b, 2)
    if b == 3:
        raise PreconditionError("the three-way predicates exclude b = 3")
    if a >= b:
        raise PreconditionError(f"predicates take a reduced residue, need 1 <= a <= {b - 1}")
    g = math.gcd(a, b)
    if g != 1:
        raise PreconditionError(f"gcd(a, b) = {g}; predicates need gcd(a, b) = 1")


def predicate_zero(a: int, b: int) -> bool:
    """True iff S(1, a, b) = 0; equivalently ceil((b+1)/3) <= a <= floor((2b-1)/3)."""
    _check_reduced_coprime(a, b)
    return 0 <= 2 * b - 3 * a - 1 <= b - 2


def predicate_plus(a: int, b: int) -> bool:
    """True iff S(1, a, b) = +b/2; equivalently a <= floor((b-1)/3)."""
    _check_reduced_coprime(a, b)
    return 0 <= b - 3 * a - 1 <= b - 2


def predicate_minus(a: int, b: int) -> bool:
    """True iff S(1, a, b) = -b/2; equivalently a >= ceil((2b+1)/3)."""
    _check_reduced_coprime(a, b)
    return 0 <= 3 * b - 3 * a - 1 <= b - 2
