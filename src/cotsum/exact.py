"""Exact fractional parts and the scaled boundary count.

All arithmetic here is on Python ints and `fractions.Fraction`, so values are
exact at any size. The two primitives everything else reduces to:

  frac_part(n, a, b)          {n*a/b}, an exact rational in [0, 1)
  boundary_count(n, a, b, k)  b times the number of multiples of b in the
                              half-open integer window (n*a, n*a + k]

The shift rule ties them together: {(n*a+k)/b} = {n*a/b} + k/b - E/b where E
is the boundary count. `shifted_frac_part` computes the left side through the
right side; verification code compares it against the direct definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError, check_int

__all__ = [
    "BoundaryCount",
    "frac_part",
    "boundary_count",
    "shifted_frac_part",
]


def _check_window(n: int, a: int, b: int, k: int) -> None:
    """The argument checks of a window (n*a, n*a + k] modulo b."""
    check_int("n", n, 1)
    check_int("a", a, 1)
    check_int("modulus b", b, 2)
    check_int("window length k", k, 0)


@dataclass(frozen=True)
class BoundaryCount:
    """b * #(multiples of b in the window (n*a, n*a + k])."""

    n: int
    a: int
    b: int
    k: int
    value: int

    def __post_init__(self) -> None:
        # value is b times a count, so it is a non-negative multiple of b
        if self.value < 0 or self.value % self.b != 0:
            raise InvariantError(f"boundary count {self.value} is not a non-negative multiple of {self.b}")
        if self.k == 0 and self.value != 0:
            raise InvariantError("empty window must have count 0")
        # a window shorter than b holds at most one multiple of b
        if self.k <= self.b - 1 and self.value not in (0, self.b):
            raise InvariantError(f"window of length {self.k} < b cannot hold count {self.value // self.b}")

    @property
    def multiples(self) -> int:
        """The raw count, without the factor of b."""
        return self.value // self.b


def frac_part(n: int, a: int, b: int) -> Fraction:
    """Fractional part {n*a/b} as an exact Fraction in [0, 1)."""
    check_int("n", n, 1)
    check_int("a", a, 1)
    check_int("modulus b", b, 2)
    return Fraction(n * a % b, b)


def boundary_count(n: int, a: int, b: int, k: int) -> BoundaryCount:
    """Scaled count of multiples of b in (n*a, n*a + k].

    Closed form: b * (floor((n*a + k)/b) - floor(n*a/b)). Equals the lambda
    scan over the window, and for 0 <= k <= b-1 the count is 0 or 1.
    """
    _check_window(n, a, b, k)
    return BoundaryCount(n=n, a=a, b=b, k=k, value=_boundary_value(n * a, b, k))


def _boundary_value(na: int, b: int, k: int) -> int:
    """b * (floor((na + k)/b) - floor(na/b)) on plain ints, unchecked."""
    return b * ((na + k) // b - na // b)


def shifted_frac_part(n: int, a: int, b: int, k: int) -> Fraction:
    """{(n*a + k)/b} via the shift rule, not via direct reduction.

    Exists so the rule x_{n,k} = x_n + k/b - E(n,k)/b can be checked against
    frac_part(1, n*a + k, b) computed independently. On plain ints the rule
    reads ((n*a mod b) + k - E)/b, with E from the same helper as
    boundary_count; one Fraction is built, at the edge.
    """
    _check_window(n, a, b, k)
    na = n * a
    return Fraction(na % b + k - _boundary_value(na, b, k), b)
