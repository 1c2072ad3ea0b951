"""How S(1, a, b) distributes over the coprime residues a of a fixed b.

For b != 3 every coprime a gives 0, +b/2 or -b/2, and each outcome occupies a
contiguous run of the a-line:

    +b/2  for a in [1, floor((b-1)/3)]
    0     for a in [ceil((b+1)/3), floor((2b-1)/3)]
    -b/2  for a in [ceil((2b+1)/3), b-1]

(the gaps at a = b/3 and a = 2b/3 are never coprime to b). The closed forms
are the coprime counts of those three intervals, each an inclusion-exclusion
count over the squarefree divisors of b (`phi_range_mobius`). A sweep
evaluates S(1, a, b) for every coprime a by the integer kernel of `core`,
tallies the observed tags against the closed forms and reports whether they
match. The two sides share no code path: one scans residues with gcd, the
other never looks at a single residue.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd

from .core import _kernel, _tag
from .errors import PreconditionError, check_int
from .totient import RangeBound, euler_phi, phi_range_mobius

__all__ = ["SweepReport", "closed_form_counts", "sweep", "sweep_range"]


@dataclass(frozen=True)
class SweepReport:
    b: int
    phi_b: int
    count_zero: int
    count_plus: int
    count_minus: int
    closed_zero: int
    closed_plus: int
    closed_minus: int
    consistent: bool

    def __post_init__(self) -> None:
        matches = (
            self.count_zero == self.closed_zero
            and self.count_plus == self.closed_plus
            and self.count_minus == self.closed_minus
        )
        if self.consistent != matches:
            raise ValueError(f"consistent flag wrong for b={self.b}")


# A sweep classifies every residue a in [1, b-1] of each modulus, 0.35-0.6 us
# each: sweep(100003) took 0.044-0.085 s, sweep_range(2, 3000) 1.6-2.5 s and
# sweep_range(2, 10000), 5 * 10^7 residues, 27.6 s (shared 2-vCPU x86-64
# host, Python 3.11). So sweep and sweep_range refuse more than _SWEEP_MAX
# residues in all, 15-30 s of work, before any is classified;
# sweep_range(2, 5000) holds 12.5 M of them.
_SWEEP_MAX = 5 * 10**7


def _check_residues(b_lo: int, b_hi: int) -> None:
    # sum of b - 1 over b in [b_lo, b_hi], less the 2 residues of the
    # skipped b = 3, in closed form: no modulus is visited
    count = (b_hi - b_lo + 1) * (b_lo + b_hi - 2) // 2 - (2 if b_lo <= 3 <= b_hi else 0)
    if count > _SWEEP_MAX:
        raise ValueError(f"a sweep classifies at most {_SWEEP_MAX} residues, got {count} for b in [{b_lo}, {b_hi}]")


def _check_sweep_args(b_lo: int, b_hi: int, workers: int) -> None:
    """Every check sweep_range makes before the work; `cotsum sweep` makes them before it opens --out."""
    check_int("modulus b_lo", b_lo, 2)
    check_int("modulus b_hi", b_hi, b_lo)
    check_int("workers", workers, 1)
    _check_residues(b_lo, b_hi)


def _interval_phi(b: int, lo: int, hi: int) -> int:
    if lo > hi:
        return 0
    return phi_range_mobius(b, RangeBound(lo, hi))


def closed_form_counts(b: int) -> tuple[int, int, int]:
    """(zero, plus, minus) counts predicted by the interval picture."""
    check_int("modulus b", b, 2)
    if b == 3:
        raise PreconditionError("the interval picture excludes b = 3")
    zero = _interval_phi(b, (b + 3) // 3, (2 * b - 1) // 3)  # ceil((b+1)/3) = (b+3)//3
    plus = _interval_phi(b, 1, (b - 1) // 3)
    minus = _interval_phi(b, (2 * b + 3) // 3, b - 1)  # ceil((2b+1)/3) = (2b+3)//3
    return zero, plus, minus


def sweep(b: int) -> SweepReport:
    """Classify every coprime a in [1, b-1] and compare with the closed forms.

    b - 1 may be at most _SWEEP_MAX (5 * 10^7); a larger b raises ValueError.
    """
    check_int("modulus b", b, 2)
    if b == 3:
        raise PreconditionError("b = 3 has no three-way split to sweep")
    _check_residues(b, b)
    counts = [0, 0, 0, 0]  # indexed by core._tag: zero, plus, minus, other
    for a in range(1, b):
        if gcd(a, b) == 1:
            # unpacked into names, not _tag(*_kernel(a, b), b): a star-call
            # builds an argument tuple on every residue
            num, den = _kernel(a, b)
            counts[_tag(num, den, b)] += 1
    zero, plus, minus = closed_form_counts(b)
    observed = (counts[0], counts[1], counts[2])
    # a stray OTHER tag cannot hide: the closed forms partition phi(b), so any
    # OTHER leaves the observed triple short of them
    consistent = observed == (zero, plus, minus)
    return SweepReport(
        b=b,
        phi_b=euler_phi(b),
        count_zero=observed[0],
        count_plus=observed[1],
        count_minus=observed[2],
        closed_zero=zero,
        closed_plus=plus,
        closed_minus=minus,
        consistent=consistent,
    )


def sweep_range(b_lo: int, b_hi: int, workers: int = 1) -> list[SweepReport]:
    """Sweep every b in [b_lo, b_hi] except 3, in order.

    The range may hold at most _SWEEP_MAX (5 * 10^7) residues in all, the
    sum of b - 1 over its moduli; a larger one raises ValueError up front.

    workers only schedules the work: a pool starts at most
    min(workers, os.cpu_count(), number of moduli) processes, and a pool of
    one, or a range of fewer than 4 moduli, runs in this process instead. The
    rows are the same for every workers.
    """
    _check_sweep_args(b_lo, b_hi, workers)
    moduli = [b for b in range(b_lo, b_hi + 1) if b != 3]
    processes = min(workers, os.cpu_count() or 1, len(moduli))
    if processes == 1 or len(moduli) < 4:
        return [sweep(b) for b in moduli]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(moduli) // (processes * 4))
    # a fork-context pool starts all max_workers processes at its first submit
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(sweep, moduli, chunksize=chunk))
