"""How S(1, a, b) distributes over the coprime residues a of a fixed b.

For b != 3 every coprime a gives 0, +b/2 or -b/2, and each outcome occupies a
contiguous run of the a-line:

    +b/2  for a in [1, floor((b-1)/3)]
    0     for a in [ceil((b+1)/3), floor((2b-1)/3)]
    -b/2  for a in [ceil((2b+1)/3), b-1]

(the gaps at a = b/3 and a = 2b/3 are never coprime to b). The closed forms
are the coprime counts of those three intervals, each an inclusion-exclusion
count over the squarefree divisors of b (`totient._mobius_count`). A sweep
evaluates S(1, a, b) for every coprime a by the integer kernel of `core`,
tallies the observed tags against the closed forms and reports whether they
match.

The sweep finds its coprime residues with a sieve, not a gcd per residue. It
walks a = 1..b-1 in blocks of _BLOCK residues, each with a bytearray of live
flags, and clears the multiples of every prime divisor of b met so far. A
live a > 1 that divides b has no smaller prime factor in common with b, so it
is the next prime divisor of b: it is recorded, its multiples are cleared and
it is skipped. Every other live a is coprime to b. Memory stays at one block
whatever b is.

The two sides share no code path: the residue scan finds b's prime divisors
itself and calls neither gcd nor `totient`, while the closed forms start from
`totient`'s factorization and never look at a single residue.

`workers` means one thing wherever it is taken. `_processes` decides how many
processes a run may use at once, the calling one included, and `_fan_out`
runs one job per process, forking all but the first. `sweep_range` fans out
shares of its moduli through them, and `verify.run_checks` shares of its
checks. No job that `_fan_out` forks fans out again (the battery's sweep
check sweeps its moduli in its own share), so a run forks at most one level
deep, and killing its children stops every process it started.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass
from itertools import compress

from . import totient
from .core import _kernel, _tag
from .errors import InvariantError, PreconditionError, check_int

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
            raise InvariantError(f"consistent flag wrong for b={self.b}")


# A sweep sieves every residue a in [1, b-1] of each modulus and classifies
# the coprime ones, 0.25-0.35 us a residue in all: sweep(100003) took
# 0.034-0.055 s, sweep_range(2, 3000) 1.2-1.5 s and sweep_range(2, 10000),
# 5 * 10^7 residues, 12.9-14.7 s (shared 2-vCPU x86-64 host, Python 3.11).
# So sweep and sweep_range refuse more than _SWEEP_MAX residues in all, 10-20 s
# of work, before any is classified; sweep_range(2, 5000) holds 12.5 M of them.
_SWEEP_MAX = 5 * 10**7


# The sweep's sieve block, in residues: its live flags take one byte each, so
# a sweep of any b holds one 32 KiB block of them at a time.
_BLOCK = 1 << 15


def _clear(live: bytearray, start: int, step: int) -> None:
    """Clear live[start::step]: the multiples of step from the first at start."""
    live[start::step] = bytes(len(range(start, len(live), step)))


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
    # the kernel is looked up on `totient` at each call, so a patched one is
    # the one that counts
    return totient._mobius_count(b, lo, 1, hi, 1, 1) if lo <= hi else 0


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
    primes: list[int] = []  # the prime divisors of b met so far
    for lo in range(1, b, _BLOCK):
        hi = min(lo + _BLOCK, b)
        live = bytearray(b"\x01") * (hi - lo)  # live[i] stands for a = lo + i
        for p in primes:
            _clear(live, -lo % p, p)
        # compress reads each flag as it reaches it, so a prime found in this
        # block clears its later multiples before they come up
        for a in compress(range(lo, hi), live):
            if b % a or a == 1:
                # unpacked into names, not _tag(*_kernel(a, b), b): a star-call
                # builds an argument tuple on every residue
                num, den = _kernel(a, b)
                counts[_tag(num, den, b)] += 1
            else:  # a live divisor of b: its next prime divisor
                primes.append(a)
                _clear(live, a - lo, a)
    zero, plus, minus = closed_form_counts(b)
    observed = (counts[0], counts[1], counts[2])
    # a stray OTHER tag cannot hide: the closed forms partition phi(b), so any
    # OTHER leaves the observed triple short of them
    consistent = observed == (zero, plus, minus)
    return SweepReport(
        b=b,
        phi_b=totient.euler_phi(b),
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

    workers only schedules the work, and the rows are the same for every
    value: the moduli are cut into _processes(workers) contiguous shares of
    about equal work, or one per modulus if there are fewer, which _fan_out
    runs, the first in this process.
    """
    _check_sweep_args(b_lo, b_hi, workers)
    moduli = [b for b in range(b_lo, b_hi + 1) if b != 3]
    shares = _shares(moduli, min(_processes(workers), len(moduli)))
    swept = _fan_out([lambda share=share: [sweep(b) for b in share] for share in shares])
    return [rep for rows in swept for rep in rows]


def _shares(moduli: list[int], count: int) -> list[list[int]]:
    """moduli cut into count contiguous, non-empty shares of about equal sum.

    A modulus b costs about b (its b - 1 residues), so equal-count shares
    would leave the last one the most work.
    """
    total, running, start, shares = sum(moduli), 0, 0, []
    for i, b in enumerate(moduli):
        running += b
        later = count - len(shares) - 1  # shares still to open after this one
        # close the share at its part of the total, or when each later share
        # has only one modulus left
        if later and (running * count >= (len(shares) + 1) * total or len(moduli) - i - 1 == later):
            shares.append(moduli[start:i + 1])
            start = i + 1
    shares.append(moduli[start:])
    return shares


def _processes(workers: int) -> int:
    """How many processes a run of workers may use at once, this one included.

    min(workers, os.cpu_count()), where an unknown CPU count counts as one,
    so a one-CPU host forks nothing whatever workers is. A run with fewer
    shares of work than that uses one process per share.
    """
    return min(workers, os.cpu_count() or 1)


def _fan_out(jobs: list[Callable[[], object]]) -> list:
    """[job() for job in jobs]: jobs[0] runs in this process, each other job in a forked child.

    Callers pass at most one job per process that _processes allows, so a
    single job runs here and nothing forks. Each child is made by os.fork()
    itself, whatever the platform's default start method, so it inherits
    this process as it is, monkeypatches included; it holds only the forking
    thread, which is safe because cotsum starts no other. Where os.fork does
    not exist every job runs here, in order. A child's exception is raised
    here again with its type and args; a child that dies without a result
    raises RuntimeError. If this process's job or a child raises, the
    children still running are killed and reaped first. A forked job must
    not call _fan_out with more than one job, so the children are the
    run's only processes and that kill stops all of them.
    """
    if len(jobs) == 1 or not hasattr(os, "fork"):
        return [job() for job in jobs]
    pending = []
    try:
        for job in jobs[1:]:
            pending.append(_fork(job))
        results = [jobs[0]()]
        while pending:  # popped first: a finish that raises has reaped its child
            results.append(pending.pop(0)())
    except BaseException:
        for finish in pending:
            finish(kill=True)
        raise
    return results


def _fork(job: Callable[[], object]) -> Callable[..., object]:
    """Start job() in an os.fork() child and return `finish`, which waits for its result.

    The child pickles (True, result) or (False, exception) into a pipe and
    leaves through os._exit, so it never returns into its caller. finish()
    reads the pipe to EOF before it reaps the child, since a result may
    outgrow the pipe's buffer; finish(kill=True) kills and reaps it instead.
    """
    import pickle
    import signal

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1  # a result that cannot be pickled leaves the pipe empty
        try:
            os.close(read)
            try:
                reply = (True, job())
            except BaseException as exc:
                reply = (False, exc)
            data = pickle.dumps(reply)
            with open(write, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write)

    def finish(kill: bool = False):
        if kill:
            os.kill(pid, signal.SIGKILL)
            os.close(read)
            os.waitpid(pid, 0)
            return None
        with open(read, "rb") as pipe:
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        if not data:
            raise RuntimeError(f"a forked share ended without a result (wait status {status})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    return finish
