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
match. It reads `core._kernel` and `core._tag` once per call, and the closed
forms read `totient._mobius_count` at each call: this module binds no other
module's private name, so a patch of the defining module reaches the sweep.

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
maps a function over shares of distinct int items, one share per process,
forking all but the first, and returns the results in item order.
`sweep_range` deals its moduli into shares in snake order, so that each
share holds about as many coprime residues, and `verify.run_checks` hands it
shares of check positions. No job that `_fan_out` forks fans out again (the
battery's sweep check sweeps its moduli in its own share), so a run forks at
most one level deep, and killing its children stops every process it
started. The calling process never touches a signal's disposition: each
child watches its caller and leaves within _WATCH_S of it, however the
caller ends, SIGKILL included.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from itertools import compress

from . import core, totient
from .errors import InvariantError, PreconditionError, check_int, shown

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
            raise InvariantError(f"consistent flag wrong for b={shown(self.b)}")


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
        raise ValueError(
            f"a sweep classifies at most {_SWEEP_MAX} residues, got {shown(count)} for b in [{shown(b_lo)}, {shown(b_hi)}]"
        )


def _check_sweep_args(b_lo: int, b_hi: int, workers: int) -> None:
    """Every check sweep_range makes before the work; `cotsum sweep` makes them before it opens --out."""
    check_int("modulus b_lo", b_lo, 2)
    check_int("modulus b_hi", b_hi, b_lo)
    check_int("workers", workers, 1)
    _check_residues(b_lo, b_hi)


def closed_form_counts(b: int) -> tuple[int, int, int]:
    """(zero, plus, minus) counts predicted by the interval picture.

    Each is the inclusion-exclusion kernel over its interval, looked up on
    `totient` at each call, so a patched kernel is the one that counts. No
    interval is emptier than lo = hi + 1 (b = 2's minus interval is [2, 1]),
    and there every divisor's term is 0.
    """
    check_int("modulus b", b, 2)
    if b == 3:
        raise PreconditionError("the interval picture excludes b = 3")
    zero = totient._mobius_count(b, (b + 3) // 3, 1, (2 * b - 1) // 3, 1, 1)  # ceil((b+1)/3) = (b+3)//3
    plus = totient._mobius_count(b, 1, 1, (b - 1) // 3, 1, 1)
    minus = totient._mobius_count(b, (2 * b + 3) // 3, 1, b - 1, 1, 1)  # ceil((2b+1)/3) = (2b+3)//3
    return zero, plus, minus


def sweep(b: int) -> SweepReport:
    """Classify every coprime a in [1, b-1] and compare with the closed forms.

    b - 1 may be at most _SWEEP_MAX (5 * 10^7); a larger b raises ValueError.
    """
    check_int("modulus b", b, 2)
    if b == 3:
        raise PreconditionError("b = 3 has no three-way split to sweep")
    _check_residues(b, b)
    kernel, tag = core._kernel, core._tag  # read at each call, so a patch of core reaches the sweep
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
                # unpacked into names, not tag(*kernel(a, b), b): a star-call
                # builds an argument tuple on every residue
                num, den = kernel(a, b)
                counts[tag(num, den, b)] += 1
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
    value. A modulus b costs one kernel call per coprime residue, phi(b) of
    them, so the moduli are dealt in snake order into k = _processes(workers)
    shares, or one per modulus if there are fewer: of each run of 2k moduli,
    share i takes the i-th and the (2k-1-i)-th, and sweeps its moduli in
    order. Over 2..1500 the two shares at k = 2 hold 342,273 and 341,906
    coprime residues, where round-robin would give one of them every odd
    modulus, 456,087. _fan_out runs them, the first in this process.
    """
    _check_sweep_args(b_lo, b_hi, workers)
    moduli = [b for b in range(b_lo, b_hi + 1) if b != 3]
    k = min(_processes(workers), len(moduli))
    return _fan_out(sweep, [sorted(moduli[i :: 2 * k] + moduli[2 * k - 1 - i :: 2 * k]) for i in range(k)])


def _processes(workers: int) -> int:
    """How many processes a run of workers may use at once, this one included.

    min(workers, os.cpu_count()), where an unknown CPU count counts as one,
    so a one-CPU host forks nothing whatever workers is. A run with fewer
    shares of work than that uses one process per share.
    """
    return min(workers, os.cpu_count() or 1)


# How often a forked child asks whether its caller still lives. Over 10 runs,
# 5 with SIGTERM and 5 with SIGKILL to the caller, a sleeping child was gone
# or a zombie 0-51 ms after its caller was reaped (shared 2-vCPU x86-64 host,
# Python 3.11). A poll is one getppid call in a thread that otherwise sleeps.
_WATCH_S = 0.05


def _watch(parent: int) -> None:
    """Poll os.getppid() every _WATCH_S seconds and leave by os._exit once it is not parent.

    A forked child runs it in a daemon thread: an orphan is adopted by
    another process, so its parent pid changes the moment its caller ends.
    """
    while os.getppid() == parent:
        time.sleep(_WATCH_S)
    os._exit(1)


def _fan_out(fn: Callable[[int], object], shares: list[list[int]]) -> list:
    """[fn(x) for x in sorted(every item of shares)], for distinct int items.

    shares[0] runs in this process and each other share in a forked child;
    whichever share an item falls in, its result comes back in item order.
    Callers pass at most one share per process that _processes allows, so a
    single share forks nothing, and no shares give []. Where os.fork does not
    exist, every item forms one share, which runs here. Each child is made by
    os.fork() itself, whatever the platform's default start method, so it
    inherits this process as it is, monkeypatches included. This process
    starts no thread, and each child starts only its watch and never forks,
    so no fork happens with a second thread alive. A child's exception is
    raised here again with its type and args, and a child that dies without
    a result raises RuntimeError (see _fork). If this process's share or a
    child raises, KeyboardInterrupt included, the children still running are
    killed and reaped first. This process's signal dispositions are left as
    they are, and the children inherit them: a signal that ends this process,
    SIGKILL included, ends each child through its watch within _WATCH_S, and
    one that it ignores, nohup's SIGHUP say, the children ignore too. A
    forked share must not call _fan_out with more than one share, so the
    children are the run's only processes and that kill stops all of them.
    """
    if not hasattr(os, "fork"):
        shares = [sum(shares, [])]
    pending = []
    try:
        for share in shares[1:]:
            pending.append(_fork(fn, share))
        ran = [fn(x) for share in shares[:1] for x in share]
        while pending:  # popped first: a finish that raises has reaped its child
            ran += pending.pop(0)()
    except BaseException:
        for finish in pending:
            finish(kill=True)
        raise
    # items are distinct, so no two results are compared
    return [result for _, result in sorted(zip(sum(shares, []), ran))]


def _fork(fn: Callable[[int], object], share: list[int]) -> Callable[..., object]:
    """Map fn over share in an os.fork() child and return `finish`, which waits for the list.

    The child starts _watch on this process's pid, read before the fork, so
    a caller that ends while os.fork() runs is seen too. It keeps the
    caller's signal dispositions, writes one pickled reply into a pipe,
    (True, results) or (False, exception), and leaves through os._exit, so
    it never returns into its caller. A reply that pickle cannot carry there
    and back goes as a RuntimeError naming its exception, or its list of
    results, by type and message. So a child that leaves the pipe empty has
    died, and finish() raises RuntimeError with its wait status. finish()
    reads the pipe to EOF, since a result may outgrow the pipe's buffer, then
    kills and reaps the child: one that has written its reply has nothing
    left to do, and one whose read was cut short, by a KeyboardInterrupt say,
    must not run on. finish(kill=True) kills and reaps it without a read.
    """
    import pickle

    parent = os.getpid()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            threading.Thread(target=_watch, args=(parent,), daemon=True).start()
            os.close(read)
            try:
                ok, value = True, [fn(x) for x in share]
            except BaseException as exc:
                ok, value = False, exc
            try:  # a reply that would not arrive as itself arrives by name
                data = pickle.dumps((ok, value))
                pickle.loads(data)
            except Exception:
                data = pickle.dumps((False, RuntimeError(f"a forked share {'returned' if ok else 'raised'} {type(value).__name__}: {value}")))
            with open(write, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write)

    def finish(kill: bool = False):
        try:
            with open(read, "rb") as pipe:
                if kill:
                    return None
                data = pipe.read()
        finally:
            os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
        if not data:
            raise RuntimeError(f"a forked share ended without a result (wait status {status})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    return finish
