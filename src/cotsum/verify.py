"""Identity battery: re-derive every library-level claim at configurable bounds.

`run_checks` runs a fixed list of checks, each exercising one documented
identity or invariant over an exhaustive or seeded-random domain, and returns
a plain-dict report. The report is deterministic for a given (max_b, max_n,
seed): all randomness comes from one `random.Random(seed)` consumed in check
order (each draw as its `randint` would make it, see `_randint`), and nothing
time- or host-dependent is recorded.

A check is a generator over the run's `_Ctx` that yields once per case and
raises `InvariantError(detail, counterexample)` at its first failure, the
counterexample a dict of the case's values. `@_check(module, name, pass
detail)`, with `seeded=True` if it draws from `ctx.rng`, appends one `_Check`
record of it to `_CHECKS`, and calling that record runs the check: it counts
the yields into a `CheckResult`. Registration order is report order. The
record makes a failing `CheckResult` of a check's own failure, a `Fraction`
value in its counterexample written as its str, and of a library result's
failed self-check, an `InvariantError` whose only arg is its message; any
other error ends the run.

Beyond pass/fail checks the report carries two more sections:

  expected_discrepancies  the wrong-variant functions shipped on purpose,
                          re-run against pinned values so a silent "fix"
                          (or a regression in the correct path) trips the gate;
                          a library self-check that breaks among them is one
                          failing entry carrying its message
  empirical               observed extremes with no exact theory attached,
                          currently the largest main-term error seen and how
                          much of its proven bound it used
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import gcd

from . import core, distribution, exact, numeric, totient
from .errors import InvariantError, check_int
from .totient import RangeBound

__all__ = ["CheckResult", "report_text", "run_checks"]


@dataclass
class CheckResult:
    module: str
    name: str
    passed: bool
    cases: int
    detail: str = ""
    counterexample: dict | None = None


@dataclass
class _Ctx:
    max_b: int
    max_n: int
    rng: random.Random
    empirical: dict = field(default_factory=dict)


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """rng.randint(lo, hi): the same value from the same draws of the stream.

    CPython's randint goes through randrange and _randbelow, whose argument
    handling made a draw cost 0.31-0.34 us against 0.18-0.19 us here
    (Python 3.11), over the battery's 1.44 M draws; this is its rejection
    loop alone. tests/test_verify.py pins the two against each other, values
    and generator state, so a CPython that draws differently fails there
    instead of silently changing the report.
    """
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


@dataclass(frozen=True)
class _Check:
    """One check of the battery; calling it on a ctx runs it into a CheckResult.

    detail is the pass detail, {max_b} in it read from ctx. seeded declares
    that gen draws from ctx.rng; tests/test_verify.py runs every other check
    with a stream that refuses to be drawn from.
    """

    module: str
    name: str
    detail: str
    gen: Callable[[_Ctx], Iterator[None]]
    seeded: bool

    def __call__(self, ctx: _Ctx) -> CheckResult:
        cases = 0
        try:
            for _ in self.gen(ctx):
                cases += 1
        except InvariantError as fail:
            # a check's own failure is (detail, counterexample), and a library
            # self-check's only arg is its message
            detail, *ce = fail.args
            safe = [{k: str(v) if isinstance(v, Fraction) else v for k, v in c.items()} for c in ce]
            return CheckResult(self.module, self.name, False, cases, detail, *safe)
        return CheckResult(self.module, self.name, True, cases, self.detail.format(max_b=ctx.max_b))


# run_checks calls each entry as entry(ctx) and reads .seeded only when it
# cuts two shares, so a plain callable may stand in for a record at
# workers=1: bench/child.py rebinds _CHECKS to timing functions, and
# _expected_discrepancies to a timing wrapper, and runs the battery there.
_CHECKS: list[_Check] = []


def _check(module: str, name: str, detail: str, seeded: bool = False):
    """Append a _Check of the generator below to _CHECKS and return the generator."""

    def register(gen: Callable[[_Ctx], Iterator[None]]):
        _CHECKS.append(_Check(module, name, detail, gen, seeded))
        return gen

    return register


# ---------------------------------------------------------------- exact


@_check("exact", "shift-rule-vs-direct-reduction",
        "residue-exhaustive to b<=50 with k<=2b, literal (n,a) sweep to b<=12")
def _check_shift_rule(ctx: _Ctx) -> Iterator[None]:
    # the rule sees n*a only through its residue, so residues exhaust b <= 50
    for b in range(2, min(ctx.max_b, 50) + 1):
        for r in range(b):
            a = r if r else b
            for k in range(2 * b + 1):
                got = exact.shifted_frac_part(1, a, b, k)
                want = exact.frac_part(1, a + k, b)
                yield
                if got != want:
                    raise InvariantError("shift rule broke", dict(b=b, a=a, k=k, got=got, want=want))
    # literal n, a sweep at small b
    for b in range(2, min(ctx.max_b, 12) + 1):
        for n in range(1, 3 * b + 1):
            for a in range(1, 3 * b + 1):
                for k in (0, 1, b - 1, b, 2 * b):
                    got = exact.shifted_frac_part(n, a, b, k)
                    want = exact.frac_part(1, n * a + k, b)
                    yield
                    if got != want:
                        raise InvariantError("shift rule broke", dict(b=b, n=n, a=a, k=k, got=got, want=want))


@_check("exact", "unit-shift-rules", "all a <= 3b for b <= 50")
def _check_unit_shifts(ctx: _Ctx) -> Iterator[None]:
    for b in range(2, min(ctx.max_b, 50) + 1):
        for a in range(2, 3 * b + 1):
            if a % b:
                yield
                if exact.frac_part(1, a, b) != exact.frac_part(1, a - 1, b) + Fraction(1, b):
                    raise InvariantError("step-by-1/b rule broke", dict(b=b, a=a))
            elif a >= 3:
                yield
                if exact.frac_part(1, a - 2, b) != 1 - Fraction(2, b):
                    raise InvariantError("two-below-a-multiple rule broke", dict(b=b, a=a))


@_check("exact", "boundary-count-window-steps", "monotone step and short-window checks to b<=40, k<=2b+1")
def _check_boundary_steps(ctx: _Ctx) -> Iterator[None]:
    for b in range(2, min(ctx.max_b, 40) + 1):
        pairs = {(1, 1), (1, 2), (2, 3), (3, b), (1, max(1, b - 1)), (b, b + 1), (2, 2 * b + 1)}
        for n, a in sorted(pairs):
            prev = exact.boundary_count(n, a, b, 0).value  # construction checks each count alone
            yield
            for k in range(1, 2 * b + 2):
                v = exact.boundary_count(n, a, b, k).value
                yield
                if v - prev not in (0, b):
                    raise InvariantError("window growth must step by 0 or b", dict(b=b, n=n, a=a, k=k, prev=prev, value=v))
                prev = v


# ---------------------------------------------------------------- core

_KNOWN_VALUES = (
    (1, 1, 2, Fraction(0)),
    (1, 1, 3, Fraction(3, 4)),
    (1, 2, 3, Fraction(-3, 4)),
    (1, 1, 4, Fraction(2)),
    (1, 3, 4, Fraction(-2)),
    (2, 1, 4, Fraction(0)),
    (1, 1, 5, Fraction(5, 2)),
    (1, 2, 5, Fraction(0)),
    (1, 1, 6, Fraction(3)),
    (1, 2, 6, Fraction(3, 2)),
)


@_check("core", "known-values", f"{len(_KNOWN_VALUES)} hand-checked values, exact and float")
def _check_known_values(ctx: _Ctx) -> Iterator[None]:
    for n, a, b, want in _KNOWN_VALUES:
        got = core.eval_exact(n, a, b)
        yield
        if got != want:
            raise InvariantError("hand-checked value moved", dict(n=n, a=a, b=b, got=got, want=want))
        approx = numeric.eval_float(n, a, b)
        yield
        if not numeric.agrees(want, approx, b):
            raise InvariantError("float oracle disagrees on a known value", dict(n=n, a=a, b=b, float_value=approx.value))


@_check("core", "trichotomy-and-predicates", "every coprime a for every b <= {max_b}, b != 3")
def _check_trichotomy(ctx: _Ctx) -> Iterator[None]:
    for b in range(2, ctx.max_b + 1):
        if b == 3:
            continue
        half = Fraction(b, 2)
        allowed = (0, half, -half)
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            v = core.classify(a, b, strict=True)
            preds = (
                core.predicate_zero(a, b),
                core.predicate_plus(a, b),
                core.predicate_minus(a, b),
            )
            yield
            if sum(preds) != 1:
                raise InvariantError("predicates must pick exactly one class", dict(a=a, b=b, preds=list(preds)))
            want = core.CotTag.ZERO if preds[0] else core.CotTag.PLUS_HALF_B if preds[1] else core.CotTag.MINUS_HALF_B
            if v.tag is not want or v.exact not in allowed:
                raise InvariantError("classification left the three-value set", dict(a=a, b=b, tag=v.tag.value, value=v.exact))


@_check("core", "magnitude-bound", "n <= 2, a <= 2b, b <= 200, whenever b does not divide 3na")
def _check_magnitude_bound(ctx: _Ctx) -> Iterator[None]:
    for b in range(2, min(ctx.max_b, 200) + 1):
        for n in (1, 2):
            for a in range(1, 2 * b + 1):
                if (3 * n * a) % b == 0:
                    continue
                s = core.eval_exact(n, a, b)
                yield
                if not abs(s) < b:
                    raise InvariantError("strict |S| < b bound broke", dict(n=n, a=a, b=b, value=s))


@_check("core", "periodicity-in-first-argument", "a <= 3b vs a mod b, n <= 3, b <= 300")
def _check_periodicity(ctx: _Ctx) -> Iterator[None]:
    for b in range(2, min(ctx.max_b, 300) + 1):
        for n in (1, 2, 3):
            by_residue: dict[int, Fraction] = {}
            for a in range(1, 3 * b + 1):
                r = a % b
                if r == 0:
                    continue
                if r not in by_residue:
                    by_residue[r] = core.eval_exact(n, r, b)
                yield
                if core.eval_exact(n, a, b) != by_residue[r]:
                    raise InvariantError("value must only depend on a mod b", dict(n=n, a=a, b=b))


@_check("core", "even-modulus-integrality", "coprime a <= 3b for even b <= 300")
def _check_even_integrality(ctx: _Ctx) -> Iterator[None]:
    for b in range(2, min(ctx.max_b, 300) + 1, 2):
        for a in range(1, 3 * b + 1):
            if gcd(a, b) != 1:
                continue
            s = core.eval_exact(1, a, b)
            yield
            if s.denominator != 1 or (2 * s) % b != 0:
                raise InvariantError("even b must give an integer with 2S divisible by b", dict(a=a, b=b, value=s))


@_check("core", "master-congruence-witness", "coprime a <= 3b, b <= 300 excluding 3")
def _check_master_congruence(ctx: _Ctx) -> Iterator[None]:
    for b in range(2, min(ctx.max_b, 300) + 1):
        if b == 3:
            continue
        for a in range(1, 3 * b + 1):
            if gcd(a, b) != 1:
                continue
            w = core.master_witness(a, b)  # construction checks k and re-balances the books
            yield
            if w.s != core.eval_exact(1, a, b):
                raise InvariantError("witness value diverged from evaluation", dict(a=a, b=b, witness=w.s))


# ---------------------------------------------------------------- numeric


@_check("numeric", "float-oracle-agreement", "n <= 3, a <= 3b, b <= 300 at tol(b) = 1e-9*b^2")
def _check_oracle_agreement(ctx: _Ctx) -> Iterator[None]:
    for b in range(2, min(ctx.max_b, 300) + 1):
        t = numeric.tol(b)
        memo: dict[int, tuple[float, float, float]] = {}  # r -> (exact as float, float value, abs_bound)
        for n in (1, 2, 3):
            for a in range(1, 3 * b + 1):
                r = n * a % b
                if r not in memo:
                    # both sides are functions of the residue alone, so one
                    # evaluation per residue covers every (n, a) mapping to it
                    res = numeric.eval_float(n, a, b)
                    memo[r] = (float(core.eval_exact(n, a, b)), res.value, res.abs_bound)
                ev, fv, bound = memo[r]
                yield
                if abs(ev - fv) > t:
                    raise InvariantError("float sum left tolerance", dict(n=n, a=a, b=b, exact=ev, float_value=fv, tolerance=t))
                if abs(fv) > bound:
                    raise InvariantError("reported abs_bound below the value", dict(n=n, a=a, b=b, float_value=fv, abs_bound=bound))


@_check("numeric", "vanishing-cosine-powers", "q <= 5, twenty seeded (n, a) draws per (b, q), b <= 300", seeded=True)
def _check_vanishing_cos(ctx: _Ctx) -> Iterator[None]:
    for b in range(2, min(ctx.max_b, 300) + 1):
        t = numeric.tol(b)
        for q in range(1, 6):
            for _ in range(20):
                n = _randint(ctx.rng, 1, 1000)
                a = _randint(ctx.rng, 1, 3 * b)
                res = numeric.cot_cos_power_sum(q, n, a, b)
                yield
                if abs(res.value) > t:
                    raise InvariantError("odd-times-even sum failed to cancel", dict(n=n, a=a, b=b, q=q, value=res.value))


@_check("numeric", "vanishing-sine-squares", "twenty seeded (n, a) draws per b <= 300", seeded=True)
def _check_vanishing_sin2(ctx: _Ctx) -> Iterator[None]:
    for b in range(2, min(ctx.max_b, 300) + 1):
        t = numeric.tol(b)
        for _ in range(20):
            n = _randint(ctx.rng, 1, 1000)
            a = _randint(ctx.rng, 1, 3 * b)
            res = numeric.cot_sin2_sum(n, a, b)
            yield
            if abs(res.value) > t:
                raise InvariantError("squared-sine sum failed to cancel", dict(n=n, a=a, b=b, value=res.value))


@_check("numeric", "sine-sum-fractional-part", "five seeded draws per b <= 300, b not dividing n*a", seeded=True)
def _check_sine_sum_frac(ctx: _Ctx) -> Iterator[None]:
    for b in range(2, min(ctx.max_b, 300) + 1):
        t = numeric.tol(b)
        for _ in range(5):
            n = _randint(ctx.rng, 1, 1000)
            if n % b == 0:
                n += 1  # keep some residue reachable
            a = _randint(ctx.rng, 1, 3 * b)
            if (n * a) % b == 0:  # then b cannot divide n*(a + 1), for it does not divide n
                a += 1
            res = numeric.frac_part_via_sine_sum(n, a, b)
            yield
            if abs(res.value - float(exact.frac_part(n, a, b))) > t:
                raise InvariantError("sine-sum route missed the fractional part", dict(n=n, a=a, b=b, value=res.value))


# ---------------------------------------------------------------- totient

_PROFILE_LIMIT = 10_000


@_check("totient", "profile-invariants",
        f"trial-division profiles vs an independent sieve, n <= {_PROFILE_LIMIT}")
def _check_profiles(ctx: _Ctx) -> Iterator[None]:
    spf = totient.spf_sieve(_PROFILE_LIMIT)
    for n in range(1, _PROFILE_LIMIT + 1):
        m, om, mob = n, 0, 1
        while m > 1:
            p = spf[m]
            om += 1
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            mob = 0 if e > 1 else -mob
        prof = totient.arithmetic_profile(n)  # construction validates mu-sum and 2^omega size
        yield
        if prof.omega != om or prof.mobius != mob:
            raise InvariantError("profile disagrees with sieve", dict(n=n, omega=prof.omega, mobius=prof.mobius, sieve_omega=om, sieve_mobius=mob))
        if sum(abs(mu) for _, mu in prof.squarefree_divisors) != 2**om:
            raise InvariantError("squarefree divisors must all carry mu = +-1", dict(n=n))


@_check("totient", "prefix-exhaustive-agreement",
        "every prefix bound x <= 3n for n <= 200, plus seeded telescoping draws", seeded=True)
def _check_prefix_exhaustive(ctx: _Ctx) -> Iterator[None]:
    for n in range(1, min(ctx.max_n, 200) + 1):
        if totient.legendre_phi(n, 0) != 0:
            raise InvariantError("prefix count at 0 must be 0", dict(n=n))
        running = 0
        for x in range(1, 3 * n + 1):
            if gcd(n, x) == 1:
                running += 1
            yield
            got = totient.legendre_phi(n, x)
            if got != running:
                raise InvariantError("prefix count diverged from the gcd scan", dict(n=n, x=x, got=got, want=running))
            if totient.phi_range_mobius(n, RangeBound(1, x)) != running:
                raise InvariantError("inclusion-exclusion diverged from the gcd scan", dict(n=n, x=x))
        # two-sided ranges telescope out of the prefixes just checked:
        # count[A, B] = prefix(B) - prefix(A-1), identically in the formulas
        for _ in range(5):
            a = _randint(ctx.rng, 1, 3 * n)
            b2 = _randint(ctx.rng, a, 3 * n)
            yield
            if totient.phi_range_mobius(n, RangeBound(a, b2)) != totient.legendre_phi(n, b2) - totient.legendre_phi(n, a - 1):
                raise InvariantError("two-sided count must telescope from prefixes", dict(n=n, lo=a, hi=b2))


@_check("totient", "random-rational-agreement",
        "200 seeded rational ranges (width <= 48) per n, plus 5 wide ranges per n", seeded=True)
def _check_random_rational(ctx: _Ctx) -> Iterator[None]:
    for n in range(1, min(ctx.max_n, 1000) + 1):
        for _ in range(200):
            lo_den = _randint(ctx.rng, 1, 8)
            w_den = _randint(ctx.rng, 1, 8)
            lo_num = _randint(ctx.rng, 1, 3 * n * lo_den)
            w_num = _randint(ctx.rng, 0, 48 * w_den)
            # hi = lo + w_num/w_den, built as one Fraction
            hi = Fraction(lo_num * w_den + w_num * lo_den, lo_den * w_den)
            bounds = RangeBound(Fraction(lo_num, lo_den), hi)
            yield
            direct, mobius = totient.phi_range_direct(n, bounds), totient.phi_range_mobius(n, bounds)
            if direct != mobius:
                raise InvariantError("gcd scan and inclusion-exclusion disagree", dict(n=n, lo=bounds.lo, hi=bounds.hi, direct=direct, mobius=mobius))
        # a few wide ranges, validated against prefixes instead of a long scan
        for _ in range(5):
            den = _randint(ctx.rng, 1, 8)
            lo_num = _randint(ctx.rng, den, 3 * n * den)
            bounds = RangeBound(Fraction(lo_num, den), Fraction(lo_num + _randint(ctx.rng, 0, 3 * n * den), den))
            span_lo, span_hi = bounds.integer_span()
            yield
            if span_lo > span_hi:
                if totient.phi_range_mobius(n, bounds) != 0:
                    raise InvariantError("empty span must count 0", dict(n=n, lo=bounds.lo, hi=bounds.hi))
            elif totient.phi_range_mobius(n, bounds) != totient.legendre_phi(n, span_hi) - totient.legendre_phi(n, span_lo - 1):
                raise InvariantError("wide range disagrees with prefix difference", dict(n=n, lo=bounds.lo, hi=bounds.hi))


@_check("totient", "prefix-decomposition", "100 seeded integer ranges per n <= 500, plus the frozen instance", seeded=True)
def _check_decomposition(ctx: _Ctx) -> Iterator[None]:
    yield
    dec = totient.phi_decomposition(12, 5, 17)
    if (dec.prefix_hi, dec.prefix_lo, dec.endpoint, dec.combined) != (6, 2, 1, 5):
        raise InvariantError("frozen worked instance moved", dict(got=[dec.prefix_hi, dec.prefix_lo, dec.endpoint, dec.combined]))
    for n in range(2, min(ctx.max_n, 500) + 1):
        for _ in range(100):
            lo = _randint(ctx.rng, 1, 3 * n)
            hi = _randint(ctx.rng, lo, lo + 3 * n)
            dec = totient.phi_decomposition(n, lo, hi)
            want = totient.phi_range_mobius(n, RangeBound(lo, hi))
            yield
            if dec.combined != want:
                raise InvariantError("prefix decomposition missed the range count", dict(n=n, lo=lo, hi=hi, combined=dec.combined, want=want))
            if hi - lo <= 64:
                yield
                if dec.combined != totient.phi_range_direct(n, RangeBound(lo, hi)):
                    raise InvariantError("prefix decomposition missed the direct scan", dict(n=n, lo=lo, hi=hi))


@_check("totient", "main-term-error-bound", "100 seeded integer ranges per n <= 2000 against |error| <= 2*2^omega", seeded=True)
def _check_approx_bound(ctx: _Ctx) -> Iterator[None]:
    worst_err = Fraction(0)  # rebuilt only when the maximum moves
    worst_err_at: dict | None = None
    worst_ratio = -1.0
    worst_ratio_at: dict | None = None
    for n in range(2, min(ctx.max_n, 2000) + 1):
        for _ in range(100):
            lo = _randint(ctx.rng, 1, 3 * n)
            hi = _randint(ctx.rng, lo, lo + 3 * n)
            ap = totient.phi_approx(n, lo, hi)  # construction enforces the bound
            yield
            # |error| compared by cross-multiplying; denominators are positive
            num, den = abs(ap.error.numerator), ap.error.denominator
            if num * worst_err.denominator > worst_err.numerator * den:
                worst_err = Fraction(num, den)
                worst_err_at = {"n": n, "lo": lo, "hi": hi, "bound": ap.bound}
            # normalize by 2^omega(n), half the proven bound, to see how much
            # slack the factor of 2 really leaves; num / den is float(|error|)
            ratio = num / den / (ap.bound // 2)
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst_ratio_at = {"n": n, "lo": lo, "hi": hi, "bound": ap.bound}
    ctx.empirical["main-term-error"] = {
        "max_abs_error": str(worst_err),
        "max_abs_error_at": worst_err_at,
        "max_error_over_2omega": worst_ratio,
        "max_error_over_2omega_at": worst_ratio_at,
    }


@_check("totient", "gcd-partition-telescopes", "50 seeded integer ranges per n <= 500", seeded=True)
def _check_partition(ctx: _Ctx) -> Iterator[None]:
    for n in range(1, min(ctx.max_n, 500) + 1):
        for _ in range(50):
            lo = _randint(ctx.rng, 1, 3 * n)
            hi = _randint(ctx.rng, lo, lo + 3 * n)
            yield
            got = totient.divisor_partition_identity(n, lo, hi)  # which checks that it telescopes
            if got != hi - lo + 1:
                raise InvariantError("partition total moved", dict(n=n, lo=lo, hi=hi, got=got))


@_check("totient", "symmetric-coprime-sum", "every symmetric split of every n <= 500")
def _check_symmetric_sum(ctx: _Ctx) -> Iterator[None]:
    for n in range(2, min(ctx.max_n, 500) + 1):
        # prefix count/sum arrays make every symmetric split checkable in O(n)
        pc = [0] * n
        ps = [0] * n
        c = s = 0
        for k in range(1, n):
            if gcd(n, k) == 1:
                c += 1
                s += k
            pc[k] = c
            ps[k] = s
        for lo in range(1, n // 2 + 1):
            hi = n - lo
            cnt = pc[hi] - pc[lo - 1]
            tot = ps[hi] - ps[lo - 1]
            yield
            if 2 * tot != n * cnt:
                raise InvariantError("paired sum identity broke", dict(n=n, lo=lo, hi=hi, total=tot, count=cnt))
        # route a few splits through the public function, which re-checks itself
        for lo in {1, n // 3 + 1, n // 2}:
            hi = n - lo
            if lo > hi:  # lo is at least 1: n >= 2
                continue
            yield
            if totient.coprime_sum(n, lo, hi, strict=True) != ps[hi] - ps[lo - 1]:
                raise InvariantError("public sum disagrees with prefix arrays", dict(n=n, lo=lo, hi=hi))


# ---------------------------------------------------------------- distribution


@_check("distribution", "sweep-closed-forms", "full sweeps for b <= {max_b}, b != 3")
def _check_sweep(ctx: _Ctx) -> Iterator[None]:
    reports = distribution.sweep_range(2, ctx.max_b)
    for rep in reports:
        yield
        if not rep.consistent:
            raise InvariantError("observed counts left the closed forms", dict(
                b=rep.b, observed=[rep.count_zero, rep.count_plus, rep.count_minus],
                closed=[rep.closed_zero, rep.closed_plus, rep.closed_minus]))
        if rep.count_zero + rep.count_plus + rep.count_minus != rep.phi_b:
            raise InvariantError("counts must partition the coprime residues", dict(b=rep.b, phi=rep.phi_b))
        if rep.count_plus != rep.count_minus:
            raise InvariantError("sign symmetry a <-> b-a broke", dict(b=rep.b))


def _expected_discrepancies() -> list[dict]:
    recs = []

    rb = RangeBound(3, 7)
    variant = totient.phi_range_mobius_half_open(1, rb)
    corrected = totient.phi_range_mobius(1, rb)
    agrees_above_1 = True
    for n in range(2, 60):
        for lo, hi in ((1, 10), (Fraction(1, 2), Fraction(19, 3)), (5, 5), (7, 3 * n + 7)):
            bb = RangeBound(lo, hi)
            if totient.phi_range_mobius_half_open(n, bb) != totient.phi_range_mobius(n, bb):
                agrees_above_1 = False
    recs.append({
        "name": "mobius-half-open-undercount",
        "description": "dropping the +1 per divisor subtracts the n=1 indicator: wrong only at n=1, by exactly 1",
        "observed": {"variant": variant, "corrected": corrected, "agrees_for_n_above_1": agrees_above_1},
        "pinned": {"variant": 4, "corrected": 5, "agrees_for_n_above_1": True},
    })

    recs.append({
        "name": "partition-indexed-by-divisor",
        "description": "summing phi(d, [lo/d, hi/d]) instead of phi(n/d, ...) overcounts",
        "observed": {
            "variant": totient.divisor_partition_by_divisor(2, 1, 2),
            "corrected": totient.divisor_partition_identity(2, 1, 2),
        },
        "pinned": {"variant": 3, "corrected": 2},
    })

    cnt = totient.phi_range_direct(5, RangeBound(1, 2))
    recs.append({
        "name": "coprime-sum-off-symmetry",
        "description": "the paired-sum formula n*count/2 fails when lo + hi != n",
        "observed": {
            "sum": totient.coprime_sum(5, 1, 2, strict=False),
            "paired_formula": str(Fraction(5 * cnt, 2)),
        },
        "pinned": {"sum": 3, "paired_formula": "5"},
    })

    for rec in recs:
        rec["matches_pin"] = rec["observed"] == rec["pinned"]
    return recs


# The trichotomy check walks every residue of every b <= max_b, at 12-18
# times the sweep check's cost per residue, so the sweep's residue ceiling
# does not bound the battery. run_checks(max_b, 2000, 0) in one process took
# 15.7 s at 2000, 18.6 s at 2500 and 22.1 s at 3000 (shared 2-vCPU x86-64
# host, Python 3.11): 2500 is the largest round max_b within the 10-20 s of
# work the sweep's ceiling allows. It is max_b's `most` in check_int, so a
# larger max_b is refused, before the other arguments and any check, as
# "max_b must be at most 2500".
_BATTERY_MAX_B = 2500


def _check_run_args(max_b: int, max_n: int, seed: int, workers: int) -> None:
    """Every check run_checks makes before the work; `cotsum verify` makes them before it opens --report."""
    check_int("max_b", max_b, 2, _BATTERY_MAX_B)
    check_int("max_n", max_n, 1)
    check_int("workers", workers, 1)
    # the report names the seed, so it must be the int that picked the stream
    check_int("seed", seed)


def run_checks(max_b: int = 100, max_n: int = 500, seed: int = 0, workers: int = 1) -> dict:
    """Run the whole battery and return the report as a JSON-ready dict.

    The report depends only on (max_b, max_n, seed); workers only schedules
    the work, never its content or ordering. The checks' positions are cut
    into at most two shares, one per process that distribution._processes
    allows, and distribution._fan_out runs them, the first share in this
    process, and returns the results in position order. With one process
    the one share is every check, in registration order, and nothing forks.
    With two or more, this process runs the checks declared seeded, in
    order on the one stream, and one forked child runs the others. The
    sweep check is among them and sweeps in that child alone, so a run forks
    at most one child, one level deep, whatever workers is. The report lists
    the checks in registration order either way.

    A pinned wrong variant that breaks a library self-check is reported as
    one failing pin carrying the error's message, not raised.
    """
    _check_run_args(max_b, max_n, seed, workers)
    if distribution._processes(workers) == 1:
        shares = [list(range(len(_CHECKS)))]
    else:
        # only the seeded checks read the stream, and only one of them writes
        # ctx.empirical, so the child's checks leave nothing behind in ctx
        shares = [[i for i, check in enumerate(_CHECKS) if check.seeded], [i for i, check in enumerate(_CHECKS) if not check.seeded]]
    ctx = _Ctx(max_b=max_b, max_n=max_n, rng=random.Random(seed))
    results = distribution._fan_out(lambda i: _CHECKS[i](ctx), shares)
    try:
        discrepancies = _expected_discrepancies()
    except InvariantError as fail:  # a pinned function's own self-check broke
        discrepancies = [{"name": "expected-discrepancies", "detail": str(fail), "matches_pin": False}]
    pins_ok = all(rec["matches_pin"] for rec in discrepancies)
    failed = sum(1 for r in results if not r.passed)
    return {
        "parameters": {"max_b": max_b, "max_n": max_n, "seed": seed},
        "summary": {
            "checks": len(results),
            "passed": len(results) - failed,
            "failed": failed,
            "cases": sum(r.cases for r in results),
            "expected_discrepancies_pinned": pins_ok,
            "ok": failed == 0 and pins_ok,
        },
        "checks": [asdict(r) for r in results],
        "expected_discrepancies": discrepancies,
        "empirical": ctx.empirical,
    }


def report_text(report: dict) -> str:
    """The report as `cotsum verify --report PATH` writes it: indented JSON and a newline."""
    return json.dumps(report, indent=2) + "\n"
