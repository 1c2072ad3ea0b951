"""Per-modulus value distribution and its closed-form prediction."""

import concurrent.futures
import tracemalloc
from math import gcd

import pytest

from cotsum import core, distribution
from cotsum.distribution import SweepReport, closed_form_counts, sweep, sweep_range
from cotsum.errors import InvariantError, PreconditionError
from cotsum.totient import RangeBound, euler_phi, phi_range_direct


@pytest.mark.parametrize(
    "b,zero,plus,minus",
    [
        (2, 1, 0, 0),
        (4, 0, 1, 1),
        (5, 2, 1, 1),
        (7, 2, 2, 2),
    ],
)
def test_sweep_examples(b, zero, plus, minus):
    r = sweep(b)
    assert (r.count_zero, r.count_plus, r.count_minus) == (zero, plus, minus)
    assert (r.closed_zero, r.closed_plus, r.closed_minus) == (zero, plus, minus)
    assert r.consistent
    assert r.phi_b == euler_phi(b)


def test_sweep_counts_partition_phi():
    for b in range(2, 200):
        if b == 3:
            continue
        r = sweep(b)
        assert r.consistent
        assert r.count_zero + r.count_plus + r.count_minus == r.phi_b
        assert r.count_plus == r.count_minus


def test_sweep_tallies_equal_the_public_classifier():
    # the tally loop against core.classify rather than the closed forms
    index = {core.CotTag.ZERO: 0, core.CotTag.PLUS_HALF_B: 1, core.CotTag.MINUS_HALF_B: 2}
    for b in range(2, 301):
        if b == 3:
            continue
        tally = [0, 0, 0]
        for a in range(1, b):
            if gcd(a, b) == 1:
                tally[index[core.classify(a, b).tag]] += 1
        r = sweep(b)
        assert (r.count_zero, r.count_plus, r.count_minus) == tuple(tally), b


# Moduli longer than one sieve block (2^15 residues): 2 * 32771 meets its
# prime divisor 32771 only in the second block, the prime 65537 spans three
# blocks and the primorial 510510 = 2 * 3 * ... * 17 spans sixteen.
MULTI_BLOCK_MODULI = (65542, 65537, 510510)


def test_sweep_calls_kernel_and_tag_once_per_coprime_residue(monkeypatch):
    kernel, tag = distribution._kernel, distribution._tag
    residues = []
    tags = [0]

    def counting_kernel(a, b):
        residues.append(a)
        return kernel(a, b)

    def counting_tag(num, den, b):
        tags[0] += 1
        return tag(num, den, b)

    monkeypatch.setattr(distribution, "_kernel", counting_kernel)
    monkeypatch.setattr(distribution, "_tag", counting_tag)
    for b in (2, 4, 5, 12, 97, 210) + MULTI_BLOCK_MODULI:
        residues.clear()
        tags[0] = 0
        r = sweep(b)
        assert r.consistent, b
        # the residues the kernel saw, in order, are exactly the gcd-filtered ones
        coprime = [a for a in range(1, b) if gcd(a, b) == 1]
        assert residues == coprime, b
        assert tags[0] == len(coprime) == euler_phi(b), b
        tally = [0, 0, 0, 0]
        for a in coprime:
            tally[tag(*kernel(a, b), b)] += 1
        assert (r.count_zero, r.count_plus, r.count_minus, 0) == tuple(tally), b


def test_sweep_memory_stays_within_a_block():
    # 270270 = 2 * 3 * 5 * 7 * 11 * 13 * 9 is over eight blocks long; a sieve
    # holding one flag per residue of b would trace about 264 KiB
    b = 270270
    sweep(5)  # imports and caches warm
    tracemalloc.start()
    try:
        r = sweep(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.consistent
    assert peak < 96 * 2**10, peak


def test_sweep_reads_the_tag_binding(monkeypatch):
    tag = distribution._tag
    monkeypatch.setattr(distribution, "_tag", lambda num, den, b: 3 if b > 10 else tag(num, den, b))
    assert sweep(10).consistent
    for b in (11, 12, 97):
        r = sweep(b)
        assert not r.consistent
        assert (r.count_zero, r.count_plus, r.count_minus) == (0, 0, 0)


def test_closed_form_counts_example():
    assert closed_form_counts(10) == (sweep(10).count_zero, sweep(10).count_plus, sweep(10).count_minus)
    assert closed_form_counts(50)[0] + closed_form_counts(50)[1] + closed_form_counts(50)[2] == 20


def test_modulus_three_is_rejected():
    with pytest.raises(PreconditionError):
        sweep(3)
    with pytest.raises(PreconditionError):
        closed_form_counts(3)


def test_sweep_range_skips_three():
    reports = sweep_range(2, 6)
    assert [r.b for r in reports] == [2, 4, 5, 6]


def test_sweep_range_rejects_empty_or_bad():
    with pytest.raises(ValueError):
        sweep_range(5, 4)
    with pytest.raises(ValueError):
        sweep_range(1, 6)
    with pytest.raises(ValueError):
        sweep_range(2, 6, workers=0)


@pytest.mark.parametrize(
    "args",
    [(2, 10.0), (2, True), (2, 1), (2, "10"), (True, 10)],
)
def test_sweep_range_checks_both_ends(args):
    with pytest.raises(ValueError, match="modulus b"):
        sweep_range(*args)


def test_sweep_refuses_more_residues_than_the_ceiling(monkeypatch):
    # the closed-form residue count, sum of b - 1 over b != 3, passes at a
    # limit equal to it and is refused at one below it
    for b_lo, b_hi in ((2, 2), (2, 3), (2, 7), (3, 9), (4, 9), (5, 40)):
        count = sum(b - 1 for b in range(b_lo, b_hi + 1) if b != 3)
        monkeypatch.setattr(distribution, "_SWEEP_MAX", count)
        assert [rep.b for rep in sweep_range(b_lo, b_hi)] == [b for b in range(b_lo, b_hi + 1) if b != 3]
        monkeypatch.setattr(distribution, "_SWEEP_MAX", count - 1)
        with pytest.raises(ValueError) as info:
            sweep_range(b_lo, b_hi)
        assert str(info.value) == f"a sweep classifies at most {count - 1} residues, got {count} for b in [{b_lo}, {b_hi}]"
    monkeypatch.setattr(distribution, "_SWEEP_MAX", 3)
    assert sweep(4).b == 4
    with pytest.raises(ValueError, match="at most 3 residues, got 4 for b in \\[5, 5\\]"):
        sweep(5)


def test_sweep_ceiling_is_just_over_b_10000_from_2():
    # only just over the limit, and far over it: neither may start the work
    limit = distribution._SWEEP_MAX
    over = sum(b - 1 for b in range(2, 10002) if b != 3)
    assert sum(b - 1 for b in range(2, 10001) if b != 3) <= limit < over
    with pytest.raises(ValueError, match=f"at most {limit} residues, got {over} for"):
        sweep_range(2, 10001)
    with pytest.raises(ValueError, match=f"at most {limit} residues"):
        sweep_range(2, 10**10)
    with pytest.raises(ValueError, match=f"at most {limit} residues, got {limit + 1} for"):
        sweep(limit + 2)


@pytest.mark.parametrize("workers", [True, False, 2.0, "2", None])
def test_sweep_range_rejects_non_int_workers(workers):
    with pytest.raises(ValueError, match="workers"):
        sweep_range(2, 6, workers=workers)


def test_sweep_range_parallel_matches_serial():
    serial = sweep_range(2, 200)
    parallel = sweep_range(2, 200, workers=2)
    assert serial == parallel


@pytest.mark.parametrize(
    "workers,cpus,b_hi,started",
    [
        (100_000, 4, 50, [4]),  # capped by the CPU count
        (100_000, 64, 6, [4]),  # capped by the moduli 2, 4, 5, 6
        (3, 64, 50, [3]),  # workers is the smallest
        (100_000, 1, 50, []),  # one process: no pool at all
        (100_000, None, 50, []),  # an unknown CPU count counts as one
    ],
)
def test_sweep_range_starts_at_most_one_process_per_cpu_and_modulus(monkeypatch, workers, cpus, b_hi, started):
    # a stand-in pool records max_workers and maps in this process, so no
    # process is ever started however large workers is
    recorded = []

    class RecordingPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(distribution.os, "cpu_count", lambda: cpus)
    assert sweep_range(2, b_hi, workers=workers) == sweep_range(2, b_hi)
    assert recorded == started


def test_closed_form_counts_match_gcd_scan():
    def scan(b, lo, hi):
        return phi_range_direct(b, RangeBound(lo, hi)) if lo <= hi else 0

    for b in range(2, 301):
        if b == 3:
            continue
        want = (
            scan(b, (b + 3) // 3, (2 * b - 1) // 3),
            scan(b, 1, (b - 1) // 3),
            scan(b, (2 * b + 3) // 3, b - 1),
        )
        assert closed_form_counts(b) == want, b


def test_sweep_report_rejects_wrong_flag():
    with pytest.raises(InvariantError):
        SweepReport(b=5, phi_b=4, count_zero=2, count_plus=1, count_minus=1,
                    closed_zero=2, closed_plus=1, closed_minus=1, consistent=False)
