"""Floating-point oracle: agreement, vanishing sums, tolerance policy."""

import math
from fractions import Fraction

import pytest
from conftest import traced_peak

from cotsum.errors import InvariantError, PreconditionError
from cotsum.exact import frac_part
from cotsum.core import eval_exact
from cotsum.numeric import (
    _FLOAT_MAX_B,
    _TABLE_MAX_B,
    NumericResult,
    _tables,
    agrees,
    cot_cos_power_sum,
    cot_sin2_sum,
    eval_float,
    frac_part_via_sine_sum,
    tol,
)


def test_tolerance_policy():
    assert tol(2) == 4e-9
    assert tol(10) == 1e-7
    assert tol(300) == pytest.approx(9e-5)
    # the gap to the nearest nonzero classification value stays huge
    for b in range(2, 301):
        assert tol(b) < b / 4


@pytest.mark.parametrize(
    "n,a,b,want",
    [
        (1, 1, 3, 0.75),
        (1, 1, 2, 0.0),
        (1, 1, 4, 2.0),
        (1, 3, 4, -2.0),
        (1, 2, 5, 0.0),
    ],
)
def test_eval_float_values(n, a, b, want):
    r = eval_float(n, a, b)
    assert abs(r.value - want) <= tol(b)
    assert r.term_count == b - 1
    assert r.abs_bound >= abs(r.value)


def test_eval_float_agrees_with_exact_small():
    for b in range(2, 120):
        for a in range(1, b):
            for n in (1, 2, 3):
                assert agrees(eval_exact(n, a, b), eval_float(n, a, b), b), (n, a, b)


def test_numeric_result_validates_fields():
    with pytest.raises(InvariantError):
        NumericResult(value=float("nan"), term_count=3, abs_bound=1.0)
    with pytest.raises(InvariantError):
        NumericResult(value=0.0, term_count=0, abs_bound=1.0)
    with pytest.raises(InvariantError):
        NumericResult(value=0.0, term_count=3, abs_bound=-1.0)


@pytest.mark.parametrize(
    "q,n,a,b",
    [
        (1, 1, 1, 5),
        (3, 2, 3, 7),
        (2, 1, 1, 2),
        (5, 4, 9, 30),
    ],
)
def test_cot_cos_power_sum_vanishes(q, n, a, b):
    r = cot_cos_power_sum(q, n, a, b)
    assert abs(r.value) <= tol(b)
    assert r.term_count == b - 1


@pytest.mark.parametrize("n,a,b", [(1, 1, 5), (1, 2, 6), (1, 1, 2), (3, 7, 40)])
def test_cot_sin2_sum_vanishes(n, a, b):
    assert abs(cot_sin2_sum(n, a, b).value) <= tol(b)


def test_vanishing_sums_across_small_moduli():
    for b in range(2, 60):
        for q in (1, 2, 3):
            assert abs(cot_cos_power_sum(q, 2, b + 1, b).value) <= tol(b)
        assert abs(cot_sin2_sum(1, b - 1, b).value) <= tol(b)


@pytest.mark.parametrize(
    "n,a,b",
    [(1, 1, 3), (1, 3, 4), (2, 1, 4), (1, 6, 7)],
)
def test_sine_sum_recovers_fractional_part(n, a, b):
    r = frac_part_via_sine_sum(n, a, b)
    assert abs(r.value - float(frac_part(n, a, b))) <= tol(b)


def test_sine_sum_identity_needs_nondivisibility():
    _tables.cache_clear()
    with pytest.raises(PreconditionError):
        frac_part_via_sine_sum(1, 4, 4)
    with pytest.raises(PreconditionError):
        frac_part_via_sine_sum(2, 3, 6)
    assert _tables.cache_info().currsize == 0  # refused before any table is built


def test_cot_table_never_hits_pole():
    # largest modulus used in the suite; every term must stay finite
    r = eval_float(1, 1, 997)
    assert math.isfinite(r.value)
    assert math.isfinite(r.abs_bound)


def test_agrees_is_a_tolerance_check():
    assert agrees(Fraction(2), NumericResult(value=2.0, term_count=3, abs_bound=3.0), 4)
    off = NumericResult(value=2.5, term_count=3, abs_bound=3.0)
    assert not agrees(Fraction(2), off, 4)


def test_tables_cache_holds_eight_tables_and_rebuilds_evicted_ones_unchanged():
    kinds = ("cot", "sin", "sin2", "sin3", "cos1", "cos2", "cos5")
    assert _tables.cache_info().maxsize == 8
    _tables.cache_clear()
    before = {kind: list(_tables(7, kind)) for kind in kinds}
    for b in range(8, 40):  # evicts every table of b = 7
        for kind in kinds:
            _tables(b, kind)
    assert _tables.cache_info().currsize == 8
    for kind in kinds:
        misses = _tables.cache_info().misses
        assert _tables(7, kind) == before[kind]
        assert _tables.cache_info().misses == misses + 1


def test_cold_eval_float_builds_only_its_two_tables():
    # above the limit every term is computed as the sum runs: no table at all
    _tables.cache_clear()
    _, peak = traced_peak(lambda: eval_float(1, 7, 10**5))
    assert _tables.cache_info().currsize == 0
    assert _tables.cache_info().misses == 0
    # the two tables a tabled sum at 10^5 would build trace 6.1 MiB
    assert peak < 64 * 2**10, peak
    # at the limit a cold call still builds exactly the two tables it reads
    b = _TABLE_MAX_B
    eval_float(1, 7, b)
    info = _tables.cache_info()
    assert info.currsize == 2
    assert len(_tables(b, "cot")) == b
    _tables(b, "sin3")
    assert _tables.cache_info().hits == info.hits + 2
    assert _tables.cache_info().misses == info.misses
    _tables.cache_clear()


@pytest.mark.parametrize(
    "call",
    [
        lambda b: eval_float(1, 7, b),
        lambda b: cot_sin2_sum(1, 7, b),
        lambda b: cot_cos_power_sum(3, 1, 7, b),
        lambda b: frac_part_via_sine_sum(1, 7, b),
        lambda b: frac_part_via_sine_sum(1, b, b),  # b | na: the limit comes first
    ],
    ids=["eval_float", "cot_sin2_sum", "cot_cos_power_sum", "frac_part_via_sine_sum", "sine_sum_degenerate"],
)
def test_float_sums_refuse_moduli_above_the_ceiling(call):
    # only just over the limit: a sum at the limit itself takes seconds
    _tables.cache_clear()
    with pytest.raises(ValueError, match=f"^modulus b must be at most {_FLOAT_MAX_B}, got {_FLOAT_MAX_B + 1}$"):
        call(_FLOAT_MAX_B + 1)
    assert _tables.cache_info().misses == 0  # refused before any term or table


def _literal_sum(b, r, factor):
    """math.fsum of cot(pi*m/b) * factor(2*pi*(m*r mod b)/b), every term written out."""
    return math.fsum(
        math.cos(math.pi * m / b) / math.sin(math.pi * m / b) * factor(2.0 * math.pi * (m * r % b) / b)
        for m in range(1, b)
    )


def _sin2(t):
    return math.sin(t) * math.sin(t)


def _sin3(t):
    return math.sin(t) * math.sin(t) * math.sin(t)


def _assert_literal(n, a, b):
    """All four sums at (n, a, b), q <= 5, equal their literal fsum and (b-1)*cot(pi/b) bound."""
    r = n * a % b
    bound = (b - 1) * abs(math.cos(math.pi / b) / math.sin(math.pi / b))
    pairs = [
        (eval_float(n, a, b), _literal_sum(b, r, _sin3)),
        (cot_sin2_sum(n, a, b), _literal_sum(b, r, _sin2)),
    ]
    for q in range(1, 6):
        pairs.append((cot_cos_power_sum(q, n, a, b), _literal_sum(b, r, lambda t: math.cos(t) ** q)))
    for got, want in pairs:
        assert (got.value, got.abs_bound) == (want, bound), (n, a, b)
    if r:
        got = frac_part_via_sine_sum(n, a, b)
        want = 0.5 - _literal_sum(b, r, math.sin) / (2.0 * b)
        assert (got.value, got.abs_bound) == (want, max(bound, 0.5 + bound / (2.0 * b))), (n, a, b)


def test_float_sums_are_bit_identical_to_a_literal_fsum():
    # ==, not a tolerance: the CLI's `float` field prints this value, and the
    # tabled and the streamed path must give the same bits
    for b in range(2, 61):
        for r in range(b):
            _assert_literal(1, r or b, b)  # a = b reaches residue 0
    limit = _TABLE_MAX_B
    for n, a, b in [
        (1, 7, limit),  # the largest tabled modulus
        (1, 1024, limit),
        (1, 7, limit + 1),  # the smallest streamed one
        (1, 6, limit + 2),  # streamed, gcd(6, 4098) = 6
        (3, 10**9 + 7, 99991),
    ]:
        _assert_literal(n, a, b)
