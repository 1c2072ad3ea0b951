"""Floating-point oracle: agreement, vanishing sums, tolerance policy."""

import math
from fractions import Fraction

import pytest

from cotsum.errors import PreconditionError
from cotsum.exact import frac_part
from cotsum.core import eval_exact
from cotsum.numeric import (
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
    with pytest.raises(ValueError):
        NumericResult(value=float("nan"), term_count=3, abs_bound=1.0)
    with pytest.raises(ValueError):
        NumericResult(value=0.0, term_count=0, abs_bound=1.0)
    with pytest.raises(ValueError):
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
    with pytest.raises(PreconditionError):
        frac_part_via_sine_sum(1, 4, 4)
    with pytest.raises(PreconditionError):
        frac_part_via_sine_sum(2, 3, 6)


def test_cot_table_never_hits_pole():
    # largest modulus used in the suite; every term must stay finite
    r = eval_float(1, 1, 997)
    assert math.isfinite(r.value)
    assert math.isfinite(r.abs_bound)


def test_agrees_is_a_tolerance_check():
    assert agrees(Fraction(2), NumericResult(value=2.0, term_count=3, abs_bound=3.0), 4)
    off = NumericResult(value=2.5, term_count=3, abs_bound=3.0)
    assert not agrees(Fraction(2), off, 4)


def test_tables_cache_holds_eight_moduli_and_rebuilds_evicted_ones_unchanged():
    assert _tables.cache_info().maxsize == 8
    _tables.cache_clear()
    before = [list(t) for t in _tables(7)]
    for b in range(8, 40):  # evicts b = 7
        _tables(b)
    assert _tables.cache_info().currsize == 8
    misses = _tables.cache_info().misses
    assert [list(t) for t in _tables(7)] == before
    assert _tables.cache_info().misses == misses + 1
