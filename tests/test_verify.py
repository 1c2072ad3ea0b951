"""The self-check battery: determinism, report shape, pinned discrepancies."""

import json
import random

import pytest

from cotsum.verify import _randint, run_checks


@pytest.fixture(scope="module")
def small_report():
    return run_checks(max_b=25, max_n=60, seed=7)


def test_small_run_is_green(small_report):
    assert small_report["summary"]["ok"] is True
    assert small_report["summary"]["failed"] == 0
    assert small_report["summary"]["passed"] == small_report["summary"]["checks"]
    for check in small_report["checks"]:
        assert check["passed"], check
        assert check["cases"] > 0


def test_report_parameters_echoed(small_report):
    assert small_report["parameters"] == {"max_b": 25, "max_n": 60, "seed": 7}


def test_check_names_unique_and_grouped(small_report):
    names = [(c["module"], c["name"]) for c in small_report["checks"]]
    assert len(names) == len(set(names))
    modules = {c["module"] for c in small_report["checks"]}
    assert {"exact", "core", "numeric", "totient", "distribution"} <= modules


def test_report_is_json_ready_and_deterministic(small_report):
    blob = json.dumps(small_report, sort_keys=True)
    again = json.dumps(run_checks(max_b=25, max_n=60, seed=7), sort_keys=True)
    assert blob == again
    assert json.loads(blob) == small_report


def test_workers_do_not_change_the_report(small_report):
    parallel = run_checks(max_b=25, max_n=60, seed=7, workers=2)
    assert parallel == small_report


def test_pinned_discrepancies(small_report):
    pinned = {rec["name"]: rec for rec in small_report["expected_discrepancies"]}
    assert small_report["summary"]["expected_discrepancies_pinned"] is True
    assert set(pinned) == {
        "mobius-half-open-undercount",
        "partition-indexed-by-divisor",
        "coprime-sum-off-symmetry",
    }
    for rec in pinned.values():
        assert rec["matches_pin"] is True
        assert rec["observed"] == rec["pinned"]

    assert pinned["mobius-half-open-undercount"]["observed"] == {
        "variant": 4, "corrected": 5, "agrees_for_n_above_1": True,
    }
    assert pinned["partition-indexed-by-divisor"]["observed"] == {"variant": 3, "corrected": 2}
    assert pinned["coprime-sum-off-symmetry"]["observed"] == {"sum": 3, "paired_formula": "5"}


def test_empirical_extremes_recorded(small_report):
    emp = small_report["empirical"]["main-term-error"]
    assert set(emp) >= {"max_abs_error", "max_error_over_2omega"}
    # the factor-of-2 headroom in the bound: the normalized ratio stays < 1
    assert 0 <= emp["max_error_over_2omega"] < 1


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        run_checks(max_b=1)
    with pytest.raises(ValueError):
        run_checks(max_n=0)
    with pytest.raises(ValueError):
        run_checks(workers=0)


# (kwargs, the exact message). The ids keep the names these cases were first
# collected under, from before the one wording of errors.check_int.
NON_INT_PARAMETERS = [
    ({"max_b": True}, "max_b must be an integer >= 2, got True", "max_b must be >= 2, got True"),
    ({"max_b": 4.5}, "max_b must be an integer >= 2, got 4.5", "max_b must be >= 2, got 4.5"),
    ({"max_b": "500"}, "max_b must be an integer >= 2, got '500'", "max_b must be >= 2, got 500"),
    ({"max_n": True}, "max_n must be an integer >= 1, got True", "max_n must be >= 1, got True"),
    ({"max_n": 2.0}, "max_n must be an integer >= 1, got 2.0", "max_n must be >= 1, got 2.0"),
    ({"workers": True}, "workers must be an integer >= 1, got True", "workers must be >= 1, got True"),
    ({"workers": 2.0}, "workers must be an integer >= 1, got 2.0", "workers must be >= 1, got 2.0"),
    ({"seed": True}, "seed must be an integer, got True", "seed must be an int, got True"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5", "seed must be an int, got 1.5"),
    ({"seed": "42"}, "seed must be an integer, got '42'", "seed must be an int, got '42'"),
]


@pytest.mark.parametrize(
    "kwargs,message",
    [case[:2] for case in NON_INT_PARAMETERS],
    ids=[f"kwargs{i}-{case[2]}" for i, case in enumerate(NON_INT_PARAMETERS)],
)
def test_non_int_parameters_rejected_up_front(kwargs, message):
    # bool is an int; refused before any check runs, not deep inside one
    with pytest.raises(ValueError) as info:
        run_checks(**kwargs)
    assert str(info.value) == message


# lo == hi, width 2, widths 2^k - 1, 2^k and 2^k + 1 (where the rejection
# loop's bit count changes), widths above 2^64, and negative lo
_RANDINT_RANGES = (
    [(5, 5), (-3, -3), (0, 1), (7, 8)]
    + [(1, w) for k in (2, 3, 5, 8, 13, 31, 32, 53, 63, 64, 65) for w in (2**k - 1, 2**k, 2**k + 1)]
    + [(0, 2**70 + 12345), (-(2**65), 2**65), (-1000, 1000), (-(2**40), -1)]
)


def test_randint_draws_what_random_randint_draws():
    # the battery's report is pinned to Random.randint's stream: same values,
    # and the generator left in the same state after every sequence
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for lo, hi in _RANDINT_RANGES:
            got = [_randint(ours, lo, hi) for _ in range(3)]
            want = [theirs.randint(lo, hi) for _ in range(3)]
            assert got == want, (seed, lo, hi)
            assert ours.getstate() == theirs.getstate(), (seed, lo, hi)
