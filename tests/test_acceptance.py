"""Acceptance gate.

One test per advertised guarantee; each prints a single pass/fail line (shown
live, outside pytest's capture) so a log scan gives the verdict at a glance.
Criteria the battery covers read one full battery run shared across tests,
with the bounds pinned to (max_b=500, max_n=2000, seed=42); each asserts its
check passed over a domain no smaller than the one its label states. That run
is a `cotsum verify` child, started at collection (tests/conftest.py), whose
exit code and stdout the CLI contract reads as well; these tests run last, so
the rest of the suite overlaps it. Only the spot values and the contract's
`sweep` run outside it.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from conftest import run_cotsum

from cotsum import eval_exact, eval_float, tol


def announce(capsys, label: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        tail = f"  ({detail})" if detail else ""
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="session")
def full_report(battery_child):
    return json.loads(battery_child[1])


def report_check(report, module, name):
    for check in report["checks"]:
        if check["module"] == module and check["name"] == name:
            return check
    raise AssertionError(f"battery is missing {module}/{name}")


def report_pin(report, name):
    for rec in report["expected_discrepancies"]:
        if rec["name"] == name:
            return rec
    raise AssertionError(f"battery is missing pinned discrepancy {name}")


def test_trichotomy_exhaustive_to_500(capsys, full_report):
    # the battery's check classifies every coprime a < b for b <= 500, b != 3
    # (76,113 pairs) and requires the value in {0, +b/2, -b/2}; classify reads
    # the same kernel as eval_exact(1, a, b)
    check = report_check(full_report, "core", "trichotomy-and-predicates")
    ok = check["passed"] and check["cases"] >= 76113
    announce(capsys, "trichotomy S(1,a,b) in {0,+b/2,-b/2} for b<=500",
             ok, f"{check['cases']} coprime pairs")


def test_exact_vs_float_oracle_to_300(capsys, full_report):
    # the battery's check covers a <= 3b, a superset of a < b (134,550 cases)
    check = report_check(full_report, "numeric", "float-oracle-agreement")
    ok = check["passed"] and check["cases"] >= 3 * sum(b - 1 for b in range(2, 301))
    announce(capsys, "|exact - float| <= 1e-9*b^2 for b<=300, a<b, n<=3",
             ok, f"{check['cases']} evaluations over a<=3b")


def test_sweep_counts_to_500(capsys, full_report):
    # the battery's check runs sweep_range(2, 500) with the same three assertions
    check = report_check(full_report, "distribution", "sweep-closed-forms")
    ok = check["passed"] and check["cases"] >= 498
    announce(capsys, "sweep consistent + counts partition phi(b) + plus==minus for b<=500",
             ok, f"{check['cases']} moduli")


def test_master_congruence_to_300(capsys, full_report):
    # MasterWitness re-balances the congruence's books on construction; the
    # battery compares each witness's s with eval_exact and, for even b, checks
    # that S is an integer with 2S divisible by b over a <= 3b
    witnesses = report_check(full_report, "core", "master-congruence-witness")
    even = report_check(full_report, "core", "even-modulus-integrality")
    ok = (witnesses["passed"] and even["passed"]
          and witnesses["cases"] >= 82185 and even["cases"] >= 27495)
    announce(capsys, "master congruence exact for b<=300, a<=3b + even-b integrality",
             ok, f"{witnesses['cases']} witnesses + {even['cases']} even-b values")


def test_totient_methods_agree(capsys, full_report):
    random_ranges = report_check(full_report, "totient", "random-rational-agreement")
    decomposition = report_check(full_report, "totient", "prefix-decomposition")
    prefixes = report_check(full_report, "totient", "prefix-exhaustive-agreement")
    pin = report_pin(full_report, "mobius-half-open-undercount")
    ok = (random_ranges["passed"] and decomposition["passed"] and prefixes["passed"]
          and random_ranges["cases"] >= 200 * 1000 and pin["matches_pin"])
    announce(capsys, "direct == mobius on 200 rational ranges per n<=1000 + prefix decomposition, half-open pinned short by 1 at n=1",
             ok, f"{random_ranges['cases']} + {decomposition['cases']} cases")


def test_main_term_error_bound(capsys, full_report):
    check = report_check(full_report, "totient", "main-term-error-bound")
    emp = full_report["empirical"]["main-term-error"]
    ok = check["passed"] and check["cases"] >= 100 * 1999
    ok = ok and 0 <= emp["max_error_over_2omega"] < 1
    announce(capsys, "|error| <= 2*2^omega(n) for n<=2000, 100 ranges each",
             ok, f"{check['cases']} ranges, max |error|/2^omega = {emp['max_error_over_2omega']:.3f}")


def test_partition_identity(capsys, full_report):
    check = report_check(full_report, "totient", "gcd-partition-telescopes")
    pin = report_pin(full_report, "partition-indexed-by-divisor")
    ok = check["passed"] and check["cases"] >= 50 * 500 and pin["matches_pin"]
    announce(capsys, "sum over d|n of phi(n/d,[lo/d,hi/d]) == hi-lo+1 for n<=500 + wrong variant pinned at 3",
             ok, f"{check['cases']} ranges")


def test_symmetric_coprime_sum(capsys, full_report):
    check = report_check(full_report, "totient", "symmetric-coprime-sum")
    pin = report_pin(full_report, "coprime-sum-off-symmetry")
    ok = check["passed"] and pin["matches_pin"]
    announce(capsys, "2*sum == n*count on every symmetric range lo+hi=n, n<=500 + off-symmetry pinned",
             ok, f"{check['cases']} ranges")


# sha256 of the bytes `cotsum verify --max-b 500 --max-n 2000 --seed 42` writes
REPORT_SHA256_SEED_42 = "8b3727984337b19fd0a01c18fb0b70a9bcf75ffd00722484797d2d5fc0ebb562"


def test_report_bytes_pinned(capsys, battery_child):
    digest = hashlib.sha256(battery_child[1]).hexdigest()
    announce(capsys, "report bytes for max_b=500, max_n=2000, seed=42 match the pinned sha256",
             digest == REPORT_SHA256_SEED_42, f"sha256 {digest[:12]}...")


def test_vanishing_trigonometric_sums(capsys, full_report):
    cos_check = report_check(full_report, "numeric", "vanishing-cosine-powers")
    sin_check = report_check(full_report, "numeric", "vanishing-sine-squares")
    ok = cos_check["passed"] and sin_check["passed"]
    ok = ok and cos_check["cases"] >= 299 * 5 * 20 and sin_check["cases"] >= 299 * 20
    announce(capsys, "cot*cos^q and cot*sin^2 sums vanish within 1e-9*b^2 for b<=300, q<=5, 20 draws each",
             ok, f"{cos_check['cases']} + {sin_check['cases']} sums")


def test_spot_values_both_paths(capsys):
    expected = {
        (1, 1, 3): Fraction(3, 4),
        (1, 1, 4): Fraction(2),
        (1, 3, 4): Fraction(-2),
        (1, 2, 5): Fraction(0),
        (1, 1, 2): Fraction(0),
    }
    ok = True
    for (n, a, b), want in expected.items():
        if eval_exact(n, a, b) != want:
            ok = False
        if abs(eval_float(n, a, b).value - float(want)) > tol(b):
            ok = False
    announce(capsys, "spot values S(1,1,3)=3/4, S(1,1,4)=2, S(1,3,4)=-2, S(1,2,5)=0, S(1,1,2)=0",
             ok, "exact and float paths")


def test_cli_contract(capsys, battery_child, full_report):
    verify_rc = battery_child[0]
    ok = verify_rc == 0 and full_report["summary"]["ok"] is True

    sweep_proc = run_cotsum("sweep", "2", "50", timeout=600)
    ok = ok and sweep_proc.returncode == 0
    rows = [ln for ln in sweep_proc.stdout.strip().split("\n")[1:] if not ln.startswith("3,")]
    ok = ok and len(rows) == 48 and all(ln.endswith(",true") for ln in rows)
    announce(capsys, "cli: verify --max-b 500 --max-n 2000 --seed 42 exits 0, report parses with summary.ok; sweep 2 50 emits 48 consistent rows",
             ok, f"verify rc={verify_rc}, {len(rows)} sweep rows")
