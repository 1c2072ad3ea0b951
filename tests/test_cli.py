"""The CLI's formats and exit codes, through `cli.main` in this process.

Every test drives the CLI through `conftest.run_cli`, which returns what
`python -m cotsum` would: the exit code, stdout and stderr. One test runs a
real `python -m cotsum` per subcommand and checks that the runner agrees with
it byte for byte. The classify predicate table calls `cli.cmd_classify`
directly: a parser per call would cost seconds over its 5,500 operands.
"""

import argparse
import contextlib
import hashlib
import io
import json
from math import gcd

import pytest
from conftest import run_cli, run_cotsum
from hypothesis import given, settings
from hypothesis import strategies as st
from test_verify import MUTANTS, _unreachable

from cotsum import cli, core, distribution, totient, verify
from cotsum.numeric import _FLOAT_MAX_B
from cotsum.totient import _ENDPOINT_DIGITS_MAX, _FACTOR_MAX, _SCAN_MAX


# --- eval --------------------------------------------------------------------


def test_eval_both_modes():
    code, out, _ = run_cli("eval", "-n", "1", "-a", "1", "-b", "4", "--mode", "both")
    assert code == 0
    rec = json.loads(out)
    assert rec["status"] == "ok"
    assert rec["inputs"] == {"n": 1, "a": 1, "b": 4, "mode": "both"}
    assert rec["outputs"]["exact"] == "2"
    assert rec["outputs"]["within_tolerance"] is True
    assert abs(rec["outputs"]["float"] - 2.0) < 1e-8


def test_eval_exact_only_keeps_rational_strings():
    code, out, _ = run_cli("eval", "-n", "1", "-a", "1", "-b", "3", "--mode", "exact")
    assert code == 0
    rec = json.loads(out)
    assert rec["outputs"] == {"exact": "3/4"}


def test_eval_float_only():
    code, out, _ = run_cli("eval", "-n", "2", "-a", "3", "-b", "7", "--mode", "float")
    assert code == 0
    rec = json.loads(out)
    assert set(rec["outputs"]) == {"float", "term_count", "abs_bound"}
    assert rec["outputs"]["term_count"] == 6


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "-n", "1", "-a", "1", "-b", "1"),  # modulus too small
        ("eval", "-n", "0", "-a", "1", "-b", "4"),  # n not positive
        ("eval", "-n", "1", "-a", "1"),  # missing -b
        ("eval", "-n", "x", "-a", "1", "-b", "4"),  # not an integer
        ("sweep", "2"),  # missing endpoint
        ("sweep", "2", "10000000000"),  # over the residue ceiling
        ("totient", "6", "1/0", "3"),  # zero denominator
        ("nonsense",),
    ],
)
def test_usage_errors_exit_2(argv):
    code, _, _ = run_cli(*argv)
    assert code == 2


# --- classify ----------------------------------------------------------------


def test_classify_zero_case_with_witness():
    code, out, _ = run_cli("classify", "-a", "2", "-b", "5")
    assert code == 0
    rec = json.loads(out)
    assert rec["outputs"]["tag"] == "Zero"
    assert rec["outputs"]["exact"] == "0"
    assert rec["outputs"]["witness_k"] == 3
    assert rec["outputs"]["witness_nu"] == 1
    assert rec["outputs"]["predicate"] == "2b=3a+k+1"


def test_classify_minus_case():
    code, out, _ = run_cli("classify", "-a", "4", "-b", "5")
    assert code == 0
    rec = json.loads(out)
    assert rec["outputs"]["tag"] == "MinusHalfB"
    assert rec["outputs"]["predicate"] == "3b=3a+k+1"
    assert rec["outputs"]["witness_k"] == 2


def test_classify_plus_case():
    code, out, _ = run_cli("classify", "-a", "1", "-b", "4")
    assert code == 0
    rec = json.loads(out)
    assert rec["outputs"]["tag"] == "PlusHalfB"
    assert rec["outputs"]["predicate"] == "b=3a+k+1"


def test_classify_permissive_b3_has_no_witness():
    code, out, _ = run_cli("classify", "-a", "1", "-b", "3")
    assert code == 0
    rec = json.loads(out)
    assert rec["outputs"]["tag"] == "Other"
    assert rec["outputs"]["exact"] == "3/4"
    assert rec["outputs"]["witness_k"] is None
    assert rec["outputs"]["predicate"] is None


def test_classify_strict_violation_exits_3():
    code, out, err = run_cli("classify", "-a", "2", "-b", "4", "--strict")
    assert code == 3
    rec = json.loads(out)
    assert rec["status"] == "precondition_violation"
    assert "precondition" in err


# --- sweep -------------------------------------------------------------------


def test_sweep_csv_contract():
    code, out, _ = run_cli("sweep", "2", "50")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "b,phi_b,count_zero,count_plus,count_minus,closed_zero,closed_plus,closed_minus,consistent"
    data = [ln for ln in lines[1:] if not ln.startswith("3,")]
    assert len(data) == 48
    assert all(ln.endswith(",true") for ln in data)
    # the excluded modulus is visible, not silently dropped
    assert "3,,,,,,,,skipped" in lines


def test_sweep_json_is_an_array_with_marker():
    code, out, _ = run_cli("sweep", "2", "6", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert isinstance(rows, list)
    assert [row["b"] for row in rows] == [2, 3, 4, 5, 6]
    assert rows[1] == {"b": 3, "skipped": True}
    assert rows[3]["count_zero"] == 2 and rows[3]["consistent"] is True


def test_sweep_writes_file_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1, _, _ = run_cli("sweep", "2", "30", "--out", str(out1))
    code2, _, _ = run_cli("sweep", "2", "30", "--out", str(out2), "--workers", "2")
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().endswith(b"\n")


def test_sweep_unwritable_path_exits_4(tmp_path):
    target = tmp_path / "missing_dir" / "x.csv"
    code, _, err = run_cli("sweep", "2", "10", "--out", str(target))
    assert code == 4
    assert "cannot write" in err


# --- totient -----------------------------------------------------------------


def test_totient_all_methods_consistent():
    code, out, _ = run_cli("totient", "12", "5", "17", "--method", "all")
    assert code == 0
    rec = json.loads(out)
    assert rec["outputs"]["direct"] == 5
    assert rec["outputs"]["mobius"] == 5
    assert rec["outputs"]["approx_exact"] == 5
    assert rec["outputs"]["approx_estimate"] == "5"
    assert rec["outputs"]["consistent"] is True


def test_totient_rational_bounds():
    code, out, _ = run_cli("totient", "6", "1/2", "10/3", "--method", "direct")
    assert code == 0
    assert json.loads(out)["outputs"]["direct"] == 1


def test_totient_mobius_only():
    code, out, _ = run_cli("totient", "30", "7", "100", "--method", "mobius")
    assert code == 0
    assert json.loads(out)["outputs"] == {"mobius": 25}


def test_totient_approx_rejects_n1():
    code, out, _ = run_cli("totient", "1", "5", "17", "--method", "approx")
    assert code == 3
    assert json.loads(out)["status"] == "precondition_violation"


def test_totient_approx_needs_integer_bounds():
    code, _, err = run_cli("totient", "6", "1/2", "7", "--method", "approx")
    assert code == 2
    assert "integer bounds" in err


def test_totient_inverted_bounds_exit_2():
    code, _, _ = run_cli("totient", "6", "9", "4")
    assert code == 2


# --- verify ------------------------------------------------------------------


def test_verify_small_run(tmp_path):
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(
        "verify", "--max-b", "20", "--max-n", "40", "--seed", "7",
        "--report", str(report_path),
    )
    assert code == 0
    assert out == ""  # report went to the file, progress to stderr
    report = json.loads(report_path.read_text())
    assert report["summary"]["ok"] is True
    assert report["parameters"] == {"max_b": 20, "max_n": 40, "seed": 7}
    assert err.count("[pass]") == report["summary"]["checks"] + len(report["expected_discrepancies"])


def test_verify_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("verify", "--max-b", "15", "--max-n", "25", "--seed", "3", "--report", str(a))[0] == 0
    assert run_cli("verify", "--max-b", "15", "--max-n", "25", "--seed", "3", "--report", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_stdout_report_parses():
    code, out, _ = run_cli("verify", "--max-b", "12", "--max-n", "15", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["failed"] == 0


def test_verify_refuses_an_oversized_max_b_before_any_check(monkeypatch):
    # a check that runs is minutes of work before the sweep check refuses
    monkeypatch.setattr(verify, "_CHECKS", (_unreachable,))
    code, out, err = run_cli("verify", "--max-b", "10001", "--max-n", "30")
    assert (code, out) == (2, "")
    assert err == "invalid value: a sweep classifies at most 50000000 residues, got 50004998 for b in [2, 10001]\n"


# --- a broken invariant ------------------------------------------------------


@pytest.fixture
def tag_zero_as_plus(monkeypatch):
    module, attr, make = MUTANTS["tag-zero-as-plus-above-10"][:3]
    monkeypatch.setattr(module, attr, make(getattr(module, attr)))


def test_a_broken_invariant_exits_1_with_no_record(tag_zero_as_plus):
    # like the other exits main maps, it prints one line on stderr and no record
    assert run_cli("classify", "-a", "4", "-b", "11") == (1, "", "inconsistent: tag PlusHalfB inconsistent with value 0\n")
    assert run_cli("classify", "-a", "4", "-b", "10")[0] == 0  # the mutant reads only b > 10


def test_verify_writes_its_report_when_a_self_check_breaks(tag_zero_as_plus, tmp_path):
    path = tmp_path / "r.json"
    code, out, err = run_cli("verify", "--max-b", "12", "--max-n", "30", "--seed", "0", "--report", str(path))
    assert (code, out) == (1, "")
    report = json.loads(path.read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["trichotomy-and-predicates"]
    assert "[FAIL] core/trichotomy-and-predicates (32 cases)" in err


# --- the process boundary ----------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "-n", "2", "-a", "3", "-b", "7", "--mode", "both"),
        ("classify", "-a", "2", "-b", "5"),
        ("totient", "12", "5", "17", "--method", "all"),
        ("sweep", "2", "30", "--workers", "2"),
        ("verify", "--max-b", "12", "--max-n", "30", "--seed", "0"),
    ],
    ids=["eval", "classify", "totient", "sweep", "verify"],
)
def test_python_m_cotsum_writes_what_the_in_process_runner_writes(argv):
    # covers __main__.py and, for sweep, a real pool in a real process
    proc = run_cotsum(*argv)
    assert proc.returncode == 0, proc.stderr
    assert (proc.returncode, proc.stdout) == run_cli(*argv)[:2]


# --- ceilings, early refusals and a property over main ----------------------


@pytest.mark.parametrize("mode,want", [("exact", 0), ("float", 2), ("both", 2)])
def test_eval_over_the_float_ceiling(mode, want):
    code, out, _ = run_cli("eval", "-n", "1", "-a", "7", "-b", str(_FLOAT_MAX_B + 1), "--mode", mode)
    assert code == want
    if want == 0:
        assert json.loads(out)["outputs"] == {"exact": "10000001/2"}  # +b/2: 7 <= (b-1)/3
    else:
        assert out == ""


@pytest.mark.parametrize("method,want", [("direct", 2), ("all", 2), ("mobius", 0), ("approx", 0)])
def test_totient_over_the_scan_ceiling(method, want):
    code, out, _ = run_cli("totient", "6", "1", str(_SCAN_MAX + 1), "--method", method)
    assert code == want
    assert (out == "") == (want == 2)


@pytest.mark.parametrize("method,want", [("direct", 0), ("mobius", 2), ("approx", 2), ("all", 2)])
def test_totient_over_the_factorization_ceiling(method, want):
    # the gcd scan never factorizes n, so only it answers
    code, out, _ = run_cli("totient", str(_FACTOR_MAX + 1), "1", "10", "--method", method)
    assert code == want
    if want == 0:
        assert json.loads(out)["outputs"] == {"direct": 10}
    else:
        assert out == ""


def test_totient_all_refuses_an_unfactorizable_n_before_the_gcd_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("the gcd scan ran for an n the Mobius count refuses")

    monkeypatch.setattr(totient, "phi_range_direct", scan)
    assert run_cli("totient", str(_FACTOR_MAX + 1), "1", "9000000", "--method", "all")[:2] == (2, "")


def test_totient_all_record_bytes():
    # the Mobius count runs first; the record still lists direct before mobius
    code, out, _ = run_cli("totient", "12", "5", "17", "--method", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "8b16dc759342faa2f4f8e76b057bd8b87930cd8eda3da55d6ae73bcf007e933d"
    assert list(json.loads(out)["outputs"])[:2] == ["direct", "mobius"]


@pytest.mark.parametrize("endpoint", ["1/0", "x"])
def test_malformed_endpoint_exits_2_naming_the_range_bound_rule(endpoint):
    code, out, err = run_cli("totient", "6", endpoint, "5")
    assert code == 2
    assert out == ""
    assert "must be a rational number" in err


# "1e" with a 4-digit exponent E stands for 1 + 4 + E digits
_E_AT = _ENDPOINT_DIGITS_MAX - 5


@pytest.mark.parametrize(
    "argv",
    [
        ("6", "1", f"1e{_E_AT + 1}"),
        ("6", f"1e-{_E_AT + 1}", "5"),
        # each of these would print or parse more than CPython's 4,300 digits
        ("6", "1", "1e4300", "--method", "mobius"),  # the record's hi
        ("999999999989", "1", "1e4299", "--method", "approx"),  # the estimate
        ("6", "1", "1" * 4400),  # Fraction's own parse, which echoed every digit
    ],
    ids=["hi", "lo", "mobius-hi", "approx-estimate", "literal"],
)
def test_endpoint_exponent_over_the_ceiling_exits_2_naming_the_limit(argv):
    # refused before Fraction builds 10**|N|, about 10 s already for 1e10000000
    code, out, err = run_cli("totient", *argv)
    assert (code, out) == (2, "")
    assert f"at most {_ENDPOINT_DIGITS_MAX} digits" in err
    assert "4300" not in err and len(err) < 200


@pytest.mark.parametrize("n,method", [("6", "mobius"), ("999999999989", "approx")])
def test_endpoint_text_at_the_digit_budget_prints_its_record(n, method):
    code, out, _ = run_cli("totient", n, "1", f"1e{_E_AT}", "--method", method)
    assert code == 0
    rec = json.loads(out)
    assert rec["inputs"]["hi"] == str(10**_E_AT)
    if method == "approx":
        assert len(rec["outputs"]["approx_estimate"]) > _ENDPOINT_DIGITS_MAX


def test_classify_predicate_names_the_public_predicate_that_holds():
    # the record reads its predicate off the witness; the public predicates
    # decide it independently on the reduced residue
    named = {
        core.predicate_plus: "b=3a+k+1",
        core.predicate_zero: "2b=3a+k+1",
        core.predicate_minus: "3b=3a+k+1",
    }
    for b in range(2, 61):
        for a in range(1, 3 * b + 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.cmd_classify(argparse.Namespace(a=a, b=b, strict=False)) == 0
            r = a % b
            if r == 0 or gcd(r, b) > 1 or b == 3:
                want = None
            else:
                [want] = [name for holds, name in named.items() if holds(r, b)]
            assert json.loads(out.getvalue())["outputs"]["predicate"] == want, (a, b)


def _never(*args, **kwargs):
    raise AssertionError("the work ran although its output path cannot be written")


@pytest.mark.parametrize(
    "argv,module,name",
    [
        (("verify", "--report", "/nonexistent-dir/r.json"), verify, "run_checks"),
        (("sweep", "2", "50", "--out", "/nonexistent-dir/r.csv"), distribution, "sweep_range"),
    ],
    ids=["verify", "sweep"],
)
def test_unwritable_output_exits_4_before_the_work(argv, module, name, monkeypatch):
    monkeypatch.setattr(module, name, _never)
    assert run_cli(*argv)[:2] == (4, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--max-b", "1", "--report", "/nonexistent-dir/r.json"),
        ("verify", "--workers", "0", "--report", "/nonexistent-dir/r.json"),
        ("sweep", "2", "10000000000", "--out", "/nonexistent-dir/r.csv"),
        ("sweep", "6", "5", "--out", "/nonexistent-dir/r.csv"),
        ("sweep", "2", "6", "--workers", "0", "--out", "/nonexistent-dir/r.csv"),
    ],
)
def test_bad_arguments_and_a_bad_path_exit_2(argv):
    assert run_cli(*argv)[:2] == (2, "")


def test_a_run_stopped_after_the_open_leaves_an_empty_file(tmp_path, monkeypatch):
    def stop(*args, **kwargs):
        raise ValueError("stopped partway")

    monkeypatch.setattr(verify, "run_checks", stop)
    path = tmp_path / "r.json"
    path.write_text("an older report")
    assert run_cli("verify", "--report", str(path))[:2] == (2, "")
    assert path.read_text() == ""


def test_sweep_over_the_residue_ceiling():
    # the range is refused before any modulus is listed or classified
    assert run_cli("sweep", "2", "10000000000")[:2] == (2, "")


# operands: small valid ints, the values just over the ceilings, and, for
# about one argument in five, text every int argument must refuse or an int
# one below its bound
JUNK = st.sampled_from(["0", "-3", "True", "1.5", "x", "1/0", ""])


def _or_junk(valid, junk=JUNK):
    return st.integers(0, 4).flatmap(lambda i: valid if i else junk)


def _ints(lo, hi):
    return _or_junk(st.integers(lo, hi).map(str), JUNK | st.just(str(lo - 1)))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["eval", "classify", "totient", "sweep"]))
    if command == "eval":
        b = draw(_ints(2, 5000) if draw(st.integers(0, 4)) else st.just(str(_FLOAT_MAX_B + 1)))
        mode = draw(st.sampled_from(["exact", "float", "both"]))
        n, a = draw(_ints(1, 10**12)), draw(_ints(1, 10**12))
        return ["eval", "-n", n, "-a", a, "-b", b, "--mode", mode]
    if command == "classify":
        argv = ["classify", "-a", draw(_ints(1, 10**12)), "-b", draw(_ints(2, 5000))]
        return argv + (["--strict"] if draw(st.booleans()) else [])
    if command == "totient":
        lo = draw(st.integers(1, 10**6))
        # hi = lo + width + extra/den: the range holds width + 1 integers
        width = draw(st.integers(0, 10**4) if draw(st.integers(0, 4)) else st.just(_SCAN_MAX))
        den = draw(st.sampled_from([1, 1, 2, 3]))
        hi = str((lo + width) * den + draw(st.integers(0, den - 1))) + ("" if den == 1 else f"/{den}")
        method = draw(st.sampled_from(["direct", "mobius", "approx", "all"]))
        lo_text, hi_text = draw(_or_junk(st.just(str(lo)))), draw(_or_junk(st.just(hi)))
        n = draw(_ints(1, 10**6) if draw(st.integers(0, 4)) else st.just(str(_FACTOR_MAX + 1)))
        return ["totient", n, lo_text, hi_text, "--method", method]
    b_lo = draw(st.integers(2, 40))
    b_hi = draw(_ints(b_lo, b_lo + 20) if draw(st.integers(0, 4)) else st.just("10000000000"))
    workers = draw(_or_junk(st.just("1")))
    return ["sweep", str(b_lo), b_hi, "--format", "json", "--workers", workers]


@settings(max_examples=250, deadline=None)
@given(argvs())
def test_main_exits_0_to_4_with_one_json_document_or_none(argv):
    code, out, _ = run_cli(*argv)
    assert code in range(5)
    if code == 2:
        assert out == ""  # refused before anything was written
    else:
        doc = json.loads(out)  # exactly one JSON document, or this raises
        assert isinstance(doc, list if argv[0] == "sweep" else dict)
