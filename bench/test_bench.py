"""Tests for the benchmark's own code: python -m pytest bench"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [p for p in (HERE, SRC) if p not in sys.path]

import child  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_self_time_on_nested_calls():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    leaf_t = tracer.wrap("leaf", leaf)

    def outer():
        now[0] += 1.0
        leaf_t()
        leaf_t()
        now[0] += 3.0

    outer_t = tracer.wrap("outer", outer)
    outer_t()
    outer_t()
    leaf_t()  # a top-level call charges no parent

    leaf_s, outer_s = tracer.stats["leaf"], tracer.stats["outer"]
    assert (outer_s.calls, outer_s.total_s, outer_s.self_s) == (2, 16.0, 8.0)
    assert (leaf_s.calls, leaf_s.total_s, leaf_s.self_s) == (5, 10.0, 10.0)


def test_self_time_survives_an_exception():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def boom():
        now[0] += 1.0
        raise KeyError("x")

    boom_t = tracer.wrap("boom", boom)

    def outer():
        now[0] += 1.0
        with pytest.raises(KeyError):
            boom_t()

    tracer.wrap("outer", outer)()
    assert tracer.stats["outer"].self_s == 1.0
    assert tracer.stats["boom"].calls == 1


def test_install_wraps_every_binding_and_uninstall_restores():
    from cotsum import core, distribution

    plain = core.classify
    tracer = Tracer()
    tracer.install()
    try:
        assert distribution.classify is core.classify is not plain
        distribution.sweep(7)  # calls classify through distribution's own binding
    finally:
        tracer.uninstall()
    assert distribution.classify is core.classify is plain
    assert tracer.stats["core.classify"].calls == 6  # phi(7) coprime residues
    assert tracer.stats["distribution.sweep"].calls == 1


def test_percentile_rule():
    p50, p95 = run.percentiles([float(x) for x in range(1, 22)])
    assert p50 == 11.0
    assert p95 == pytest.approx(20.9)  # exclusive method: rank 0.95 * (n + 1)
    with pytest.raises(ValueError):
        run.percentiles([1.0])
    # the cli's p95 needs at least ten samples beyond it
    assert 3 * child.CLI_CALLS_PER_COMMAND * (1 - 0.95) >= 10


def test_queries_come_from_the_seed_alone():
    first, again, other = child.make_queries(3), child.make_queries(3), child.make_queries(4)
    assert first == again and first != other
    commands = [q[0] for q in first]
    assert {c: commands.count(c) for c in set(commands)} == dict.fromkeys(
        run.CLI_COMMANDS, child.CLI_CALLS_PER_COMMAND
    )
    for q in first:
        if q[0] == "totient":
            n, lo, hi = map(int, q[1:4])
            assert n >= 2 and 1 <= lo <= hi and hi - lo < child.CLI_MAX_WIDTH


def test_forced_failure_counts_in_failed_ratio(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", SRC)
    queries = [["classify", "-a", "3", "-b", "6", "--strict"], ["classify", "-a", "1", "-b", "5"]]
    times, fields, errors = child.run_calls(queries)
    assert len(times) == 2
    assert errors == ["classify -a 3 -b 6 --strict: exit code 3"]
    assert fields[1] == {"tag": "PlusHalfB", "exact": "5/2", "witness_k": 1, "predicate": "b=3a+k+1"}
    unit = {"attempted": len(queries), "errors": errors}
    assert run.tally([unit]) == (2, 1, errors)


def test_cli_output_gate():
    ok = json.dumps({"status": "ok", "outputs": {"exact": "0", "within_tolerance": True}})
    assert child.check_cli_output(["eval"], 0, ok) == ({"exact": "0"}, [])
    assert child.check_cli_output(["eval"], 0, ok + ok)[1]
    assert child.check_cli_output(["eval"], 0, "not json")[1]
    off = json.dumps({"status": "ok", "outputs": {"within_tolerance": False}})
    assert child.check_cli_output(["eval"], 0, off)[1] == ["eval: within_tolerance is False"]
    bad = json.dumps({"status": "inconsistent", "outputs": {"consistent": False}})
    assert len(child.check_cli_output(["totient"], 1, bad)[1]) == 1


def test_report_gate_needs_every_check():
    from cotsum import verify

    report = verify.run_checks(max_b=8, max_n=8, seed=1)
    assert [f"{c['module']}/{c['name']}" for c in report["checks"]] == list(run.CHECK_NAMES)
    assert child.check_report(report) == (child.BATTERY_CHECKS + 3 + 1, [])
    report["checks"].pop()
    assert "expected 21 distinct checks, got 20" in child.check_report(report)[1]


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_units_must_agree_on_outputs():
    units = [{"digest": "a", "errors": []}, {"digest": "a", "errors": []}]
    run.check_agreement(units)
    assert units[0]["errors"] == []
    units.append({"digest": "b", "errors": []})  # e.g. workers=2 rows differing from workers=1
    run.check_agreement(units)
    assert run.tally([dict(u, attempted=1) for u in units])[1] == 1
