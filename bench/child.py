"""One unit of a benchmark workload, run in a fresh interpreter.

    python bench/child.py {battery,sweep,cli} --seed N [--setup-only] [--trace] [--workers {1,2}]

`run.py` starts this script with ``src`` on PYTHONPATH, once per unit, so every
unit pays for cold caches the way each ``cotsum`` invocation does. The last
line of stdout is one JSON object:

    ready       time.perf_counter() when set-up ended and the first timed call
                began (CLOCK_MONOTONIC, comparable with the parent's clock)
    wall_s      named sections of timed work, in seconds
    calls_ms    cli only: spawn-to-exit time of each call
    checks_s    battery only: time of each check, keyed module/name, and
    pins_s      of the pinned wrong variants
    attempted   operations whose outputs were checked
    errors      one line per failed check; the unit is correct iff it is empty
    digest      sha256 of the exact outputs, for comparison across commits
    trace       per-layer aggregates (only with --trace)

With --setup-only the script stops at `ready`, which is how set-up time is
sampled several times per run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import asdict

BATTERY_MAX_B = 500
BATTERY_MAX_N = 2000
BATTERY_CHECKS = 21
SWEEP_RANGE = (2, 1500)
CLI_CALLS_PER_COMMAND = 70  # 210 calls: at least ten samples beyond p95
CLI_MAX_B = 10**5
CLI_MAX_N = 10**12
CLI_MAX_WIDTH = 10**6
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    """The digest baseline.json pins for this workload and seed, if any."""
    with open(BASELINE, encoding="utf-8") as fh:
        digests = json.load(fh)["digests"][workload]
    return digests.get(str(seed), digests.get("any"))


def timed(fn, times: dict, key):
    """fn, with each call's wall time stored in times[key(result)]."""

    def wrapper(*args):
        start = time.perf_counter()
        result = fn(*args)
        times[key(result)] = time.perf_counter() - start
        return result

    return wrapper


def start_tracer(trace: bool):
    if not trace:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


# ---------------------------------------------------------------- battery


def report_bytes(report: dict) -> bytes:
    """What `cotsum verify --report PATH` writes for this report."""
    return (json.dumps(report, indent=2) + "\n").encode("utf-8")


def check_report(report: dict) -> tuple[int, list[str]]:
    """(operations checked, failures) for one battery report."""
    errors = []
    names = [f"{c['module']}/{c['name']}" for c in report["checks"]]
    if len(set(names)) != BATTERY_CHECKS:
        errors.append(f"expected {BATTERY_CHECKS} distinct checks, got {len(set(names))}")
    errors += [f"check {n} failed" for n, c in zip(names, report["checks"]) if not c["passed"]]
    pins = report["expected_discrepancies"]
    errors += [f"pin {p['name']} moved" for p in pins if not p["matches_pin"]]
    if not report["summary"]["ok"]:
        errors.append("summary.ok is false")
    return BATTERY_CHECKS + len(pins) + 1, errors


def battery(args) -> dict:
    from cotsum import numeric, totient, verify

    tracer = start_tracer(args.trace)
    # spans for the checks and the pins only, keyed as the report names them
    checks_s: dict[str, float] = {}
    verify._CHECKS = tuple(timed(c, checks_s, lambda r: f"{r.module}/{r.name}") for c in verify._CHECKS)
    pins_s: dict[str, float] = {}
    verify._expected_discrepancies = timed(verify._expected_discrepancies, pins_s, lambda r: "pins")
    ready = time.perf_counter()
    if args.setup_only:
        return {"ready": ready}
    report = verify.run_checks(max_b=BATTERY_MAX_B, max_n=BATTERY_MAX_N, seed=args.seed, workers=1)
    wall = time.perf_counter() - ready
    if tracer:
        tracer.uninstall()
    attempted, errors = check_report(report)
    digest = hashlib.sha256(report_bytes(report)).hexdigest()
    want = recorded_digest("battery", args.seed)
    if want is not None and digest != want:
        errors.append(f"report sha256 {digest} differs from the recorded {want}")
    out = {
        "ready": ready,
        "wall_s": {"battery": wall},
        "checks_s": checks_s,
        "pins_s": pins_s["pins"],
        "attempted": attempted,
        "errors": errors,
        "digest": digest,
    }
    if tracer:
        out["trace"] = {
            "functions": layer_stats(tracer),
            "caches": cache_stats(numeric._tables, totient.arithmetic_profile),  # the originals, untraced
        }
    return out


# ---------------------------------------------------------------- sweep


def check_sweep(rows, label: str) -> list[str]:
    errors = []
    want_b = [b for b in range(SWEEP_RANGE[0], SWEEP_RANGE[1] + 1) if b != 3]
    if [r.b for r in rows] != want_b:
        errors.append(f"{label}: rows do not cover {SWEEP_RANGE} in order")
    for r in rows:
        closed = r.closed_zero + r.closed_plus + r.closed_minus
        if not r.consistent:
            errors.append(f"{label}: b={r.b} inconsistent")
        if r.count_zero + r.count_plus + r.count_minus != r.phi_b or closed != r.phi_b:
            errors.append(f"{label}: b={r.b} counts do not partition phi(b)={r.phi_b}")
    return errors


def sweep(args) -> dict:
    from cotsum import distribution

    lo, hi = SWEEP_RANGE
    tracer = start_tracer(args.trace)
    ready = time.perf_counter()
    if args.setup_only:
        return {"ready": ready}
    rows = distribution.sweep_range(lo, hi, workers=args.workers)
    wall = time.perf_counter() - ready
    if tracer:
        tracer.uninstall()
    errors = check_sweep(rows, f"workers={args.workers}")
    digest = sha256_json([asdict(r) for r in rows])
    want = recorded_digest("sweep", args.seed)
    if want is not None and digest != want:
        errors.append(f"sweep digest {digest} differs from the recorded {want}")
    out = {
        "ready": ready,
        "wall_s": {f"w{args.workers}": wall},
        "attempted": len(rows),
        "errors": errors,
        "digest": digest,
    }
    if tracer:
        out["trace"] = {"functions": layer_stats(tracer)}
    return out


# ---------------------------------------------------------------- cli


def log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, max(lo, round(math.exp(rng.uniform(math.log(lo), math.log(hi))))))


def make_queries(seed: int) -> list[list[str]]:
    """The seeded CLI argument lists: eval, classify and totient in equal thirds."""
    rng = random.Random(seed)
    queries = []
    for _ in range(CLI_CALLS_PER_COMMAND):
        n, a, b = log_uniform(rng, 1, CLI_MAX_N), log_uniform(rng, 1, CLI_MAX_N), log_uniform(rng, 2, CLI_MAX_B)
        queries.append(["eval", "-n", str(n), "-a", str(a), "-b", str(b), "--mode", "both"])
        a, b = log_uniform(rng, 1, CLI_MAX_N), log_uniform(rng, 2, CLI_MAX_B)
        queries.append(["classify", "-a", str(a), "-b", str(b)])
        n, lo = log_uniform(rng, 2, CLI_MAX_N), log_uniform(rng, 1, CLI_MAX_N)
        hi = lo + log_uniform(rng, 1, CLI_MAX_WIDTH) - 1
        queries.append(["totient", str(n), str(lo), str(hi), "--method", "all"])
    rng.shuffle(queries)
    return queries


EXACT_FIELDS = ("exact", "tag", "witness_k", "predicate", "direct", "mobius")


def check_cli_output(argv: list[str], code: int, stdout: str) -> tuple[dict, list[str]]:
    """(exact output fields, failures) for one CLI call."""
    label = " ".join(argv)
    if code != 0:
        return {}, [f"{label}: exit code {code}"]
    text = stdout.strip()
    try:
        record, end = json.JSONDecoder().raw_decode(text)
    except json.JSONDecodeError:
        record, end = None, 0
    if end != len(text) or not isinstance(record, dict):
        return {}, [f"{label}: stdout is not exactly one JSON object"]
    outputs = record.get("outputs", {})
    errors = []
    if record.get("status") != "ok":
        errors.append(f"{label}: status {record.get('status')!r}")
    for flag in ("within_tolerance", "consistent"):
        if flag in outputs and outputs[flag] is not True:
            errors.append(f"{label}: {flag} is {outputs[flag]!r}")
    return {k: outputs[k] for k in EXACT_FIELDS if k in outputs}, errors


def run_calls(queries: list[list[str]]) -> tuple[list[float], list[dict], list[str]]:
    """Closed loop, one client: each call is a cold `python -m cotsum` process."""
    times, fields, errors = [], [], []
    for argv in queries:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cotsum", *argv], capture_output=True, text=True, timeout=120
        )
        times.append((time.perf_counter() - start) * 1e3)
        exact, errs = check_cli_output(argv, proc.returncode, proc.stdout)
        fields.append(exact)
        if errs:
            errors.append("; ".join(errs))  # one entry per failed call
    return times, fields, errors


def python_c(code: str) -> tuple[float, str]:
    """(spawn-to-exit ms, stdout) of a fresh `python -c code`."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True, timeout=60)
    return (time.perf_counter() - start) * 1e3, out.stdout


def main_in_process(queries, caches) -> tuple[dict[str, list[float]], list[str]]:
    """cli.main per query, in this process, with the caches cleared before each."""
    from cotsum import cli

    times: dict[str, list[float]] = {}
    errors = []
    for argv in queries:
        for cache in caches:
            cache.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        times.setdefault(argv[0], []).append(elapsed * 1e3)
        if code != 0:
            errors.append(f"in-process {' '.join(argv)}: exit code {code}")
    return times, errors


def cli(args) -> dict:
    queries = make_queries(args.seed)
    ready = time.perf_counter()
    if args.setup_only:
        return {"ready": ready}
    if args.trace:
        return cli_trace(ready, queries)
    times, fields, errors = run_calls(queries)
    wall = time.perf_counter() - ready
    digest = sha256_json([[q, f] for q, f in zip(queries, fields)])
    want = recorded_digest("cli", args.seed)
    if want is not None and digest != want:
        errors.append(f"cli digest {digest} differs from the recorded {want}")
    return {
        "ready": ready,
        "wall_s": {"cli": wall},
        "calls_ms": times,
        "attempted": len(queries),
        "errors": errors,
        "digest": digest,
    }


IMPORT_CODE = "import time; t = time.perf_counter(); import cotsum.cli; print(time.perf_counter() - t)"


def cli_trace(ready: float, queries) -> dict:
    from cotsum import numeric, totient

    interpreter_ms = [python_c("pass")[0] for _ in range(15)]
    import_ms = [float(python_c(IMPORT_CODE)[1]) * 1e3 for _ in range(15)]
    caches = (numeric._tables, totient.arithmetic_profile)
    main_ms, errors = main_in_process(queries, caches)
    tracer = start_tracer(True)
    start = time.perf_counter()
    errors += main_in_process(queries, caches)[1]
    traced = time.perf_counter() - start
    tracer.uninstall()
    return {
        "ready": ready,
        "wall_s": {"main": sum(map(sum, main_ms.values())) / 1e3, "main_traced": traced},
        "attempted": 2 * len(queries),
        "errors": errors,
        "trace": {
            "functions": layer_stats(tracer),
            "interpreter_ms": statistics.median(interpreter_ms),
            "import_ms": statistics.median(import_ms),
            "main_ms": {cmd: statistics.median(v) for cmd, v in main_ms.items()},
        },
    }


# ---------------------------------------------------------------- shared


def layer_stats(tracer) -> dict:
    return {
        name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s}
        for name, s in tracer.stats.items()
    }


def cache_stats(tables, profile) -> dict:
    t, p = tables.cache_info(), profile.cache_info()
    return {
        "numeric._tables": {"hits": t.hits, "misses": t.misses, "currsize": t.currsize},
        "totient.arithmetic_profile": {"hits": p.hits, "misses": p.misses, "currsize": p.currsize},
    }


JOBS = {"battery": battery, "sweep": sweep, "cli": cli}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workers", type=int, choices=(1, 2), default=1, help="sweep only")
    args = parser.parse_args(argv)
    if args.trace and args.workers != 1:
        parser.error("only the workers=1 sweep is traced: the pool pickles sweep by name")
    result = JOBS[args.workload](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
