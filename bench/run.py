"""The cotsum benchmark: end-to-end metrics per workload, per-layer metrics from a trace.

    python3 bench/run.py --workload {battery,sweep,cli} --seed N --seconds S --trace {0,1}

Run from the repository root. The package is not installed: every process the
benchmark starts imports cotsum from ``src`` through PYTHONPATH. Only the
standard library is used.

Workloads (inputs come from --seed alone; see baseline.json for why each was
chosen and for its operand distributions):

    battery  run_checks(max_b=500, max_n=2000, seed), workers=1
    sweep    sweep_range(2, 1500) with workers=1, then with workers=2
    cli      closed loop, one client: 210 cold `python -m cotsum` calls,
             eval --mode both / classify / totient --method all in thirds

A unit of a workload runs in a fresh interpreter (bench/child.py), because
every user of `cotsum verify`, `cotsum sweep` or `cotsum eval` pays for cold
caches. A batch is one sample of a workload (BATCHES): the battery's two
units side by side; the sweep's workers=1 pass twice side by side, then its
workers=2 pass; the cli loop. Batches repeat while another still fits in
--seconds; there is always at least one. A batch takes 20 to 40 s, so at the
30 s of BENCHMARK.json a run is exactly one batch, and wall_s is that batch's
time: the battery's sample is its two side-by-side units, which the host's
speed swings move together (see baseline.json).

--trace 0 prints the end-to-end metrics, the same three on every workload:

    wall_s       median over batches of the batch's timed wall time, where
                 units side by side count once, by their median (battery:
                 run_checks; sweep: workers=1 plus workers=2; cli: the whole
                 closed loop)
    setup_s      median time from a fresh interpreter's start to its first
                 timed call: imports and input generation, sampled
                 SETUP_PROBES extra times per run
    peak_rss_mb  largest peak RSS of any process the run started

Per-call percentiles are printed with the workload's own figures but not
gated: they cover a few seconds of a run, and on a shared machine whose speed
swings over tens of seconds their run-to-run spread came close to the 0.25
cap on a bound (see baseline.json).

--trace 1 ignores the workload and profiles all three, so that every
per-layer metric is measured in every traced run: an untraced and a traced
battery side by side, a traced workers=1 sweep, an untraced workers=2 one,
and the cli calls in process, untraced and then traced. Names
of function metrics start with the workload they were measured on.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Lines before it name the workload's own figures
(battery_s, sweep_w1_s, sweep_w2_s, cli_p50_ms, cli_p95_ms, failed_ratio and
an output digest). Raw figures go to the sidecar file bench/out/*.json.
Exit codes: 0 all outputs correct, 1 a correctness gate failed, 2 the source
tree or a unit could not be run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("battery", "sweep", "cli")
SETUP_PROBES = 9
# One batch of a workload: phases run one after another, and the units of a
# phase (their child.py flags listed) side by side, one process each. A
# single-threaded pass runs twice at once, one per vCPU, so that each batch
# samples the machine's drifting speed on both cores; the workers=2 sweep
# needs both cores and the cli loop has one client.
BATCHES = {
    "battery": [[(), ()]],
    "sweep": [[("--workers", "1"), ("--workers", "1")], [("--workers", "2")]],
    "cli": [[()]],
}
UNIT_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Functions whose calls and self time the trace reports, per workload: the
# ones each workload reaches and an optimisation of that layer would move.
TRACED = {
    "battery": (
        "core.eval_exact", "core.classify", "core.master_witness",
        "exact.frac_part", "exact.boundary_count", "exact.shifted_frac_part",
        "numeric.eval_float", "numeric.cot_cos_power_sum", "numeric.cot_sin2_sum",
        "numeric.frac_part_via_sine_sum",
        "totient.phi_approx", "totient.phi_range_mobius", "totient.phi_range_direct",
        "totient.legendre_phi", "totient.divisor_partition_identity",
        "totient.phi_decomposition", "totient.arithmetic_profile",
    ),
    "sweep": (
        "core.eval_exact", "core.classify", "totient.phi_range_direct",
        "totient.arithmetic_profile", "distribution.sweep",
    ),
    "cli": (
        "core.eval_exact", "core.classify", "core.master_witness", "exact.boundary_count",
        "numeric.eval_float", "totient.phi_range_direct", "totient.phi_range_mobius",
        "totient.phi_approx", "totient.arithmetic_profile",
    ),
}
CHECK_NAMES = (
    "exact/shift-rule-vs-direct-reduction", "exact/unit-shift-rules",
    "exact/boundary-count-window-steps", "core/known-values", "core/trichotomy-and-predicates",
    "core/magnitude-bound", "core/periodicity-in-first-argument", "core/even-modulus-integrality",
    "core/master-congruence-witness", "numeric/float-oracle-agreement",
    "numeric/vanishing-cosine-powers", "numeric/vanishing-sine-squares",
    "numeric/sine-sum-fractional-part", "totient/profile-invariants",
    "totient/prefix-exhaustive-agreement", "totient/random-rational-agreement",
    "totient/prefix-decomposition", "totient/main-term-error-bound",
    "totient/gcd-partition-telescopes", "totient/symmetric-coprime-sum",
    "distribution/sweep-closed-forms",
)
CLI_COMMANDS = ("eval", "classify", "totient")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for workload, functions in TRACED.items():
        for fn in functions:
            units[f"{workload}.{fn}.calls"] = "count"
            units[f"{workload}.{fn}.self_s"] = "s"
    for cache in ("numeric._tables", "totient.arithmetic_profile"):
        units[f"battery.{cache}.hits"] = "count"
        units[f"battery.{cache}.misses"] = "count"
    units["battery.totient.arithmetic_profile.currsize"] = "count"
    units["sweep.distribution.sweep_range.wait_s"] = "s"
    for check in CHECK_NAMES:
        units[f"verify.check.{check.replace('/', '.')}_s"] = "s"
    units["verify.pins_s"] = "s"
    units["cli.interpreter_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for cmd in CLI_COMMANDS:
        units[f"cli.main_ms.{cmd}"] = "ms"
    units["trace.overhead_s"] = "s"
    return units


def percentiles(values: list[float]) -> tuple[float, float]:
    """(p50, p95); p95 by statistics.quantiles' default (exclusive) method."""
    if len(values) < 2:
        raise ValueError(f"need at least two samples, got {len(values)}")
    return statistics.median(values), statistics.quantiles(values, n=20)[18]


class UnitError(RuntimeError):
    """A unit's process failed to produce a result."""


def child_env() -> dict[str, str]:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_unit(workload: str, seed: int, *flags: str) -> dict:
    """Run one unit in a fresh interpreter; adds setup_s and duration_s."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, "--seed", str(seed), *flags]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=UNIT_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise UnitError(f"{' '.join(argv[1:])} timed out after {UNIT_TIMEOUT_S} s") from exc
    end = time.perf_counter()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise UnitError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - start
    out["duration_s"] = end - start
    return out


def run_units(specs: list[tuple]) -> list[dict]:
    """Run units side by side, one process each; results in the order given."""
    with ThreadPoolExecutor(max_workers=len(specs)) as pool:
        return list(pool.map(lambda spec: run_unit(*spec), specs))


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics of one run, with its units."""
    setups = [run_unit(workload, seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    walls, units = [], []
    start = time.perf_counter()
    while True:
        batch_start = time.perf_counter()
        wall = 0.0
        for phase in BATCHES[workload]:
            done = run_units([(workload, seed, *flags) for flags in phase])
            wall += statistics.median(sum(u["wall_s"].values()) for u in done)
            units += done
        walls.append(wall)
        now = time.perf_counter()
        if now - start + (now - batch_start) > seconds:
            break
    setups += [u["setup_s"] for u in units]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, units


def check_agreement(units: list[dict]) -> None:
    """Units of one workload and seed must produce the same outputs."""
    digests = {u["digest"] for u in units}
    if len(digests) > 1:
        units[0]["errors"].append(f"units disagree on their outputs: digests {sorted(digests)}")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers every waited-for
    # descendant, so the pool workers and the CLI processes are included
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def workload_figures(workload: str, units: list[dict]) -> dict[str, tuple[float, str]]:
    """The workload's own figures, medians over its units."""
    def med(section):
        return statistics.median(u["wall_s"][section] for u in units if section in u["wall_s"])

    if workload == "battery":
        return {"battery_s": (med("battery"), "s")}
    if workload == "sweep":
        return {"sweep_w1_s": (med("w1"), "s"), "sweep_w2_s": (med("w2"), "s")}
    p50, p95 = percentiles([ms for u in units for ms in u["calls_ms"]])
    return {"cli_p50_ms": (p50, "ms"), "cli_p95_ms": (p95, "ms")}


def trace(seed: int) -> tuple[dict, list[dict]]:
    """Per-layer metrics from one traced pass over all three workloads."""
    # The untraced and the traced battery run side by side, one per core, so
    # that the machine's drifting speed hits both alike and their difference
    # is the tracer's cost.
    plain, traced = run_units([("battery", seed), ("battery", seed, "--trace")])
    sweep_traced = run_unit("sweep", seed, "--workers", "1", "--trace")
    pooled = run_unit("sweep", seed, "--workers", "2")
    units = {"battery": traced, "sweep": sweep_traced, "cli": run_unit("cli", seed, "--trace")}
    check_agreement([plain, traced])
    check_agreement([sweep_traced, pooled])
    metrics = {}
    for workload, functions in TRACED.items():
        stats = units[workload]["trace"]["functions"]
        for fn in functions:
            metrics[f"{workload}.{fn}.calls"] = stats[fn]["calls"]
            metrics[f"{workload}.{fn}.self_s"] = stats[fn]["self_s"]
    caches = traced["trace"]["caches"]
    for cache, info in caches.items():
        metrics[f"battery.{cache}.hits"] = info["hits"]
        metrics[f"battery.{cache}.misses"] = info["misses"]
    metrics["battery.totient.arithmetic_profile.currsize"] = caches["totient.arithmetic_profile"]["currsize"]
    # the workers=2 sweep runs untraced; its parent only waits on the pool
    metrics["sweep.distribution.sweep_range.wait_s"] = pooled["wall_s"]["w2"]
    # check and pin spans come from the untraced unit: the tracer's cost
    # follows each check's call count, so traced spans are not the program's
    for check, seconds in plain["checks_s"].items():
        metrics[f"verify.check.{check.replace('/', '.')}_s"] = seconds
    metrics["verify.pins_s"] = plain["pins_s"]
    cli = units["cli"]["trace"]
    metrics["cli.interpreter_ms"] = cli["interpreter_ms"]
    metrics["cli.import_ms"] = cli["import_ms"]
    for cmd in CLI_COMMANDS:
        metrics[f"cli.main_ms.{cmd}"] = cli["main_ms"][cmd]
    battery_s = plain["wall_s"]["battery"]
    metrics["trace.overhead_s"] = traced["wall_s"]["battery"] - battery_s
    unaccounted = battery_s - sum(plain["checks_s"].values()) - plain["pins_s"]
    if abs(unaccounted) > 0.01 * battery_s:
        plain["errors"].append(f"check and pin spans leave {unaccounted:.3f} s of run_checks unaccounted")
    return metrics, [plain, traced, sweep_traced, pooled, units["cli"]]


def tally(units: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) over units; each error is one failed operation."""
    attempted = sum(u["attempted"] for u in units)
    errors = [e for u in units for e in u["errors"]]
    return attempted, min(len(errors), attempted), errors


def write_sidecar(name: str, payload: dict) -> str:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cotsum benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cotsum", "__init__.py")):
        print(f"no cotsum source tree under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        # compile the bytecode once, as an installed package would have it
        subprocess.run([sys.executable, "-c", "import cotsum.cli"], env=child_env(), cwd=ROOT,
                       check=True, capture_output=True, timeout=UNIT_TIMEOUT_S)
        if args.trace:
            metrics, units = trace(args.seed)
            units_of = per_layer_units()
        else:
            metrics, units = measure(args.workload, args.seed, args.seconds)
            check_agreement(units)
            units_of = END_TO_END
    except (UnitError, subprocess.SubprocessError) as exc:
        print(f"benchmark unit failed: {exc}", file=sys.stderr)
        return 2

    attempted, failed, errors = tally(units)
    sidecar = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "metrics": metrics, "errors": errors, "units": units}
    path = write_sidecar(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", sidecar)

    print(f"workload {args.workload}, seed {args.seed}, {len(units)} unit(s), sidecar {os.path.relpath(path, ROOT)}")
    if not args.trace:
        for name, (value, unit) in workload_figures(args.workload, units).items():
            print(f"  {name:<14} {value:.6g} {unit}")
        print(f"  {'digest':<14} {units[0]['digest']}")
    print(f"  {'failed_ratio':<14} {failed / attempted:.6g} ({failed}/{attempted})")
    for err in errors[:20]:
        print(f"  FAILED: {err}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
