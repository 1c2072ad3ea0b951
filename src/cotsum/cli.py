"""Command line front end.

A command that runs to the end prints one JSON record of the shape
{"command", "inputs", "outputs", "status"} (sweep instead emits its table in
csv or json form). Exit codes:

    0  success, everything consistent
    1  an invariant or cross-check failed
    2  malformed usage or argument values
    3  a documented mathematical precondition was violated
    4  an output path could not be written

A record's status picks its exit code in one table, `_EXIT_CODES`, which
`_emit` reads; an exception that ends a command prints no record, and `main`
maps InvariantError to 1, ValueError to 2, PreconditionError to 3 and OSError to 4.

Each command imports the layers it runs inside its own function, so a cold
`eval`, `classify` or `totient` call never loads `verify` or `distribution`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict, fields
from math import gcd
from typing import TextIO

from .errors import InvariantError, PreconditionError

__all__ = ["build_parser", "main"]

_EXIT_CODES = {"ok": 0, "inconsistent": 1, "precondition_violation": 3}


def _emit(command: str, inputs: dict, outputs: dict, status: str = "ok") -> int:
    """Print the record and return its exit code."""
    print(json.dumps({"command": command, "inputs": inputs, "outputs": outputs, "status": status}, indent=2))
    return _EXIT_CODES[status]


def _precondition(command: str, inputs: dict, exc: Exception) -> int:
    code = _emit(command, inputs, {"error": str(exc)}, "precondition_violation")
    print(f"precondition violated: {exc}", file=sys.stderr)
    return code


def cmd_eval(args: argparse.Namespace) -> int:
    from . import core, numeric

    inputs = {"n": args.n, "a": args.a, "b": args.b, "mode": args.mode}
    outputs: dict[str, object] = {}
    exact_value = approx = None
    if args.mode in ("exact", "both"):
        exact_value = core.eval_exact(args.n, args.a, args.b)
        outputs["exact"] = str(exact_value)
    if args.mode in ("float", "both"):
        approx = numeric.eval_float(args.n, args.a, args.b)
        outputs["float"] = approx.value
        outputs["term_count"] = approx.term_count
        outputs["abs_bound"] = approx.abs_bound
    if args.mode == "both":
        diff = abs(float(exact_value) - approx.value)
        tolerance = numeric.tol(args.b)
        outputs["abs_diff"] = diff
        outputs["tolerance"] = tolerance
        outputs["within_tolerance"] = diff <= tolerance
    status = "ok" if outputs.get("within_tolerance", True) else "inconsistent"
    return _emit("eval", inputs, outputs, status)


# the multiple of b that 3r + k + 1 lands on, written as the congruence it proves
_PREDICATES = {1: "b=3a+k+1", 2: "2b=3a+k+1", 3: "3b=3a+k+1"}


def cmd_classify(args: argparse.Namespace) -> int:
    from . import core

    inputs = {"a": args.a, "b": args.b, "strict": args.strict}
    try:
        value = core.classify(args.a, args.b, strict=args.strict)
    except PreconditionError as exc:
        return _precondition("classify", inputs, exc)
    outputs: dict[str, object] = {"tag": value.tag.value, "exact": str(value.exact)}
    predicate = None
    try:
        w = core.master_witness(args.a, args.b)
    except PreconditionError:  # b divides 3a, as for r = 0 or b = 3
        outputs.update({"witness_k": None, "witness_nu": None, "boundary_count": None})
    else:
        outputs.update({"witness_k": w.k, "witness_nu": w.nu, "boundary_count": w.e1k})
        if gcd(args.a, args.b) == 1:  # r = a mod b is in [1, b - 1], so 3r + k + 1 is b, 2b or 3b
            predicate = _PREDICATES[(3 * (args.a % args.b) + w.k + 1) // args.b]
    outputs["predicate"] = predicate
    return _emit("classify", inputs, outputs)


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import distribution

    distribution._check_sweep_args(args.b_lo, args.b_hi, args.workers)
    with _open_output(args.out) as out:
        reports = distribution.sweep_range(args.b_lo, args.b_hi, workers=args.workers)
        rows = [asdict(rep) for rep in reports]
        if args.b_lo <= 3 <= args.b_hi:
            rows.insert(3 - args.b_lo, {"b": 3, "skipped": True})
        if args.format == "json":
            out.write(json.dumps(rows, indent=2) + "\n")
        else:
            lines = [",".join(f.name for f in fields(distribution.SweepReport))]
            for row in rows:
                if "skipped" in row:
                    lines.append("3,,,,,,,,skipped")
                else:  # each cell as JSON writes it: an int, or true / false
                    lines.append(",".join(map(json.dumps, row.values())))
            out.write("\n".join(lines) + "\n")
    return 0 if all(rep.consistent for rep in reports) else 1


def cmd_totient(args: argparse.Namespace) -> int:
    from . import totient

    bounds = totient.RangeBound(args.lo, args.hi)  # parses both, rejects lo > hi
    inputs = {"n": args.n, "lo": str(bounds.lo), "hi": str(bounds.hi), "method": args.method}
    integral = bounds.lo.denominator == 1 and bounds.hi.denominator == 1
    outputs: dict[str, object] = {}
    # counted first so an n too large to factorize is refused before the gcd scan
    mobius = totient.phi_range_mobius(args.n, bounds) if args.method in ("mobius", "all") else None
    if args.method in ("direct", "all"):
        outputs["direct"] = totient.phi_range_direct(args.n, bounds)
    if mobius is not None:
        outputs["mobius"] = mobius
    want_approx = args.method == "approx" or (args.method == "all" and integral and args.n > 1)
    if want_approx:
        if not integral:
            raise ValueError("the approximation needs integer bounds")
        try:
            ap = totient.phi_approx(args.n, int(bounds.lo), int(bounds.hi))
        except PreconditionError as exc:
            return _precondition("totient", inputs, exc)
        outputs["approx_estimate"] = str(ap.estimate)
        outputs["approx_exact"] = ap.exact
        outputs["approx_error"] = str(ap.error)
        outputs["approx_bound"] = ap.bound
    if args.method == "all":
        direct = outputs["direct"]
        outputs["consistent"] = outputs["mobius"] == direct == outputs.get("approx_exact", direct)
    status = "ok" if outputs.get("consistent", True) else "inconsistent"
    return _emit("totient", inputs, outputs, status)


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    verify._check_run_args(args.max_b, args.max_n, args.seed, args.workers)
    with _open_output(args.report) as out:
        report = verify.run_checks(
            max_b=args.max_b, max_n=args.max_n, seed=args.seed, workers=args.workers
        )
        for check in report["checks"]:
            mark = "pass" if check["passed"] else "FAIL"
            print(f"[{mark}] {check['module']}/{check['name']} ({check['cases']} cases)", file=sys.stderr)
        for rec in report["expected_discrepancies"]:
            mark = "pass" if rec["matches_pin"] else "FAIL"
            print(f"[{mark}] pinned/{rec['name']}", file=sys.stderr)
        out.write(verify.report_text(report))
    return 0 if report["summary"]["ok"] else 1


def _open_output(path: str) -> contextlib.AbstractContextManager[TextIO]:
    """The stream a command writes its output to: stdout for -, else the file at path.

    `sweep` and `verify` open it after their argument checks and before the
    work, so an unwritable path exits 4 at once. The file is created or
    emptied then and written whole once the work is done; a run stopped in
    between (an interrupt, or an error the work raises) leaves it empty.
    """
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotsum",
        description="exact cubic cotangent sums, their classification, and coprime range counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate S(n, a, b) exactly, in floats, or both")
    p.add_argument("-n", type=int, required=True, help="outer multiplier n")
    p.add_argument("-a", type=int, required=True, help="numerator a")
    p.add_argument("-b", type=int, required=True, help="modulus b >= 2")
    p.add_argument("--mode", choices=("exact", "float", "both"), default="both")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("classify", help="tag S(1, a, b) and report its congruence witness")
    p.add_argument("-a", type=int, required=True, help="numerator a")
    p.add_argument("-b", type=int, required=True, help="modulus b >= 2")
    p.add_argument("--strict", action="store_true", help="reject b = 3 and non-coprime a")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="tabulate the value distribution for a range of moduli")
    p.add_argument("b_lo", type=int)
    p.add_argument("b_hi", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.add_argument("--workers", type=int, default=1, help="processes at once, this one included; at most one per CPU and modulus")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("totient", help="count coprime integers in a rational range")
    p.add_argument("n", type=int)
    p.add_argument("lo")
    p.add_argument("hi")
    p.add_argument("--method", choices=("direct", "mobius", "approx", "all"), default="all")
    p.set_defaults(func=cmd_totient)

    p = sub.add_parser("verify", help="run the identity battery and write a JSON report")
    p.add_argument("--max-b", type=int, default=100)
    p.add_argument("--max-n", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default="-", help="report path, - for stdout")
    p.add_argument("--workers", type=int, default=1, help="processes at once, this one included; at most one per CPU and at most two")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 4
