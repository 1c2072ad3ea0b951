"""Command line front end.

Every command prints one JSON record of the shape
{"command", "inputs", "outputs", "status"} (sweep instead emits its table in
csv or json form). Exit codes:

    0  success, everything consistent
    1  an invariant or cross-check failed
    2  malformed usage or argument values
    3  a documented mathematical precondition was violated
    4  an output path could not be written

Each command imports the layers it runs inside its own function, so a cold
`eval`, `classify` or `totient` call never loads `verify` or `distribution`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import gcd

from .errors import PreconditionError

__all__ = ["OutputRecord", "build_parser", "main"]


@dataclass
class OutputRecord:
    command: str
    inputs: dict
    outputs: dict
    status: str  # "ok" | "inconsistent" | "precondition_violation"

    def render(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _emit(record: OutputRecord) -> None:
    print(record.render())


def _precondition(command: str, inputs: dict, exc: Exception) -> int:
    _emit(OutputRecord(command, inputs, {"error": str(exc)}, "precondition_violation"))
    print(f"precondition violated: {exc}", file=sys.stderr)
    return 3


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number")


def cmd_eval(args: argparse.Namespace) -> int:
    from . import core, numeric

    inputs = {"n": args.n, "a": args.a, "b": args.b, "mode": args.mode}
    outputs: dict[str, object] = {}
    status, code = "ok", 0
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
        if diff > tolerance:
            status, code = "inconsistent", 1
    _emit(OutputRecord("eval", inputs, outputs, status))
    return code


def _predicate_name(a: int, b: int) -> str | None:
    """Which window 3a + k + 1 landed in, written as the congruence it proves."""
    from . import core

    r = a % b
    if r == 0 or b == 3 or gcd(r, b) != 1:
        return None
    if core.predicate_zero(r, b):
        return "2b=3a+k+1"
    if core.predicate_plus(r, b):
        return "b=3a+k+1"
    if core.predicate_minus(r, b):
        return "3b=3a+k+1"
    return None


def cmd_classify(args: argparse.Namespace) -> int:
    from . import core

    inputs = {"a": args.a, "b": args.b, "strict": args.strict}
    try:
        value = core.classify(args.a, args.b, strict=args.strict)
    except PreconditionError as exc:
        return _precondition("classify", inputs, exc)
    outputs: dict[str, object] = {"tag": value.tag.value, "exact": str(value.exact)}
    try:
        w = core.master_witness(args.a, args.b)
    except PreconditionError:
        outputs.update({"witness_k": None, "witness_nu": None, "boundary_count": None})
    else:
        outputs.update({"witness_k": w.k, "witness_nu": w.nu, "boundary_count": w.e1k})
    outputs["predicate"] = _predicate_name(args.a, args.b)
    _emit(OutputRecord("classify", inputs, outputs, "ok"))
    return 0


_SWEEP_COLUMNS = (
    "b",
    "phi_b",
    "count_zero",
    "count_plus",
    "count_minus",
    "closed_zero",
    "closed_plus",
    "closed_minus",
    "consistent",
)


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import distribution

    reports = distribution.sweep_range(args.b_lo, args.b_hi, workers=args.workers)
    by_b = {rep.b: rep for rep in reports}
    if args.format == "json":
        payload: list[dict] = []
        for b in range(args.b_lo, args.b_hi + 1):
            payload.append({"b": 3, "skipped": True} if b == 3 else asdict(by_b[b]))
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [",".join(_SWEEP_COLUMNS)]
        for b in range(args.b_lo, args.b_hi + 1):
            if b == 3:
                lines.append("3,,,,,,,,skipped")
            else:
                rep = by_b[b]
                cells = [str(getattr(rep, col)) for col in _SWEEP_COLUMNS[:-1]]
                lines.append(",".join(cells + [str(rep.consistent).lower()]))
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0 if all(rep.consistent for rep in reports) else 1


def cmd_totient(args: argparse.Namespace) -> int:
    from . import totient

    inputs = {"n": args.n, "lo": str(args.lo), "hi": str(args.hi), "method": args.method}
    bounds = totient.RangeBound(args.lo, args.hi)  # rejects lo > hi
    integral = args.lo.denominator == 1 and args.hi.denominator == 1
    outputs: dict[str, object] = {}
    status, code = "ok", 0
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
            ap = totient.phi_approx(args.n, int(args.lo), int(args.hi))
        except PreconditionError as exc:
            return _precondition("totient", inputs, exc)
        outputs["approx_estimate"] = str(ap.estimate)
        outputs["approx_exact"] = ap.exact
        outputs["approx_error"] = str(ap.error)
        outputs["approx_bound"] = ap.bound
    if args.method == "all":
        consistent = outputs["direct"] == outputs["mobius"]
        if "approx_exact" in outputs:
            consistent = consistent and outputs["approx_exact"] == outputs["direct"]
        outputs["consistent"] = consistent
        if not consistent:
            status, code = "inconsistent", 1
    _emit(OutputRecord("totient", inputs, outputs, status))
    return code


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    report = verify.run_checks(
        max_b=args.max_b, max_n=args.max_n, seed=args.seed, workers=args.workers
    )
    for check in report["checks"]:
        mark = "pass" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['module']}/{check['name']} ({check['cases']} cases)", file=sys.stderr)
    for rec in report["expected_discrepancies"]:
        mark = "pass" if rec["matches_pin"] else "FAIL"
        print(f"[{mark}] pinned/{rec['name']}", file=sys.stderr)
    _write_text(args.report, verify.report_text(report))
    return 0 if report["summary"]["ok"] else 1


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("totient", help="count coprime integers in a rational range")
    p.add_argument("n", type=int)
    p.add_argument("lo", type=_rational)
    p.add_argument("hi", type=_rational)
    p.add_argument("--method", choices=("direct", "mobius", "approx", "all"), default="all")
    p.set_defaults(func=cmd_totient)

    p = sub.add_parser("verify", help="run the identity battery and write a JSON report")
    p.add_argument("--max-b", type=int, default=100)
    p.add_argument("--max-n", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default="-", help="report path, - for stdout")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
