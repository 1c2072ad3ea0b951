"""Exact cubic cotangent sums and coprime range counting.

The central object is S(n, a, b), the sum over m of cot(pi*m/b) times the
cube of sin(2*pi*m*n*a/b). It is always rational; for n = 1, gcd(a, b) = 1
and b != 3 it can only be 0, +b/2 or -b/2, with the winner determined by a
single congruence witness. The package evaluates S exactly, classifies it,
checks every step against a floating-point oracle, and ships the coprime
counting toolkit (generalized totients over rational ranges) that the
distribution of the three values rests on.

Modules:
    exact         fractional parts, boundary counts (Fraction arithmetic)
    core          evaluation and classification through one integer kernel,
                  congruence witnesses
    numeric       float oracle summed with correctly rounded math.fsum
    totient       coprime counts and sums over rational ranges
    distribution  per-modulus sweeps of the value distribution
    verify        the machine-checkable identity battery
    cli           command line front end
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining submodule. Nothing is imported until a name is first
# read (PEP 562), so `import cotsum` and each CLI subcommand load only the
# layers they use.
_EXPORTS = {
    "ArithmeticProfile": "totient",
    "BoundaryCount": "exact",
    "CheckResult": "verify",
    "CotSumValue": "core",
    "CotTag": "core",
    "InvariantError": "errors",
    "MasterWitness": "core",
    "NumericResult": "numeric",
    "PhiApproximation": "totient",
    "PhiDecomposition": "totient",
    "PreconditionError": "errors",
    "RangeBound": "totient",
    "SweepReport": "distribution",
    "agrees": "numeric",
    "arithmetic_profile": "totient",
    "boundary_count": "exact",
    "classify": "core",
    "closed_form_counts": "distribution",
    "coprime_sum": "totient",
    "cot_cos_power_sum": "numeric",
    "cot_sin2_sum": "numeric",
    "divisor_partition_by_divisor": "totient",
    "divisor_partition_identity": "totient",
    "euler_phi": "totient",
    "eval_exact": "core",
    "eval_float": "numeric",
    "frac_part": "exact",
    "frac_part_via_sine_sum": "numeric",
    "legendre_phi": "totient",
    "master_witness": "core",
    "phi_approx": "totient",
    "phi_decomposition": "totient",
    "phi_range_direct": "totient",
    "phi_range_mobius": "totient",
    "phi_range_mobius_half_open": "totient",
    "predicate_minus": "core",
    "predicate_plus": "core",
    "predicate_zero": "core",
    "run_checks": "verify",
    "shifted_frac_part": "exact",
    "spf_sieve": "totient",
    "sweep": "distribution",
    "sweep_range": "distribution",
    "tol": "numeric",
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli"}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
