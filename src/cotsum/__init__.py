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
    numeric       float oracle with compensated summation
    totient       coprime counts and sums over rational ranges
    distribution  per-modulus sweeps of the value distribution
    verify        the machine-checkable identity battery
    cli           command line front end
"""

from .core import (
    CotSumValue,
    CotTag,
    MasterWitness,
    classify,
    eval_exact,
    master_witness,
    predicate_minus,
    predicate_plus,
    predicate_zero,
)
from .distribution import SweepReport, closed_form_counts, sweep, sweep_range
from .errors import PreconditionError
from .exact import BoundaryCount, boundary_count, frac_part, shifted_frac_part
from .numeric import (
    NumericResult,
    agrees,
    cot_cos_power_sum,
    cot_sin2_sum,
    eval_float,
    frac_part_via_sine_sum,
    tol,
)
from .totient import (
    ArithmeticProfile,
    PhiApproximation,
    PhiDecomposition,
    RangeBound,
    arithmetic_profile,
    coprime_sum,
    divisor_partition_by_divisor,
    divisor_partition_identity,
    euler_phi,
    legendre_phi,
    phi_approx,
    phi_decomposition,
    phi_range_direct,
    phi_range_mobius,
    phi_range_mobius_half_open,
    spf_sieve,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "ArithmeticProfile",
    "BoundaryCount",
    "CheckResult",
    "CotSumValue",
    "CotTag",
    "MasterWitness",
    "NumericResult",
    "PhiApproximation",
    "PhiDecomposition",
    "PreconditionError",
    "RangeBound",
    "SweepReport",
    "agrees",
    "arithmetic_profile",
    "boundary_count",
    "classify",
    "closed_form_counts",
    "coprime_sum",
    "cot_cos_power_sum",
    "cot_sin2_sum",
    "divisor_partition_by_divisor",
    "divisor_partition_identity",
    "euler_phi",
    "eval_exact",
    "eval_float",
    "frac_part",
    "frac_part_via_sine_sum",
    "legendre_phi",
    "master_witness",
    "phi_approx",
    "phi_decomposition",
    "phi_range_direct",
    "phi_range_mobius",
    "phi_range_mobius_half_open",
    "predicate_minus",
    "predicate_plus",
    "predicate_zero",
    "run_checks",
    "shifted_frac_part",
    "spf_sieve",
    "sweep",
    "sweep_range",
    "tol",
    "__version__",
]
