"""The package surface and the import graph: lazy names, no module binding a
sibling's private name, and each CLI subcommand loading only the layers it
runs (checked in fresh interpreters)."""

import ast
import pathlib
import sys

import pytest
from conftest import run_python

import cotsum

PUBLIC = [
    "ArithmeticProfile",
    "BoundaryCount",
    "CheckResult",
    "CotSumValue",
    "CotTag",
    "InvariantError",
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


def test_no_module_binds_a_siblings_private_name():
    # a private name is read through its module at call time, so a patch of
    # the defining module (a golden-net mutant, say) reaches every caller
    bound = [
        (path.name, alias.name)
        for path in sorted(pathlib.Path(cotsum.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert bound == []


def test_all_is_pinned():
    assert cotsum.__all__ == PUBLIC


@pytest.mark.parametrize("name", [n for n in PUBLIC if n != "__version__"])
def test_each_name_is_the_defining_modules_object(name):
    value = getattr(cotsum, name)
    assert value.__module__.startswith("cotsum.")
    assert getattr(sys.modules[value.__module__], name) is value
    assert vars(cotsum)[name] is value  # cached after the first read


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from cotsum import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["classify"] is cotsum.classify


def test_dir_lists_every_name():
    assert set(PUBLIC) <= set(dir(cotsum))


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        cotsum.no_such_name  # noqa: B018
    assert not hasattr(cotsum, "Fraction")  # the stdlib class is not re-exported
    with pytest.raises(ImportError):
        exec("from cotsum import no_such_name", {})


LOADED_AFTER = """
import contextlib, io, sys
argv = sys.argv[1:]
if argv:
    from cotsum import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
else:
    import cotsum
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "cotsum")))
"""


def loaded_after(*argv: str) -> set[str]:
    """The cotsum modules a fresh interpreter holds after cli.main(argv) (or bare import)."""
    proc = run_python("-c", LOADED_AFTER, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def layers(*names: str) -> set[str]:
    return {"cotsum", *(f"cotsum.{n}" for n in names)}


@pytest.mark.parametrize(
    "argv,expected",
    [
        ((), layers()),
        (("eval", "-n", "2", "-a", "3", "-b", "7"), layers("cli", "errors", "core", "exact", "numeric")),
        (("classify", "-a", "2", "-b", "5"), layers("cli", "errors", "core", "exact")),
        (("totient", "12", "5", "17"), layers("cli", "errors", "totient")),
        (("sweep", "2", "6"), layers("cli", "errors", "core", "exact", "totient", "distribution")),
    ],
    ids=["import", "eval", "classify", "totient", "sweep"],
)
def test_each_subcommand_imports_only_its_layers(argv, expected):
    assert loaded_after(*argv) == expected


def test_lazy_names_and_submodules_resolve_in_a_fresh_interpreter():
    code = (
        "import sys, cotsum\n"
        "assert 'cotsum.verify' not in sys.modules\n"
        "assert cotsum.verify is sys.modules['cotsum.verify']\n"
        "assert cotsum.run_checks is cotsum.verify.run_checks\n"
        "assert cotsum.cli.main.__module__ == 'cotsum.cli'\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
