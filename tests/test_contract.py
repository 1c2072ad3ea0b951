"""The failure contract at every public entry, drawn by Hypothesis.

Every callable in `cotsum.__all__` is called with arguments drawn from small
and huge ints of either sign (past CPython's 4,300-digit limit on printing
an int), bool, float, str, Fraction, None and objects of the wrong type.
Each call must return, or raise one of the three failure kinds with a
message that never holds CPython's own text for an int too long to print,
and must finish within _BOUND_S seconds, timed with signal.setitimer.

- Valid arguments run for seconds by design in `run_checks`, `sweep` and
  `sweep_range`, so every positional argument of theirs is drawn, none left
  to its default, and their ints come from [-3, 16] only. No draw of any
  entry is a valid float-sum modulus or gcd-scan width above 40.
- A result record (every dataclass but `RangeBound`, which takes a caller's
  endpoints) is built from fields of its declared types: ints and
  Fractions of any size and sign, any float, a `CotTag`. A factor table of
  an `ArithmeticProfile` is a tuple of such int pairs, or a real profile's
  table of n <= 60.
- `CotTag(value)` is the enum module's own lookup, whose refusal prints the
  value with repr; only its kind is checked.
"""

import dataclasses
import inspect
import signal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cotsum
from cotsum import totient
from cotsum.errors import InvariantError, PreconditionError

KINDS = (ValueError, PreconditionError, InvariantError)
LIMIT_TEXT = "Exceeds the limit"

# per call; the dearest draw, run_checks(16, 16, seed, workers), took
# 0.25-0.45 s over 25 calls at workers 1, 2 and 16, the first of a fresh
# interpreter included (2-vCPU x86-64 host, Python 3.11)
_BOUND_S = 3.0

_HUGE = 10**5000
_SMALL_INTS = st.integers(-40, 40)
_INTS = _SMALL_INTS | st.sampled_from([10**30, -(10**30), _HUGE, -_HUGE, _HUGE + 1, -(_HUGE + 1), 3 * _HUGE])
_FRACTIONS = st.fractions(-40, 40, max_denominator=12) | st.sampled_from(
    [Fraction(_HUGE, 3), Fraction(-_HUGE), Fraction(1, _HUGE), Fraction(10**30, 7)]
)
_WRONG_TYPES = st.sampled_from(
    [object(), [1], (1, 2), {}, b"3", 2j, [_HUGE], (_HUGE,), cotsum.CotTag.ZERO, cotsum.RangeBound(1, 5), cotsum.eval_float(1, 2, 5)]
)
_OTHERS = st.booleans() | st.floats() | st.text(max_size=6) | _FRACTIONS | st.none() | _WRONG_TYPES
ANY = _INTS | _OTHERS
BOUNDED = st.integers(-3, 16) | _OTHERS
_BOUNDED_ENTRIES = {"run_checks", "sweep", "sweep_range"}

_PROFILES = [totient._profile.__wrapped__(k) for k in range(1, 61)]  # uncached: no test's cache moves
_PAIRS = st.lists(st.tuples(_INTS, _INTS), max_size=3).map(tuple)
_FIELDS = {
    "int": _INTS | st.booleans(),
    "Fraction": _FRACTIONS,
    "float": st.floats(),
    "bool": st.booleans(),
    "CotTag": st.sampled_from(cotsum.CotTag),
    "str": st.text(max_size=6),
    "dict | None": st.none() | st.dictionaries(st.text(max_size=3), _INTS, max_size=2),
}

CALLABLES = [name for name in cotsum.__all__ if callable(getattr(cotsum, name))]
RECORDS = [name for name in CALLABLES if dataclasses.is_dataclass(getattr(cotsum, name)) and name != "RangeBound"]
ENTRIES = [name for name in CALLABLES if name not in RECORDS]


class _Overrun(Exception):
    pass


def _alarm(signum, frame):
    raise _Overrun(f"a call ran past {_BOUND_S} s")


def _call(name, args=(), kwargs=None):
    """Call the entry: within _BOUND_S it returns, or raises one of KINDS without CPython's limit text."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, _BOUND_S)
    try:
        getattr(cotsum, name)(*args, **(kwargs or {}))
    except KINDS as exc:
        assert name == "CotTag" or LIMIT_TEXT not in str(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _arity(entry) -> tuple[int, int]:
    """(least, most) positional arguments entry takes; an exception class takes any."""
    try:
        params = inspect.signature(entry).parameters.values()
    except ValueError:
        return 0, 3
    positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return sum(p.default is p.empty for p in positional), len(positional)


def test_every_public_callable_is_drawn():
    assert len(CALLABLES) == len(cotsum.__all__) - 1  # all but __version__
    assert {"CotSumValue", "MasterWitness", "ArithmeticProfile"} <= set(RECORDS)
    assert {"CotTag", "InvariantError", "RangeBound", "run_checks", "agrees"} <= set(ENTRIES)


@pytest.mark.parametrize("name", ENTRIES)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_entry_returns_or_raises_a_failure_kind_promptly(name, data):
    least, most = (1, 1) if name == "CotTag" else _arity(getattr(cotsum, name))
    if name in _BOUNDED_ENTRIES:  # every argument drawn: no default-sized battery
        least, values = most, BOUNDED
    else:
        values = ANY
    args = data.draw(st.lists(values, min_size=least, max_size=most), label="args")
    _call(name, args)


@pytest.mark.parametrize("name", RECORDS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_record_builds_or_raises_a_failure_kind_promptly(name, data):
    kwargs = {}
    for f in dataclasses.fields(getattr(cotsum, name)):
        if f.type in _FIELDS:
            kwargs[f.name] = data.draw(_FIELDS[f.type], label=f.name)
        else:  # a factor table of ArithmeticProfile
            real = st.sampled_from(_PROFILES).map(lambda profile, name=f.name: getattr(profile, name))
            kwargs[f.name] = data.draw(_PAIRS | real, label=f.name)
    _call(name, kwargs=kwargs)
