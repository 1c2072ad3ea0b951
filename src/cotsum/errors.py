"""The three failure kinds, the one integer-argument rule and S's operand rule.

Each kind has its own type, none a subclass of another, so no handler of one
can swallow another: a malformed argument raises ValueError (CLI exit 2), one
outside a formula's hypothesis PreconditionError (exit 3), and a result that
breaks a proven identity InvariantError (exit 1). `check_int` is the rule for
an integer argument, its floor and its ceiling both, and `check_operands`
applies it to the operands of S(n, a, b) in the order n, a, b for every entry
that takes them, with the ceiling on b of an entry that has one.

Every message that prints a caller's number prints it through `shown`, so a
refusal keeps its kind and names its argument at any size: CPython will not
turn an int of more than sys.get_int_max_str_digits() digits (4,300 by
default) into text, and raises its own ValueError, naming no argument, when
asked to.
"""

from collections.abc import Callable


class PreconditionError(Exception):
    """A documented mathematical hypothesis was violated: the formula does not apply here."""


class InvariantError(Exception):
    """A result failed the self-check of a proven identity: a bug, not a bad argument."""


def shown(value: object, form: Callable[[object], str] = format) -> str:
    """value as a message prints it (`format` for `{value}`, `repr` for `{value!r}`), or its size.

    The size stands in only where CPython refuses to print the value: an int
    past sys.get_int_max_str_digits() digits is named by its bits, and a
    Fraction or container holding one by its type.
    """
    try:
        return form(value)
    except ValueError:
        if isinstance(value, int):
            return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit int"
        return f"a {type(value).__name__} too long to print"


def check_int(what: str, value: object, least: int | None = None, most: int | None = None) -> None:
    """Refuse anything but a plain int in [least, most] with a ValueError; None is no bound.

    bool is an int but never stands for a count, so it is refused too; a
    float, str or Fraction is refused even when it holds a whole number. A
    value that is not an int, or is below least, is refused as "must be an
    integer >= least"; an int above most as "must be at most most".
    """
    # an exact int in range (5.8 M calls per battery) skips the isinstance
    # chain; anything else, int subclasses included, takes the rule below
    if type(value) is int and (least is None or value >= least) and (most is None or value <= most):
        return
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        bound = "" if least is None else f" >= {shown(least)}"
        raise ValueError(f"{what} must be an integer{bound}, got {shown(value, repr)}")
    if most is not None and value > most:
        raise ValueError(f"{what} must be at most {most}, got {shown(value)}")


def check_operands(n: object, a: object, b: object, most_b: int | None = None) -> None:
    """S's operand rule: n and a at least 1, the modulus b in [2, most_b], checked in that order."""
    check_int("n", n, 1)
    check_int("a", a, 1)
    check_int("modulus b", b, 2, most_b)
