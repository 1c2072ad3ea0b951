"""The three failure kinds and the one integer-argument rule.

Each kind has its own type, none a subclass of another, so no handler of one
can swallow another: a malformed argument raises ValueError (CLI exit 2), one
outside a formula's hypothesis PreconditionError (exit 3), and a result that
breaks a proven identity InvariantError (exit 1).
"""


class PreconditionError(Exception):
    """A documented mathematical hypothesis was violated: the formula does not apply here."""


class InvariantError(Exception):
    """A result failed the self-check of a proven identity: a bug, not a bad argument."""


def check_int(what: str, value: object, least: int | None = None) -> None:
    """Refuse anything but a plain int of at least `least` with a ValueError.

    bool is an int but never stands for a count, so it is refused too; a
    float, str or Fraction is refused even when it holds a whole number.
    """
    # an exact int in range (5.8 M calls per battery) skips the isinstance
    # chain; anything else, int subclasses included, takes the rule below
    if type(value) is int and (least is None or value >= least):
        return
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{what} must be an integer{bound}, got {value!r}")
