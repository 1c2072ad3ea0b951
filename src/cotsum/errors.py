"""Shared exception types and the one integer-argument rule."""


class PreconditionError(Exception):
    """A documented mathematical hypothesis was violated.

    Distinct from ValueError so callers (and the CLI, which maps this to
    exit code 3) can tell "the formula does not apply here" apart from
    "the argument is malformed".
    """


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
