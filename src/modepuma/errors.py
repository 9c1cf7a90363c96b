"""Exception hierarchy shared across the toolkit, the integer and count
checks of its input types, and the text-file reader that turns
undecodable input into one of its errors."""

import numbers


class ValidationError(ValueError):
    """Input violates a documented precondition or type invariant."""


class DimensionError(ValidationError):
    """Matrix/vector dimensions are incompatible with the operation."""


class SingularityError(ArithmeticError):
    """A matrix that must be invertible is numerically singular."""


class NumericalError(ArithmeticError):
    """An iterative numerical procedure failed to produce a usable result."""


def check_integer(name, value, kind="an integer"):
    """A ValidationError naming *name* unless *value* is an integer.

    Any ``numbers.Integral`` is one (``np.int64`` included) but a bool, so
    a float is rejected, not truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be {kind}, got {value!r}")


def check_count(name, value, least):
    """``value``, or a ValidationError unless it is an integer of at least ``least``.

    The one rule of every lower-bounded integer input: ``check_integer``,
    then ``need <name> >= <least>, got <value>``.
    """
    check_integer(name, value)
    if value < least:
        raise ValidationError(f"need {name} >= {least}, got {value}")
    return value


def read_text_lines(path):
    """Return the lines of the text file *path*, newlines translated to "\\n".

    A file that is not UTF-8 text is a ValidationError naming *path*.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start]
            raise ValidationError(f"{path}: not UTF-8 text (byte {bad:#04x}: {exc.reason})") from exc
