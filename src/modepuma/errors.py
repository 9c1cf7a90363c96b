"""Exception hierarchy shared across the toolkit, the integer, bounded
integer, real and weight checks of its input types, and the text-file reader
that turns undecodable input into one of its errors."""

import math
import numbers

import numpy as np


class ValidationError(ValueError):
    """Input violates a documented precondition or type invariant."""


class DimensionError(ValidationError):
    """Matrix/vector dimensions are incompatible with the operation."""


class SingularityError(ArithmeticError):
    """A matrix that must be invertible is numerically singular."""


class NumericalError(ArithmeticError):
    """An iterative numerical procedure failed to produce a usable result."""


def check_integer(name, value):
    """A ValidationError naming *name* unless *value* is an integer.

    Any ``numbers.Integral`` is one (``np.int64`` included) but a bool, so
    a float is rejected, not truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def check_count(name, value, least, below=None):
    """``value``, or a ValidationError unless it is an integer in [least, below).

    The one rule of every integer size, degree, count and seed:
    ``check_integer``, then ``need <name> >= <least>, got <value>``, then,
    where ``below`` is given, ``need <name> < <below>, got <value>``.  The
    bounds are compared with ``int(value)``, so a numpy integer meets one
    past its own range (a seed's 2**64) exactly.
    """
    check_integer(name, value)
    if int(value) < least:
        raise ValidationError(f"need {name} >= {least}, got {value}")
    if below is not None and int(value) >= below:
        raise ValidationError(f"need {name} < {below}, got {value}")
    return value


def check_real(name, value, least=None):
    """``float(value)``, or a ValidationError unless it is a finite real number, at least ``least``.

    The one rule of every real scalar input (an SNR, a noise power, a
    threshold, a scale): any ``numbers.Real`` but a bool, neither NaN nor
    infinite, else ``<name> must be a finite real number, got <value!r>``;
    then, where ``least`` is given, ``need <name> >= <least>, got
    <value>``.  An integer past float range counts as infinite.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        real = real and math.isfinite(value)
    except OverflowError:  # an integer past float range
        real = False
    if not real:
        raise ValidationError(f"{name} must be a finite real number, got {value!r}")
    if least is not None and value < least:
        raise ValidationError(f"need {name} >= {least}, got {value}")
    return float(value)


def check_weight(weight, r):
    """``weight`` as a float array, or a ValidationError unless it is r finite real numbers.

    The one rule of every weight G = diag(g) of a criterion or solver: a
    sequence that numpy cannot make an array of, then a shape other than
    (r,), then entries that are not integers or floats (a bool, a complex
    number, a string), then a NaN or an infinity.  The sign is not checked.
    """
    try:
        g = np.asarray(weight)
    except ValueError as exc:
        raise ValidationError(f"need a weight of {r} entries, got a ragged sequence") from exc
    if g.shape != (r,):
        raise ValidationError(f"need a weight of {r} entries, got shape {g.shape}")
    if g.dtype.kind not in "iuf":
        raise ValidationError(f"need a weight of real numbers, got dtype {g.dtype}")
    g = np.asarray(g, dtype=float)
    values = g.tolist()
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"need a finite weight, got {values}")
    return g


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
