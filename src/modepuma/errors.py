"""Exception hierarchy shared across the toolkit, and the text-file reader
that turns undecodable input into one of its errors."""


class ValidationError(ValueError):
    """Input violates a documented precondition or type invariant."""


class DimensionError(ValidationError):
    """Matrix/vector dimensions are incompatible with the operation."""


class SingularityError(ArithmeticError):
    """A matrix that must be invertible is numerically singular."""


class NumericalError(ArithmeticError):
    """An iterative numerical procedure failed to produce a usable result."""


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
