"""
Plain-text snapshot file format.

Header line ``# m=<m> T=<T>`` followed by one snapshot per line, each with
m complex entries written as ``re+imj`` tokens separated by whitespace.
"""

import re

import numpy as np

from .errors import ValidationError, read_text_lines
from .sample_stats import check_covariance_size


def write_snapshots(path, Y):
    """Write an m x T complex snapshot matrix to *path*."""
    Y = np.asarray(Y, dtype=complex)
    if Y.ndim != 2:
        raise ValidationError("snapshot matrix must be 2-D (m x T)")
    m, T = Y.shape
    # One %-format per line over the interleaved (re, im) of each snapshot;
    # "%.17g%+.17gj" writes the bytes of f"{re:.17g}{im:+.17g}j".
    line = " ".join(["%.17g%+.17gj"] * m) + "\n"
    rows = np.ascontiguousarray(Y.T).view(float).tolist()
    with open(path, "w") as fh:
        fh.write(f"# m={m} T={T}\n")
        fh.writelines(line % tuple(row) for row in rows)


# numpy reads "1+-2j" as 1-2j and "1++2j" as 1+2j; complex() rejects both.
# They are the only tokens numpy takes that complex() does not, and no token
# that both take parses to different bits.
_LENIENT_SIGNS = re.compile(r"\+[+-]")


def read_snapshots(path):
    """Read a snapshot file back into an m x T complex matrix.

    Tokens are read as Python's ``complex()`` reads them. A file that is
    not UTF-8 text is a ValidationError.
    """
    header, *lines = read_text_lines(path) or [""]
    if not header.startswith("#"):
        raise ValidationError(f"{path}:1: missing '# m=<m> T=<T>' header")
    try:
        fields = dict(tok.split("=") for tok in header[1:].split())
        m, T = int(fields["m"]), int(fields["T"])
    except (ValueError, KeyError) as exc:
        raise ValidationError(f"{path}:1: malformed header: {exc}") from exc
    if T < 1 or m < 1:
        raise ValidationError(f"{path}:1: need m >= 1 and T >= 1")
    try:  # before the body is parsed
        check_covariance_size(m)
    except ValidationError as exc:
        raise ValidationError(f"{path}:1: {exc}") from None
    rows = _c_rows(lines, m)  # row t = snapshot t
    if rows is None:
        rows = _token_rows(path, lines, m)
    # The header's m and T are only compared with what was read, never used
    # to size an allocation, so a wrong count is a validation error.
    if len(rows) != T:
        raise ValidationError(
            f"{path}:{min(len(rows), T) + 2}: expected {T} snapshot lines, got {len(rows)}"
        )
    bad = np.argwhere(~np.isfinite(rows))  # (t, k) pairs in file order
    if bad.size:
        t, k = bad[0]
        raise ValidationError(
            f"{path}:{t + 2}: column {k + 1}: non-finite value {rows[t, k]}"
        )
    return rows.T.copy()


def _c_rows(lines, m):
    """Parse *lines* with numpy's C reader, or return None if it cannot vouch for them.

    None when the first line has no token (loadtxt would warn of no data),
    when a lenient sign pair occurs, when loadtxt raises, or when it skipped
    a blank line or found other than m columns; ``_token_rows`` then reads
    the lines and names the fault.
    """
    if not lines or not lines[0].split() or _LENIENT_SIGNS.search("".join(lines)):
        return None
    try:
        rows = np.loadtxt(lines, dtype=complex, comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape == (len(lines), m) else None


def _token_rows(path, lines, m):
    """Parse *lines* token by token with ``complex()``, naming the first bad one."""
    values = []
    for lineno, line in enumerate(lines, 2):
        tokens = line.split()
        if len(tokens) != m:
            raise ValidationError(
                f"{path}:{lineno}: expected {m} entries, got {len(tokens)}"
            )
        for k, tok in enumerate(tokens):
            try:
                values.append(complex(tok))
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:{lineno}: column {k + 1}: bad complex token {tok!r}"
                ) from exc
    return np.array(values, dtype=complex).reshape(-1, m)
