"""
Uniform linear array geometry and algebra.

Steering matrices, the banded Toeplitz annihilator built from polynomial
coefficients, conversion between direction angles and polynomial
coefficients, and the two equivalent orthogonal projectors.

Angles are electrical angles phi in (-pi, pi]; no wavelength or element
spacing enters anywhere.
"""

import math

import numpy as np

from .errors import DimensionError, SingularityError, ValidationError, check_integer

# Condition-number ceiling beyond which Gram matrices are treated as singular.
COND_LIMIT = 1e12

# Margin of every certified COND_LIMIT decision: a certified bound on a
# condition number decides the rule without an eigenvalue solve only within
# it, which absorbs the rounding of the Gram and of its eigenvalues.
CERTIFY_LIMIT = COND_LIMIT / 100


def hermitian_gram(X):
    """X X*, or that of each of a stack, symmetrized so that it is Hermitian to the last bit."""
    gram = X @ X.conj().swapaxes(-1, -2)
    return 0.5 * (gram + gram.conj().swapaxes(-1, -2))


def condition_number(gram):
    """2-norm condition of a Hermitian Gram, or each of a stack; inf unless positive definite."""
    w = np.linalg.eigvalsh(gram)
    if w.ndim == 1:
        return float(w[-1] / w[0]) if w[0] > 0 else np.inf
    lo = w[..., 0]
    return np.divide(w[..., -1], lo, out=np.full(lo.shape, np.inf), where=lo > 0)


def guarded_gram(X, what):
    """``hermitian_gram(X)`` and its condition number, checked against COND_LIMIT.

    Raises SingularityError naming ``what`` when the condition number
    exceeds COND_LIMIT (or the Gram is not positive definite).
    """
    gram = hermitian_gram(X)
    cond = condition_number(gram)
    if cond > COND_LIMIT:
        raise SingularityError(f"{what} is numerically singular")
    return gram, cond


def guarded_inverse(X, what):
    """The inverse of ``hermitian_gram(X)``, under the rule and with the bits of ``guarded_gram``.

    Returns ``(inverse, cond)``, the inverse from ``np.linalg.inv``, and
    raises SingularityError naming ``what`` exactly where ``guarded_gram``
    does.  The Gram passes without an eigenvalue solve when
    ||G||_F ||G^-1||_F, a bound on its condition number, is within
    CERTIFY_LIMIT; only the undecided rest go through
    ``condition_number``.  cond is that bound where it decided, else the
    condition number.  A Gram that ``inv`` cannot invert is singular too.
    """
    gram = hermitian_gram(X)
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        inv, cond = None, np.inf
    else:
        cond = math.sqrt(np.vdot(gram, gram).real) * math.sqrt(np.vdot(inv, inv).real)
    if not cond <= CERTIFY_LIMIT:  # NaN is undecided too
        if inv is not None:
            cond = condition_number(gram)
        if cond > COND_LIMIT:
            raise SingularityError(f"{what} is numerically singular")
    return inv, cond


def as_angles(angles):
    """Validated float array of direction-of-arrival angles in radians.

    Needs at least one angle, every angle in (-pi, pi] (NaN rejected),
    strictly ascending.  Always a new array, so a Scenario holding it does
    not change with the caller's input.
    """
    arr = np.array(angles, dtype=float, ndmin=1)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError("need a 1-D set of at least one angle")
    if not np.all((arr > -np.pi) & (arr <= np.pi)):
        raise ValidationError("angles must lie in (-pi, pi]")
    if np.any(np.diff(arr) <= 0):
        raise ValidationError("angles must be strictly ascending and distinct")
    return arr


def as_coefs(coefs):
    """Validated complex array of polynomial coefficients c_0 ... c_q.

    The coefficients parameterize the annihilating polynomial
    c_0 + c_1 z + ... + c_q z^q, constant term first: 1-D, degree q >= 1,
    finite, c_0 nonzero.
    """
    arr = np.atleast_1d(np.asarray(coefs, dtype=complex))
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError("coefficients need degree >= 1 (length >= 2)")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("coefficients must be finite")
    if arr[0] == 0:
        raise ValidationError("leading coefficient c_0 must be nonzero")
    return arr


def steering_matrix(angles, m):
    """m x r Vandermonde steering matrix with generator exp(j*phi_i) per column.

    Parameters
    ----------
    angles : sequence of radians, checked by ``as_angles``
    m : int
        Sensor count (``check_integer``); must exceed the number of angles,
        else a DimensionError.
    """
    phi = as_angles(angles)
    check_integer("m", m)
    if m <= phi.size:
        raise DimensionError(f"need m > r, got m={m}, r={phi.size}")
    return np.exp(1j * np.outer(np.arange(m), phi))


def coefs_from_angles(angles):
    """Expand prod_k (1 - exp(-j*phi_k) z) into coefficients with c_0 = 1.

    The resulting polynomial has roots exactly {exp(j*phi_k)}.
    """
    c = np.array([1.0 + 0.0j])
    for phi in as_angles(angles).tolist():
        c = np.convolve(c, [1.0, -np.exp(-1j * phi)])
    return c


def angles_from_coefs(coefs):
    """Roots of the coefficient polynomial, projected to the unit circle.

    Returns the arguments of the q roots of c_0 + c_1 z + ... + c_q z^q,
    sorted ascending in (-pi, pi].  Requires c_q != 0 so the degree does
    not collapse.
    """
    c = as_coefs(coefs)
    if c[-1] == 0:
        raise ValidationError("trailing coefficient c_q is zero; degree collapsed")
    # The companion matrix np.roots(c[::-1]) builds, so the same roots to
    # the bit; it has no zero end coefficients to strip, as c_0, c_q != 0.
    q = c.size - 1
    companion = np.eye(q, k=-1, dtype=complex)
    companion[0] = -c[-2::-1] / c[-1]
    roots = np.linalg.eigvals(companion)
    if not np.all(np.isfinite(roots.view(float))):
        raise ValidationError("root finding produced non-finite roots")
    phi = np.angle(roots)
    phi[phi <= -np.pi] = np.pi
    return np.sort(phi)


def toeplitz_annihilator(coefs, m):
    """(m-q) x m banded Toeplitz annihilator T, with T @ steering_matrix = 0.

    q is the polynomial degree; row i carries the coefficients c_0 ... c_q
    starting at column i.  m is an integer (``check_integer``) above q,
    else a DimensionError.
    """
    c = as_coefs(coefs)
    check_integer("m", m)
    q = c.size - 1
    if m <= q:
        raise DimensionError(f"need m > q, got m={m}, q={q}")
    return _toeplitz(c, m)


def _toeplitz(c, m):
    """``toeplitz_annihilator`` of a checked complex c, unvalidated.

    One strided write: rows of length m + 1 that start with c, read back
    m at a time, shift c one column further in each row.
    """
    q = c.size - 1
    T = np.zeros((m - q) * (m + 1), dtype=complex)
    T.reshape(m - q, m + 1)[:, : q + 1] = c
    return T[: (m - q) * m].reshape(m - q, m)


def projector_from_annihilator(T):
    """Orthogonal projector T* (T T*)^-1 T onto the row space of T."""
    T = np.asarray(T, dtype=complex)
    gram, _ = guarded_gram(T, "T T*")
    proj = T.conj().T @ np.linalg.solve(gram, T)
    return 0.5 * (proj + proj.conj().T)


def projector_from_steering(A):
    """Orthogonal projector I - A (A* A)^-1 A* onto the complement of R(A).

    Formed as I - Q Q* from a QR factorization of A rather than from the
    normal equations, which square the condition number of closely spaced
    steering columns.
    """
    A = np.asarray(A, dtype=complex)
    guarded_gram(A.conj().T, "A* A")
    Q, _ = np.linalg.qr(A)
    proj = np.eye(A.shape[0], dtype=complex) - Q @ Q.conj().T
    return 0.5 * (proj + proj.conj().T)
