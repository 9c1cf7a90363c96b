"""
Subspace-fitting criterion functions.

Three criteria over annihilator coefficients c (or angles phi):

* V_ML(phi)  = tr{ P_A_perp R_hat }
* V_ML(c)    = tr{ (T T*)^-1 T R_hat T* }
* V_MODE(c)  = tr{ (T T*)^-1 T U G U* T* }
* V_PUMA(c)  = e* W e  with  e = vec(T U),  W = G kron (T T*)^-1

V_PUMA is deliberately evaluated through the explicit Kronecker form, as
an independent code path from the trace form, so that the identity
V_PUMA = V_MODE can be certified numerically rather than assumed.
"""

from dataclasses import dataclass

import numpy as np

from .array_model import (
    guarded_gram,
    projector_from_steering,
    steering_matrix,
    toeplitz_annihilator,
)
from .errors import DimensionError, check_weight


@dataclass(frozen=True)
class CriterionValue:
    value: float
    residual_diagnostics: dict | None = None


def vec(matrix):
    """Column-stacking vectorization."""
    return np.asarray(matrix).reshape(-1, order="F")


def _trace_gram_inverse(T, inner):
    """tr{ (T T*)^-1 inner } by a linear solve, after the COND_LIMIT guard on T T*."""
    gram, cond = guarded_gram(T, "T T*")
    val = float(np.real(np.trace(np.linalg.solve(gram, inner))))
    return CriterionValue(value=val, residual_diagnostics={"gram_cond": cond})


def v_ml_angles(angles, cov):
    """tr{ P_A_perp R_hat } evaluated at a set of candidate angles."""
    R = np.asarray(cov)
    A = steering_matrix(angles, R.shape[0])
    proj = projector_from_steering(A)
    return CriterionValue(value=float(np.real(np.trace(proj @ R))))


def v_ml_coefs(coefs, cov):
    """tr{ (T T*)^-1 T R_hat T* } in the coefficient parameterization."""
    R = np.asarray(cov)
    T = toeplitz_annihilator(coefs, R.shape[0])
    return _trace_gram_inverse(T, T @ R @ T.conj().T)


def v_mode(coefs, decomp, weight):
    """tr{ (T T*)^-1 T U G U* T* }, the weighted signal-subspace fit.

    G = diag(weight), of r finite real numbers (``check_weight``).
    """
    U = decomp.u_signal
    g = check_weight(weight, U.shape[1])
    T = toeplitz_annihilator(coefs, U.shape[0])
    TU = T @ U
    return _trace_gram_inverse(T, (TU * g) @ TU.conj().T)


def v_puma(coefs, decomp, weight):
    """e* W e with e = vec(T U) and W = G kron (T T*)^-1, built explicitly.

    This path intentionally materializes the Kronecker weighting matrix
    instead of delegating to :func:`v_mode`; the agreement of the two
    routes is the property under test elsewhere.  The weight meets
    ``check_weight``, as in :func:`v_mode`.
    """
    U = decomp.u_signal
    g = check_weight(weight, U.shape[1])
    T = toeplitz_annihilator(coefs, U.shape[0])
    gram, cond = guarded_gram(T, "T T*")
    W = np.kron(np.diag(g), np.linalg.inv(gram))
    e = vec(T @ U)
    val = float(np.real(e.conj() @ W @ e))
    return CriterionValue(value=val, residual_diagnostics={"gram_cond": cond})


def vec_matrix_identity_residual(X, Y, Z):
    """| vec(XYZ) - (Z^T kron X) vec(Y) | for conformable X, Y, Z."""
    X, Y, Z = np.asarray(X), np.asarray(Y), np.asarray(Z)
    if X.shape[1] != Y.shape[0] or Y.shape[1] != Z.shape[0]:
        raise DimensionError("X, Y, Z are not conformable")
    lhs = vec(X @ Y @ Z)
    rhs = np.kron(Z.T, X) @ vec(Y)
    return float(np.max(np.abs(lhs - rhs)))


def trace_vec_identity_residual(X, Y):
    """| tr{X* Y} - vec(X)* vec(Y) | for same-shaped X, Y."""
    X, Y = np.asarray(X), np.asarray(Y)
    if X.shape != Y.shape:
        raise DimensionError("X and Y must have the same shape")
    lhs = np.trace(X.conj().T @ Y)
    rhs = vec(X).conj() @ vec(Y)
    return float(abs(lhs - rhs))
