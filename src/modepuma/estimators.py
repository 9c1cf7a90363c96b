"""
Minimizers of the weighted subspace-fitting criterion.

MODE and PUMA minimize the same criterion, V_MODE(c) = c* Q(Omega) c at
Omega = (T T*)^-1, and run one reweighted loop, ``_reweighted_solve``:
solve for c at the current Omega, stop at the fixed point, else reweight
Omega at c.  They differ only in the constraint step and the tolerance:

* ``mode_two_step`` — ``_symmetric_step``, the eigenvector solve over
  conjugate-symmetric, unit-norm c, stopped after its one reweight (the
  classic two-step scheme).
* ``puma_iterative`` — ``_gauge_step``, the linear solve under the
  c_0 = 1 gauge, run until c / c_0 stops changing.
* ``modex`` — solves at degree r + p, then picks the best r of the r + p
  candidate directions by the ML criterion over all subsets; with the
  PUMA base (Enhanced PUMA) both solves run PUMA's step and tolerance.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .array_model import (
    COND_LIMIT,
    angles_from_coefs,
    condition_number,
    hermitian_gram,
    toeplitz_annihilator,
)
from .criteria import v_mode
from .errors import SingularityError, ValidationError

_METHODS = ("MODE", "PUMA", "MODEX")

# Subsets per stacked block in ``_score_subsets``.  Fixed, so the stacked
# temporaries (block x m x r) stay small whatever the subset count.
_SUBSET_BLOCK = 64

# Most candidate subsets ``modex`` will score; the count grows as
# C(2r + p, r), so a larger request is rejected before any solve.
_MAX_SUBSETS = 100_000

# Iteration cap of ``_reweighted_solve``, and the relative change of c / c_0
# at which PUMA's loop counts as at its fixed point.
_MAX_ITERATIONS = 20
_RELATIVE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class EstimatorConfig:
    method: str = "MODE"
    p_extra: int = 0
    modex_base: str = "MODE"  # base solver for the extra-coefficient search

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(f"method must be one of {_METHODS}")
        if self.p_extra < 0:
            raise ValidationError("p_extra must be >= 0")
        if self.p_extra > 0 and self.method != "MODEX":
            raise ValidationError("p_extra is only meaningful for MODEX")
        if self.modex_base not in ("MODE", "PUMA"):
            raise ValidationError("modex_base must be MODE or PUMA")


@dataclass(frozen=True)
class EstimationResult:
    angles: np.ndarray
    coefs: np.ndarray
    criterion_value: float
    iterations_used: int
    converged: bool
    candidate_log: list | None = field(default=None, compare=False)
    criterion_history: list | None = field(default=None, compare=False)


def quadratic_form_matrix(decomp, weight, omega, q):
    """Hermitian PSD matrix Q with c* Q c = tr{ Omega T U G U* T* }.

    The map c -> vec(T U) is linear: vec(T U) = Phi c with
    Phi[l*(m-q) + i, k] = U[i + k, l].  Then Q = Phi* (G kron Omega) Phi,
    accumulated column-block by column-block.
    """
    _check_degree(decomp, q)
    U = decomp.u_signal
    g = np.asarray(weight, dtype=float)
    m, r = U.shape
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (m - q, m - q):
        raise ValidationError("omega must be (m-q) x (m-q)")
    Q = np.zeros((q + 1, q + 1), dtype=complex)
    # Hankel slices Phi_l[i, k] = U[i + k, l], gathered through one index array.
    hankel = np.arange(m - q)[:, None] + np.arange(q + 1)
    for l in range(r):
        Phi_l = U[hankel, l]
        Q += g[l] * (Phi_l.conj().T @ omega @ Phi_l)
    return 0.5 * (Q + Q.conj().T)


def _conjugate_symmetric_basis(n):
    """Orthonormal columns J_k with c = J @ rho conjugate-symmetric for real rho.

    Re(J* J) = I, so c* Q c over unit-norm c is rho^T Re(J* Q J) rho over
    unit-norm rho: a standard symmetric eigenproblem.
    """
    cols = []
    half = n // 2
    eye = np.eye(n, dtype=complex)
    s = np.sqrt(0.5)
    for k in range(half):
        cols.append(s * (eye[:, k] + eye[:, n - 1 - k]))
        cols.append(s * 1j * (eye[:, k] - eye[:, n - 1 - k]))
    if n % 2:
        cols.append(eye[:, half])
    return np.column_stack(cols)


def _omega_from_coefs(c, m):
    """(T T*)^-1 at c, and whether T T* passed COND_LIMIT.

    A Gram past COND_LIMIT is regularized by 1e-12 of its mean eigenvalue
    before the inverse; one still singular after that is a SingularityError.
    """
    gram = hermitian_gram(toeplitz_annihilator(c, m))
    ok = condition_number(gram) <= COND_LIMIT
    if not ok:
        eps = 1e-12 * np.trace(gram).real / gram.shape[0]
        gram = gram + eps * np.eye(gram.shape[0])
        if condition_number(gram) == np.inf:
            raise SingularityError("T T* singular even after regularization")
    return np.linalg.inv(gram), ok


def _symmetric_step(Q):
    """MODE's step: the conjugate-symmetric, unit-norm c minimizing c* Q c."""
    J = _conjugate_symmetric_basis(Q.shape[0])
    M = np.real(J.conj().T @ Q @ J)
    _, vecs = np.linalg.eigh(0.5 * (M + M.T))
    c = J @ vecs[:, 0]
    return c / np.linalg.norm(c)


def _gauge_step(Q):
    """PUMA's step: c = (1, tail), Q[1:,1:] tail = -Q[1:,0]; minimum-norm tail when singular."""
    Q11, rhs = Q[1:, 1:], -Q[1:, 0]
    if condition_number(Q11) <= COND_LIMIT:
        try:
            tail = np.linalg.solve(Q11, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(f"gauge-fixed solve failed: {exc}") from exc
    else:
        tail, *_ = np.linalg.lstsq(Q11, rhs, rcond=None)
    return np.concatenate(([1.0 + 0.0j], tail))


def _reweighted_solve(decomp, weight, q, step, tolerance):
    """Minimize c* Q(Omega) c by ``step``, reweighting Omega = (T T*)^-1 at c.

    Starts from Omega = I.  After each solve past the first it stops when
    c / c_0 changed by at most ``tolerance`` (relative): the coefficients
    are at the reweighting fixed point, and that last iterate is returned.
    Otherwise it reweights at the new c through ``_omega_from_coefs``.  A
    regularized Gram, or a stop at ``_MAX_ITERATIONS`` solves, flags the
    result not converged; a Gram singular even after regularization
    returns the current c, also not converged.  Returns
    ``(c, iterations, converged, history)``; ``history`` holds V_MODE of
    every iterate before the last, read as c* Q c off the next solve's
    quadratic form.
    """
    _check_degree(decomp, q)
    m = decomp.m
    c = step(quadratic_form_matrix(decomp, weight, np.eye(m - q, dtype=complex), q))
    converged, history = True, []
    for iters in range(2, _MAX_ITERATIONS + 1):
        try:
            omega, ok = _omega_from_coefs(c, m)
        except SingularityError:
            return c, iters - 1, False, history
        converged = converged and ok
        Q = quadratic_form_matrix(decomp, weight, omega, q)
        history.append(float(np.real(c.conj() @ Q @ c)))
        prev, c = c, step(Q)
        a = c / c[0]  # drops the scale and sign MODE's unit eigenvector leaves free
        if np.linalg.norm(a - prev / prev[0]) <= tolerance * np.linalg.norm(a):
            return c, iters, converged, history
    return c, _MAX_ITERATIONS, False, history


# Constraint step and tolerance of each base solver.  MODE's +inf stops at
# the first change it can measure, after one reweight: the classic two-step.
_SOLVERS = {
    "MODE": (_symmetric_step, np.inf),
    "PUMA": (_gauge_step, _RELATIVE_TOLERANCE),
}


def _solve_and_roots(decomp, weight, q, base):
    """``base``'s reweighted solve at degree q: (c, root angles, iterations, converged, history).

    The roots are taken with a vanishing end coefficient nudged to 1e-14 max |c|,
    as ``angles_from_coefs`` needs c_0, c_q != 0; c is returned as solved.
    """
    c, iterations, converged, history = _reweighted_solve(decomp, weight, q, *_SOLVERS[base])
    ends = c.copy()
    floor = 1e-14 * np.max(np.abs(c))
    for k in (0, -1):
        if abs(ends[k]) < floor:
            ends[k] = floor
    return c, angles_from_coefs(ends), iterations, converged, history


def _coef_estimate(decomp, weight, r, method):
    """Run ``method``'s solve at degree r; V_MODE of c computed once."""
    c, angles, iterations, converged, history = _solve_and_roots(decomp, weight, r, method)
    value = v_mode(c, decomp, weight).value
    return EstimationResult(
        angles=angles,
        coefs=c,
        criterion_value=value,
        iterations_used=iterations,
        converged=converged,
        criterion_history=history + [value],
    )


def mode_two_step(decomp, weight, r):
    """MODE: the reweighted symmetric solve, stopped after its one reweight.

    Solves with Omega = I, then once more with Omega = (T T*)^-1 at that
    solution, and returns the second solution.
    """
    return _coef_estimate(decomp, weight, r, "MODE")


def puma_iterative(decomp, weight, r):
    """PUMA: the reweighted c_0 = 1 solve at degree r, run to its fixed point.

    Returns the last iterate; ``criterion_history`` holds V_MODE of every
    iterate, and a stop at the iteration cap is flagged not converged.
    """
    return _coef_estimate(decomp, weight, r, "PUMA")


def _check_degree(decomp, q):
    # The solver builds its Omega = I start (m - q square) before the first
    # quadratic form, so it checks q up front too.
    if not (0 < q < decomp.m):
        raise ValidationError(f"need 0 < q < m, got q={q}, m={decomp.m}")


def modex(cov, decomp, weight, r, config):
    """Extra-coefficient estimation with ML subset selection.

    Runs the base solver twice, at degree r and at degree q = r + p_extra,
    pools the r + (r + p) candidate angles from both roots sets, scores
    every r-subset with the ML criterion on the sample covariance, and
    returns the minimizing subset.  Pooling keeps the plain estimate in
    the running, so the selection can only match or improve on it;
    the extended roots supply the alternatives that matter when a
    subspace swap corrupts the plain fit.  Subsets with near-coincident
    candidates or a numerically singular steering Gram score +inf; the
    first minimum wins ties.  ``candidate_log`` lists every subset with
    its score in ``itertools.combinations`` order.  More than
    ``_MAX_SUBSETS`` subsets is a ``ValidationError``.
    """
    p = config.p_extra
    if p >= decomp.m - r:
        raise ValidationError(
            f"p_extra must satisfy p < m - r, got p={p}, m={decomp.m}, r={r}"
        )
    q = r + p
    n_subsets = math.comb(r + q, r) if p > 0 else 1
    if n_subsets > _MAX_SUBSETS:
        raise ValidationError(
            f"MODEX would score C({r + q}, {r}) = {n_subsets} candidate subsets, "
            f"over the limit of {_MAX_SUBSETS}"
        )

    base = config.modex_base
    c, candidates, iters, converged, _ = _solve_and_roots(decomp, weight, r, base)
    if p > 0:
        c, extra, extra_iters, extra_conv, _ = _solve_and_roots(decomp, weight, q, base)
        iters += extra_iters
        converged = converged and extra_conv
        candidates = np.sort(np.concatenate([candidates, extra]))
    subsets, scores = _score_subsets(candidates, cov, r)
    finite = np.isfinite(scores)
    if not np.any(finite):
        raise SingularityError("no valid candidate subset (all rank-deficient)")
    phi = candidates[subsets]
    best = int(np.argmin(np.where(finite, scores, np.inf)))
    return EstimationResult(
        angles=phi[best].copy(),
        coefs=c,
        criterion_value=float(scores[best]),
        iterations_used=iters,
        converged=converged,
        candidate_log=list(zip(map(tuple, phi.tolist()), scores.tolist())),
    )


def _score_subsets(candidates, cov, r):
    """ML criterion tr{ P_A_perp R } of every r-subset of the candidates.

    Returns ``(subsets, scores)``: the index rows of
    ``itertools.combinations(range(K), r)`` in its order, and one score per
    row.  A subset scores +inf when two consecutive candidates differ by
    less than 1e-12, or when its Gram A* A fails the COND_LIMIT guard of
    ``v_ml_angles``.  The rest score tr R - tr(Q* R Q), with Q from a
    stacked QR of their steering columns.  The guard is read off the same
    QR first: with A = Q R_A, cond(A* A) <= ||R_A||_F^(2r) / prod |R_A,kk|^2,
    so a subset whose bound is within COND_LIMIT / 100 passes.  Only the
    undecided rest go through ``eigvalsh`` of their Gram, gathered from the
    Gram of all K candidates.  Subsets are walked in blocks of
    ``_SUBSET_BLOCK`` so the stacked temporaries stay small.
    """
    R = np.asarray(cov)
    m = R.shape[0]
    A = np.exp(1j * np.outer(np.arange(m), candidates))
    G = A.conj().T @ A
    n = math.comb(len(candidates), r)
    subsets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(len(candidates)), r)),
        dtype=np.intp,
        count=n * r,
    ).reshape(n, r)
    live = np.all(np.diff(candidates[subsets], axis=1) >= 1e-12, axis=1)
    scores = np.full(n, np.inf)
    trace_r = np.real(np.trace(R))
    for start in range(0, n, _SUBSET_BLOCK):
        rows = start + np.flatnonzero(live[start : start + _SUBSET_BLOCK])
        idx = subsets[rows]
        Q, R_A = np.linalg.qr(A.T[idx].transpose(0, 2, 1))
        frob2 = np.sum(np.abs(R_A) ** 2, axis=(1, 2))
        diag2 = np.abs(np.diagonal(R_A, axis1=1, axis2=2)) ** 2
        with np.errstate(divide="ignore", over="ignore"):
            bound = np.prod(frob2[:, None] / diag2, axis=1)
        ok = bound <= COND_LIMIT / 100
        if not np.all(ok):
            gram = G[idx[~ok, :, None], idx[~ok, None, :]]
            w = np.linalg.eigvalsh(0.5 * (gram + gram.conj().transpose(0, 2, 1)))
            lo, hi = w[:, 0], w[:, -1]
            passed = (lo > 0) & (hi > 0)
            passed[passed] = hi[passed] / lo[passed] <= COND_LIMIT
            ok[~ok] = passed
        Q = Q[ok]
        fit = np.real(np.sum(Q.conj() * (R @ Q), axis=(1, 2)))
        scores[rows[ok]] = trace_r - fit
    return subsets, scores


def estimate(cov, decomp, weight, r, config):
    """Dispatch on config.method; MODEX additionally needs the covariance."""
    if config.method == "MODE":
        return mode_two_step(decomp, weight, r)
    if config.method == "PUMA":
        return puma_iterative(decomp, weight, r)
    return modex(cov, decomp, weight, r, config)


def match_angles(estimate_angles, truth_angles):
    """Wrap-aware pairing of two equally sized angle sets.

    Both sets are sorted ascending and paired by the cyclic shift of the
    sorted estimates with the least squared error, so sets that straddle
    +-pi pair across the wrap.  The per-pair error is the principal value
    of (estimate - truth) in (-pi, pi], ordered like the sorted truth.
    Returns (errors, rmse).
    """
    est = np.sort(np.atleast_1d(np.asarray(estimate_angles, dtype=float)))
    tru = np.sort(np.atleast_1d(np.asarray(truth_angles, dtype=float)))
    if est.shape != tru.shape:
        raise ValidationError("angle sets must have equal length")
    n = tru.size
    shifts = (np.arange(n)[:, None] + np.arange(n)) % n
    d = est[shifts] - tru
    errs = np.mod(d + np.pi, 2 * np.pi) - np.pi
    errs[errs == -np.pi] = np.pi
    err = errs[np.argmin(np.sum(errs**2, axis=1))]
    rmse = float(np.sqrt(np.mean(err**2)))
    return err, rmse
