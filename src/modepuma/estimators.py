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
* ``modex`` — solves at degrees r and r + p, then picks the best r of the
  2r + p pooled roots by the ML criterion over all subsets
  (``_score_subsets``: subsets that share a prefix share its Cholesky
  factor, so each adds one row to it).  The degree-r solve keeps its
  base's rule.  The degree-(r + p) solve is a two-step for both bases:
  V_MODE is flat along the p directions c_r h there, so reweighting
  creeps instead of reaching a fixed point.  With the PUMA base (Enhanced
  PUMA) it starts from the weight of the plain solve's c.

Every Gram meets one rule, ``condition_number`` within ``COND_LIMIT``: the
reweight ends at the current c on a T T* past it, and nothing is regularized.
The reweight, PUMA's gauge block and both subset routes decide that rule
from a certified bound first, kept within one margin, COND_LIMIT / 100, and
solve for eigenvalues only where the bound leaves it open; the limit and
every decision are the same.  PUMA's gauge block is checked once per loop,
on the first solve, and bounded after that by cond(T T*) times that first
value (and the first weight's cond).  The subset tree's walk depends only on K, r and the block of
rows, so it is cached (``_block_plan``).
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .array_model import (
    COND_LIMIT,
    _toeplitz,
    angles_from_coefs,
    condition_number,
    guarded_inverse,
    hermitian_gram,
)
from .criteria import v_mode
from .errors import SingularityError, ValidationError

_METHODS = ("MODE", "PUMA", "MODEX")

# Live subsets per stacked block of ``_score_subsets``'s QR route, and W and
# N entries per block of leaves of its Gram route (r * r per leaf: 2048
# leaves at r = 4, 512 at r = 8).  Fixed, so the stacked temporaries stay
# small whatever the subset count.
_SUBSET_BLOCK = 64
_TREE_BLOCK = 32768

# ``_score_subsets`` keeps a subset's score from its r x r Grams only where
# its certified bound on cond(G_S), times tr R / score, is within
# _GRAM_BOUND: the score's relative error is then about eps * _GRAM_BOUND,
# under 4.5e-13.
_GRAM_BOUND = 2e3

# Fewest live subsets for the Gram route.  Its fixed cost, r levels of 20
# to 80 array operations, measured about 0.2 ms at r = 2 and 0.35 ms at
# r = 3 on one core, and outweighs the QR work it saves on fewer.  The two
# routes measured even near 60 live subsets at r = 2 and 90 to 120 at r = 3;
# moving the limit there would change which route scores those calls.
_GRAM_MIN_LIVE = 32

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
    modex_base: str = "MODE"  # MODEX's base solver: MODE, or PUMA for Enhanced PUMA

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(f"method must be one of {_METHODS}")
        if self.p_extra < 0:
            raise ValidationError("p_extra must be >= 0")
        if self.p_extra > 0 and self.method != "MODEX":
            raise ValidationError("p_extra is only meaningful for MODEX")
        if self.modex_base not in ("MODE", "PUMA"):
            raise ValidationError("modex_base must be MODE or PUMA")
        if self.modex_base != "MODE" and self.method != "MODEX":
            raise ValidationError("modex_base is only meaningful for MODEX")


@dataclass(frozen=True)
class EstimationResult:
    angles: np.ndarray
    coefs: np.ndarray
    criterion_value: float
    iterations_used: int
    converged: bool
    criterion_history: list | None = field(default=None, compare=False)
    # MODEX's (phi, scores): every candidate subset's angles and its score.
    _candidates: tuple | None = field(default=None, compare=False, repr=False)

    @functools.cached_property
    def candidate_log(self):
        """MODEX's ``[(subset angles, score), ...]``, or None; built on first read."""
        if self._candidates is None:
            return None
        phi, scores = self._candidates
        return list(zip(map(tuple, phi.tolist()), scores.tolist()))


def quadratic_form_matrix(decomp, weight, omega, q):
    """Hermitian PSD matrix Q with c* Q c = tr{ Omega T U G U* T* }.

    The map c -> vec(T U) is linear: vec(T U) = Phi c with
    Phi[l*(m-q) + i, k] = U[i + k, l].  Then Q = Phi* (G kron Omega) Phi,
    summed over the (m-q) x (q+1) Hankel slices Phi_l of ``_hankel_slices``
    by ``_quadratic_form``.
    """
    _check_degree(decomp, q)
    omega = np.asarray(omega, dtype=complex)
    m = decomp.m
    if omega.shape != (m - q, m - q):
        raise ValidationError("omega must be (m-q) x (m-q)")
    Phi, PhiH = _hankel_slices(decomp, q)
    return _quadratic_form(Phi, PhiH, np.asarray(weight, dtype=float), omega)


def _hankel_slices(decomp, q):
    """The r Hankel slices Phi_l[i, k] = U[i + k, l], stacked (r, m-q, q+1), and their adjoints."""
    m = decomp.m
    hankel = np.arange(m - q)[:, None] + np.arange(q + 1)
    Phi = decomp.u_signal.T[:, hankel]
    return Phi, Phi.conj().transpose(0, 2, 1)


def _quadratic_form(Phi, PhiH, g, omega):
    """Q = sum_l g_l Phi_l* Omega Phi_l over the stacked slices, symmetrized.

    The products are two stacked matmuls; the sum runs in slice order.
    """
    Z = (PhiH @ omega) @ Phi
    Q = np.zeros(Z.shape[1:], dtype=complex)
    for l in range(len(Z)):
        Q += g[l] * Z[l]
    return 0.5 * (Q + Q.conj().T)


@functools.lru_cache(maxsize=16)
def _conjugate_symmetric_basis(n):
    """Orthonormal columns J_k with c = J @ rho conjugate-symmetric for real rho.

    Re(J* J) = I, so c* Q c over unit-norm c is rho^T Re(J* Q J) rho over
    unit-norm rho: a standard symmetric eigenproblem.  Cached per n, and
    read-only.
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
    J = np.column_stack(cols)
    J.flags.writeable = False
    return J


def _omega_from_coefs(c, m):
    """(T T*)^-1 at c and a bound on its condition number, through ``guarded_inverse``.

    A T T* past COND_LIMIT is a SingularityError.  c is a step's solution,
    complex and of degree q < m, so only c_0 != 0 is checked before T is
    written.
    """
    if c[0] == 0:
        raise ValidationError("leading coefficient c_0 must be nonzero")
    return guarded_inverse(_toeplitz(c, m), "T T*")


def _symmetric_step(Q):
    """MODE's step: the conjugate-symmetric, unit-norm c minimizing c* Q c."""
    J = _conjugate_symmetric_basis(Q.shape[0])
    M = np.real(J.conj().T @ Q @ J)
    _, vecs = np.linalg.eigh(0.5 * (M + M.T))
    c = J @ vecs[:, 0]
    return c / np.linalg.norm(c)


def _gauge_step(Q, cond=None):
    """PUMA's step: c = (1, tail), Q[1:,1:] tail = -Q[1:,0]; minimum-norm tail when singular.

    The tail is solved for where cond(Q[1:,1:]) is within COND_LIMIT.
    ``cond`` is that condition number, or a certified bound on it within
    COND_LIMIT / 100; left None, ``condition_number`` reads it off the block.
    """
    Q11, rhs = Q[1:, 1:], -Q[1:, 0]
    if cond is None:
        cond = condition_number(Q11)
    if cond <= COND_LIMIT:
        try:
            tail = np.linalg.solve(Q11, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(f"gauge-fixed solve failed: {exc}") from exc
    else:
        tail, *_ = np.linalg.lstsq(Q11, rhs, rcond=None)
    return np.concatenate(([1.0 + 0.0j], tail))


def _reweighted_solve(decomp, weight, q, step, tolerance, *, start=None):
    """Minimize c* Q(Omega) c by ``step``, reweighting Omega = (T T*)^-1 at c.

    Starts from Omega = I, or from Omega at the degree-q coefficients
    ``start`` where their T T* is within COND_LIMIT.  After each solve
    past the first it stops when c / c_0 changed by at most ``tolerance``
    (relative): the coefficients are at the reweighting fixed point, and
    that last iterate is returned; a ``tolerance`` of +inf stops at the
    first check, after one reweight (the two-step).  Otherwise it reweights
    at the new c.  A T T* past COND_LIMIT there (``guarded_inverse``, the
    criteria's rule) returns the current c, and a stop at
    ``_MAX_ITERATIONS`` solves the last one, both not converged.  Returns
    ``(c, iterations, converged, history)``; ``history`` holds V_MODE of
    every iterate before the last, read as c* Q c off the next solve's
    quadratic form.  Each base's ``step`` and ``tolerance`` are in
    ``_SOLVERS``.

    PUMA's ``_gauge_step`` solves on the block Q_11 = Q[1:,1:], whose
    condition the loop checks once, on the first solve's Q.  With Phi'_l
    the slices without their first column and every g_l >= 0,
    x* Q_11(Omega) x = sum_l g_l (Phi'_l x)* Omega (Phi'_l x) lies between
    lambda_min(Omega) x* S_11 x and lambda_max(Omega) x* S_11 x, S = Q(I),
    so cond(Q_11(Omega)) <= cond(Omega) * cond(S_11), and cond(S_11) <=
    cond(Omega_1) * cond(Q_11(Omega_1)) for the first weight Omega_1.
    ``guarded_inverse`` bounds each cond(Omega) = cond(T T*) by
    ||T T*||_F ||(T T*)^-1||_F, and cond(I) = 1.  Where the product is
    within COND_LIMIT / 100 it stands for the block's eigenvalue check: the
    margin absorbs the rounding of the computed Q, Omega and eigenvalues,
    as in ``guarded_inverse`` and ``_qr_scores``, so every decision and
    every bit of c are the same.  A first block past COND_LIMIT, or a
    negative weight, leaves no bound.
    """
    _check_degree(decomp, q)
    m = decomp.m
    g = np.asarray(weight, dtype=float)
    Phi, PhiH = _hankel_slices(decomp, q)
    omega, omega_cond = np.eye(m - q, dtype=complex), 1.0
    if start is not None:
        try:
            omega, omega_cond = _omega_from_coefs(start, m)
        except SingularityError:
            pass
    Q = _quadratic_form(Phi, PhiH, g, omega)
    base = np.inf
    if step is _gauge_step:
        base = condition_number(Q[1:, 1:])
        c = step(Q, base)
        base = base * omega_cond if np.all(g >= 0) else np.inf
    else:
        c = step(Q)
    history = []
    for iters in range(2, _MAX_ITERATIONS + 1):
        try:
            omega, omega_cond = _omega_from_coefs(c, m)
        except SingularityError:
            return c, iters - 1, False, history
        Q = _quadratic_form(Phi, PhiH, g, omega)
        history.append(float(np.real(c.conj() @ Q @ c)))
        # c / c_0 drops the scale and sign MODE's unit eigenvector leaves
        # free; each iterate's is formed once, after its c_0 check.
        prev = c / c[0] if iters == 2 else a
        bound = base * omega_cond
        c = step(Q, bound) if bound <= COND_LIMIT / 100 else step(Q)
        a = c / c[0]
        if np.linalg.norm(a - prev) <= tolerance * np.linalg.norm(a):
            return c, iters, True, history
    return c, _MAX_ITERATIONS, False, history


# Constraint step and tolerance of each base solver; MODE's +inf makes it the two-step.
_SOLVERS = {
    "MODE": (_symmetric_step, np.inf),
    "PUMA": (_gauge_step, _RELATIVE_TOLERANCE),
}


def _roots(c):
    """Root angles of c, with a vanishing end coefficient nudged to 1e-14 max |c|.

    ``angles_from_coefs`` needs c_0, c_q != 0; c itself is left as solved.
    """
    ends = c.copy()
    floor = 1e-14 * np.max(np.abs(c))
    for k in (0, -1):
        if abs(ends[k]) < floor:
            ends[k] = floor
    return angles_from_coefs(ends)


def _coef_estimate(decomp, weight, r, method):
    """Run ``method``'s solve at degree r; V_MODE of c computed once."""
    c, iterations, converged, history = _reweighted_solve(decomp, weight, r, *_SOLVERS[method])
    angles = _roots(c)
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


def check_modex_size(m, r, p):
    """MODEX's size rule, shared with the sweep parser: p < m - r, C(2r + p, r) <= _MAX_SUBSETS."""
    if p >= m - r:
        raise ValidationError(f"p_extra must satisfy p < m - r, got p={p}, m={m}, r={r}")
    n_subsets = math.comb(2 * r + p, r) if p > 0 else 1
    if n_subsets > _MAX_SUBSETS:
        raise ValidationError(
            f"MODEX would score C({2 * r + p}, {r}) = {n_subsets} candidate subsets, "
            f"over the limit of {_MAX_SUBSETS}"
        )


def modex(cov, decomp, weight, r, config):
    """Extra-coefficient estimation with ML subset selection.

    Runs the base solver twice, at degree r by its own rule and at degree
    q = r + p_extra as a two-step (one reweight), pools the r + (r + p)
    candidate angles from both roots sets, scores
    every r-subset with the ML criterion on the sample covariance, and
    returns the minimizing subset.  Pooling keeps the plain estimate in
    the running, so the selection can only match or improve on it;
    the extended roots supply the alternatives that matter when a
    subspace swap corrupts the plain fit.  Subsets with near-coincident
    candidates or a numerically singular steering Gram score +inf; the
    first minimum wins ties.  ``candidate_log`` lists every subset with
    its score in ``itertools.combinations`` order; it is built from the
    kept angle and score arrays on first read.  More than
    ``_MAX_SUBSETS`` subsets is a ``ValidationError``.

    With the PUMA base (Enhanced PUMA) the extended two-step starts from
    Omega at the plain solve's c padded with p zeros, the inverse of
    the leading (m - q) block of the plain T T*; MODEX's starts from
    Omega = I.  Near the SNR threshold the two-step from Omega = I picks
    worse angles than PUMA's reweighting run to the cap, and this one does
    not (README).  ``iterations_used`` adds both solves' counts, so p > 0
    adds 2, or 1 where the extended reweight meets a T T* past COND_LIMIT;
    ``converged`` is the plain solve's flag, and false there too.
    """
    p = config.p_extra
    check_modex_size(decomp.m, r, p)
    base = config.modex_base
    step, tolerance = _SOLVERS[base]
    c, iters, converged, _ = _reweighted_solve(decomp, weight, r, step, tolerance)
    candidates = _roots(c)
    if p > 0:
        start = np.concatenate([c, np.zeros(p)]) if base == "PUMA" else None
        c, extra_iters, extra_conv, _ = _reweighted_solve(
            decomp, weight, r + p, step, np.inf, start=start
        )
        iters += extra_iters
        converged = converged and extra_conv
        candidates = np.sort(np.concatenate([candidates, _roots(c)]))
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
        _candidates=(phi, scores),
    )


def _score_subsets(candidates, cov, r):
    """ML criterion tr{ P_A_perp R } of every r-subset of the candidates.

    Returns ``(subsets, scores)``: the index rows of
    ``itertools.combinations(range(K), r)`` in its order (the shared,
    read-only ``_subset_table``), and one score per row.  A subset scores
    +inf when two consecutive candidates differ by less than 1e-12, or
    when its Gram A* A fails the COND_LIMIT guard of ``v_ml_angles``.  The
    rest score tr R - tr{ (A* A)^-1 A* R A } by one of two routes.

    * Gram route (``_tree_scores``): the steering columns A are joined by
      the divided differences d_i of each consecutive candidate pair
      (``_divided_differences``), B = [A | D], and G = B* B, M = B* R B are
      built once (``_gram_basis``).  A subset that holds candidates i and
      i + 1 takes d_i in place of a_(i+1): the span, so the score, is the
      same, but a pair of near twins is well conditioned in B.  The score
      is tr R - tr(G_S^-1 M_S), from the Cholesky factor G_S = L L* of the
      subset's columns of B.  Subsets that share a prefix share its
      factor, so the rows are walked down their prefix tree and each
      subset adds one Cholesky row to its prefix's.  Rounding costs the
      score about eps * cond(G_S) * tr R, and cond(G_S) <= bound =
      tr G_S * tr G_S^-1, so the score is kept only where bound * tr R <=
      _GRAM_BOUND * score.  The +inf rule stays on the plain columns: with
      A_S = B_S T, cond(A_S* A_S) <= bound * ||T||_F^2 * ||T^-1||_F^2, in
      closed form at the leaves from the subset's twins, and the score is
      kept only where that is within COND_LIMIT / 100, the margin of every
      certified COND_LIMIT decision.  The route is skipped when fewer than
      ``_GRAM_MIN_LIVE`` subsets are live.
    * QR route (``_qr_scores``): every other live subset.  Forming G_S
      squares the condition number of A_S, so the ill-conditioned subsets
      are scored from a stacked QR of their steering columns, A_S = Q R_A,
      as tr R - tr(Q* R Q).

    The Gram route walks the table in fixed blocks of contiguous rows, of
    ``_TREE_BLOCK`` W and N entries (r * r per subset), each down its
    cached plan (``_block_plan``); it walks the dead rows too and keeps the
    live rows' scores.  The QR route takes the rest of the live subsets
    ``_SUBSET_BLOCK`` at a time.  So the stacked temporaries stay small
    whatever the subset count, and a Gram-route score depends neither on
    the block size nor on which rows share its block.
    """
    R = np.asarray(cov)
    m = R.shape[0]
    K = len(candidates)
    A = np.exp(1j * np.outer(np.arange(m), candidates))
    G = hermitian_gram(A.conj().T)
    subsets = _subset_table(K, r)
    n = len(subsets)
    # apart[i, j]: c_j - c_i >= 1e-12, the live test of each consecutive
    # pair in a subset, read off a K x K table instead of n x r float copies.
    apart = candidates[None, :] - candidates[:, None] >= 1e-12
    live = np.all(apart[subsets[:, :-1], subsets[:, 1:]], axis=1)
    scores = np.full(n, np.inf)
    trace_r = np.real(np.trace(R))
    if np.count_nonzero(live) >= _GRAM_MIN_LIVE:
        G_B, M_B, spread2 = _gram_basis(A, candidates, R)
        block = max(1, _TREE_BLOCK // (r * r))
        uncertified = []
        for start in range(0, n, block):
            rows = slice(start, min(start + block, n))
            plan = _block_plan(K, r, rows.start, rows.stop)
            score, certified = _tree_scores(G_B, M_B, spread2, plan, trace_r)
            kept = live[rows] & certified
            scores[rows][kept] = score[kept]
            uncertified.append(start + np.flatnonzero(live[rows] & ~certified))
        rest = np.concatenate(uncertified)
    else:
        rest = np.flatnonzero(live)
    for start in range(0, rest.size, _SUBSET_BLOCK):
        rows = rest[start : start + _SUBSET_BLOCK]
        scores[rows] = _qr_scores(A, G, R, subsets[rows], trace_r)
    return subsets, scores


@functools.lru_cache(maxsize=4)
def _subset_table(K, r):
    """Read-only (C(K, r), r) index rows of ``itertools.combinations(range(K), r)``, cached.

    One table at ``_MAX_SUBSETS`` rows of r = 8 is 6.4 MB, so the cache is bounded.
    """
    n = math.comb(K, r)
    table = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(K), r)),
        dtype=np.intp,
        count=n * r,
    ).reshape(n, r)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=4)
def _block_plan(K, r, start, stop):
    """``_tree_plan`` of rows start:stop of ``_subset_table(K, r)``, cached and read-only.

    The cache holds blocks, not whole tables: a block's plan is at most
    about 0.8 MB (32768 rows at r = 1, 24 bytes each) and 0.34 MB at
    r >= 2, while one table's plans near ``_MAX_SUBSETS`` rows would take
    16 MB (r = 8, 217 bytes per row).
    """
    return _tree_plan(_subset_table(K, r)[start:stop], 2 * K - 1)


def _tree_plan(idx, size):
    """The walk of ``_tree_scores`` down the prefix tree of the sorted subset rows ``idx``.

    Returns read-only ``(pair, twin, levels)``.  ``twin[k]`` marks the rows
    whose positions k and k + 1 hold consecutive candidates, and
    ``pair[k]`` is the candidate at position k.  ``levels[j]`` is
    ``(parent, at)`` for the distinct prefixes of length j + 1, in row
    order: each one's prefix of length j, and the flat indices into a
    ``size`` x ``size`` G_B or M_B of its columns of B by its new column.
    The column at position k is d_i in place of a_(i+1) after candidate i.
    """
    n, r = idx.shape
    ix = np.ascontiguousarray(idx.T)
    twin = ix[1:] == ix[:-1] + 1
    col = np.concatenate([ix[:1], np.where(twin, (size + 1) // 2 + ix[:-1], ix[1:])])
    # new[j, i]: row i starts a prefix of length j + 1.
    new = np.ones((r, n), dtype=bool)
    np.not_equal(ix[:, 1:], ix[:, :-1], out=new[:, 1:])
    for j in range(1, r):
        new[j] |= new[j - 1]
    levels = []
    heads = np.zeros(1, dtype=np.intp)
    for j in range(r):
        prev, heads = heads, np.flatnonzero(new[j])
        parent = np.searchsorted(prev, heads, side="right") - 1
        at = np.take(col[: j + 1], heads, axis=1) * size + col[j, heads]
        levels.append((parent, at))
    for part in (ix, twin, *itertools.chain.from_iterable(levels)):
        part.flags.writeable = False
    return ix[:-1], twin, tuple(levels)


def _divided_differences(candidates, m):
    """Divided differences of consecutive steering columns, and their squared spreads.

    Column i of D is (a_(i+1) - a_i) / delta at delta = c_(i+1) - c_i,
    formed without cancellation as exp(jk (c_i + c_(i+1)) / 2) * 2j
    sin(k delta / 2) / delta and scaled to the columns' norm sqrt(m).  So
    a_(i+1) = a_i + s_i d_i with s_i = ||a_(i+1) - a_i|| / sqrt(m), the
    spread, and s_i^2 is returned.  Pairs closer than 1e-12 are never
    scored; their column is formed at delta = 1 so that it stays finite.
    """
    k = np.arange(m)[:, None]
    gap = np.diff(candidates)
    half = np.sin(k * np.where(gap >= 1e-12, gap, 1.0) / 2)
    half2 = np.sum(half**2, axis=0)
    mid = np.exp(0.5j * k * (candidates[:-1] + candidates[1:]))
    return 1j * mid * (half * np.sqrt(m / half2)), 4 * half2 / m


def _gram_basis(A, candidates, R):
    """G_B = B* B and M_B = B* R B of B = [A | D], and the squared spreads s^2 of D.

    D holds the divided differences of ``_divided_differences``, whose
    spreads ``_tree_scores`` reads for the basis change of a twin.
    """
    D, spread2 = _divided_differences(candidates, len(R))
    B = np.concatenate([A, D], axis=1)
    G_B = hermitian_gram(B.conj().T)
    M_B = B.conj().T @ (R @ B)
    return G_B, M_B, spread2


def _tree_scores(G_B, M_B, spread2, plan, trace_r):
    """Gram-route scores of the subset rows of ``plan``, and which of them are certified.

    ``plan`` (``_tree_plan``) walks the rows' prefix tree one position at
    a time, and each distinct prefix is extended once, from its parent's
    state, by one Cholesky row of its new column of B (``_extend``).  A
    prefix's bits do not depend on which rows share the call: every entry
    is an elementwise array operation, summed in a fixed order.  A leaf's
    score is tr R - fit, certified as in ``_score_subsets`` with bound =
    tr G_S * ||W||_F^2 and bound * ||T||_F^2 ||T^-1||_F^2 within
    COND_LIMIT / 100.  A_S = B_S T depends only on the leaf's twins, so T's
    factors are formed at the leaves, position by position: ||T||_F^2 - r
    adds the running sum of s^2 at each twin, and ||T^-1||_F^2 adds 2 / s^2
    per twin and 1 per steering column.
    """
    pair, twin, levels = plan
    r = len(levels)
    Gf, Mf = G_B.ravel(), M_B.ravel()
    empty = np.zeros((0, 1), dtype=complex)
    state = empty, empty, np.zeros((3, 1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j, (parent, at) in enumerate(levels):
            state = _extend(state, parent, Gf[at], Mf[at], j < r - 1)
        trace_g, fit, inv_trace = state[2]
        s2_sum, frob2, inv_frob2 = 0.0, 0.0, 1.0
        for t, s2 in zip(twin, spread2[pair]):
            s2_sum = s2_sum + t * s2
            frob2 = frob2 + t * s2_sum
            inv_frob2 = inv_frob2 + np.where(t, 2 / s2, 1.0)
        bound = trace_g * inv_trace
        score = trace_r - fit
        certified = (bound * trace_r <= _GRAM_BOUND * score) & (
            bound * (frob2 + r) * inv_frob2 <= COND_LIMIT / 100
        )
    return score, certified


def _extend(state, parent, b, m, internal):
    """Extend each prefix of length j by one column c of B; the children's state.

    ``state`` holds per prefix W = L^-1 of its Gram G_S = L L* and
    N = W M_S W*, lower triangles packed row by row (entry [i, k] in row
    i (i + 1) / 2 + k; N is Hermitian), and three running sums: tr G_S,
    the fit tr(G_S^-1 M_S) and ||W||_F^2.  ``parent`` maps each child to
    its prefix, and ``b`` and ``m`` (j + 1, n) hold G_B and M_B at the
    prefix's columns and c, then at (c, c).  With l = W b, y = W* l and
    pivot lambda^2 = G_cc - ||l||^2, the child adds G_cc to tr G_S,
    (M_cc - 2 Re y* m + l* N l) / lambda^2 to the fit and
    (||y||^2 + 1) / lambda^2 to ||W||_F^2; W gains the row (-y*, 1) / lambda
    and N the column (W m - N l) / lambda.  A non-positive pivot gives NaN,
    which leaves every subset under it uncertified.  Only the running sums
    are returned unless ``internal``.
    """
    W_rows, N_rows, run = (np.take(part, parent, axis=1) for part in state)
    j = len(b) - 1
    l, yc = [], [None] * j  # yc holds conj(y)
    pivot = b[j].real
    for i in range(j):
        Wi = W_rows[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2]
        li = Wi[0] * b[0]
        for k in range(1, i + 1):
            li = li + Wi[k] * b[k]
        lci = li.conj()
        pivot = pivot - (lci * li).real
        for k in range(i + 1):
            t = Wi[k] * lci
            yc[k] = t if yc[k] is None else yc[k] + t
        l.append(li)
    inv2 = 1 / np.where(pivot > 0, pivot, np.nan)
    w2 = 1.0
    gain = m[j].real
    for k in range(j):
        w2 = w2 + (yc[k].real ** 2 + yc[k].imag ** 2)
        gain = gain - 2 * (yc[k] * m[k]).real
    Nl = [None] * j
    for i in range(j):
        Ni = N_rows[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2]
        for k in range(i + 1):
            t = Ni[k] * l[k]
            Nl[i] = t if Nl[i] is None else Nl[i] + t
            if k < i:
                t = Ni[k].conj() * l[i]
                Nl[k] = t if Nl[k] is None else Nl[k] + t
    for i in range(j):
        gain = gain + (l[i].conj() * Nl[i]).real
    gain = gain * inv2
    run[0] += b[j].real
    run[1] += gain
    run[2] += w2 * inv2
    if not internal:
        return None, None, run
    inv = np.sqrt(inv2)
    tri = j * (j + 1) // 2
    W_next = np.empty((tri + j + 1, len(parent)), dtype=complex)
    N_next = np.empty_like(W_next)
    W_next[:tri], N_next[:tri] = W_rows, N_rows
    for k in range(j):
        Wk = W_rows[k * (k + 1) // 2 :]
        hk = Wk[0] * m[0]
        for i in range(1, k + 1):
            hk = hk + Wk[i] * m[i]
        W_next[tri + k] = -inv * yc[k]
        N_next[tri + k] = ((hk - Nl[k]) * inv).conj()
    W_next[-1] = inv
    N_next[-1] = gain
    return W_next, N_next, run


def _qr_scores(A, G, R, idx, trace_r):
    """QR-route scores of the subsets ``idx``, +inf where the guard fails.

    The COND_LIMIT guard is read off the QR first: with A_S = Q R_A,
    cond(A* A) <= ||R_A||_F^(2r) / prod |R_A,kk|^2, so a subset whose bound
    is within COND_LIMIT / 100 passes.  Only the undecided rest go through
    ``condition_number`` of their Gram, gathered from G.
    """
    scores = np.full(len(idx), np.inf)
    Q, R_A = np.linalg.qr(A.T[idx].transpose(0, 2, 1))
    frob2 = np.sum(np.abs(R_A) ** 2, axis=(1, 2))
    diag2 = np.abs(np.diagonal(R_A, axis1=1, axis2=2)) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        bound = np.prod(frob2[:, None] / diag2, axis=1)
    ok = bound <= COND_LIMIT / 100
    if not np.all(ok):
        gram = G[idx[~ok, :, None], idx[~ok, None, :]]
        ok[~ok] = condition_number(gram) <= COND_LIMIT
    Q = Q[ok]
    fit = np.real(np.sum(Q.conj() * (R @ Q), axis=(1, 2)))
    scores[ok] = trace_r - fit
    return scores


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
