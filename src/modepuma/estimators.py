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
* MODEX, a config ``(solver, p)`` over either — Enhanced PUMA over PUMA —
  solves at degrees r and r + p, then picks the best r of the 2r + p
  pooled roots by the ML criterion over all subsets (``_score_subsets``:
  subsets that share a prefix share its Cholesky factor, so each adds one
  row to it).  The degree-r solve keeps its solver's rule.  The
  degree-(r + p) solve is a two-step for both solvers: V_MODE is flat
  along the p directions c_r h there, so reweighting creeps instead of
  reaching a fixed point.  Over PUMA it starts from the weight of the
  plain solve's c.

``estimate_many`` runs a trial's configs on one sample covariance: each
config's solves as alone, then the MODEX candidate sets of equal length
scored in one stacked ``_score_subsets`` call, which builds the subset
basis once and walks the subset tree once for all of them.  ``estimate``
is a batch of one.

Every Gram meets one rule, ``condition_number`` within ``COND_LIMIT``: the
reweight ends at the current c on a T T* past it, and nothing is regularized.
The reweight, PUMA's gauge block and both subset routes decide that rule
from a certified bound first, kept within one margin, COND_LIMIT / 100, and
solve for eigenvalues only where the bound leaves it open; the limit and
every decision are the same.  PUMA's gauge block is bounded by cond(T T*)
times cond(S_11), S = Q(I), checked once per loop whether it starts from
Omega = I or from a given weight.  The subset tree's walk depends only on
K, r, the block of rows and how many sets walk it together, so it is
cached (``_block_plan``).
"""

import functools
import itertools
import math
import time
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
from .errors import NumericalError, SingularityError, ValidationError

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

# Most candidate subsets MODEX will score; the count grows as
# C(2r + p, r), so a larger request is rejected before any solve.
_MAX_SUBSETS = 100_000

# Iteration cap of ``_reweighted_solve``, and the relative change of c / c_0
# at which PUMA's loop counts as at its fixed point.
_MAX_ITERATIONS = 20
_RELATIVE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class EstimatorConfig:
    """A ``_SOLVERS`` key run plain (p_extra None) or as MODEX (p_extra >= 0), named in ``_TOKENS``."""

    solver: str
    p_extra: int | None = None

    def __post_init__(self):
        if (self.solver, self.p_extra is not None) not in _TOKENS:
            raise ValidationError(f"no method runs solver {self.solver!r} at p_extra={self.p_extra}")
        if self.p_extra is not None and self.p_extra < 0:
            raise ValidationError("p_extra must be >= 0")

    # Read by the benchmark's span namer (perfbench/layers.py) alone, which
    # names a span by them; nothing in the package reads them.
    @property
    def method(self):
        return self.solver if self.p_extra is None else "MODEX"

    @property
    def modex_base(self):
        return self.solver


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


def _symmetric_step(Q, bound=None):
    """MODE's step: the conjugate-symmetric, unit-norm c minimizing c* Q c; ``bound`` is unused."""
    J = _conjugate_symmetric_basis(Q.shape[0])
    M = np.real(J.conj().T @ Q @ J)
    _, vecs = np.linalg.eigh(0.5 * (M + M.T))
    c = J @ vecs[:, 0]
    return c / np.linalg.norm(c)


def _gauge_step(Q, bound=np.inf):
    """PUMA's step: c = (1, tail), Q[1:,1:] tail = -Q[1:,0]; minimum-norm tail when singular.

    The tail is solved for where cond(Q[1:,1:]) is within COND_LIMIT.
    ``bound`` is a certified bound on that condition number.  Within
    COND_LIMIT / 100 it decides, as in ``guarded_inverse`` and
    ``_qr_scores``: the margin absorbs the rounding of the computed Q,
    Omega and eigenvalues, so every decision and every bit of c are the
    same.  Past it, ``condition_number`` reads the block.
    """
    Q11, rhs = Q[1:, 1:], -Q[1:, 0]
    cond = bound if bound <= COND_LIMIT / 100 else condition_number(Q11)
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
    past the first it stops when c / c_0 (free of the scale and sign that
    MODE's unit eigenvector leaves) changed by at most ``tolerance``
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

    Every solve is ``step(Q, bound)`` with a certified bound on the
    condition of PUMA's gauge block Q_11 = Q[1:,1:].  With Phi'_l the
    slices without their first column and every g_l >= 0,
    x* Q_11(Omega) x = sum_l g_l (Phi'_l x)* Omega (Phi'_l x) lies between
    lambda_min(Omega) x* S_11 x and lambda_max(Omega) x* S_11 x, S = Q(I),
    so cond(Q_11(Omega)) <= cond(Omega) * cond(S_11).  The loop checks
    cond(S_11) once, and each bound is that times ``guarded_inverse``'s
    ||T T*||_F ||(T T*)^-1||_F >= cond(Omega), or times 1 at Omega = I.
    A negative weight, or MODE's step, which reads no bound, leaves +inf.
    """
    _check_degree(decomp, q)
    m = decomp.m
    g = np.asarray(weight, dtype=float)
    Phi, PhiH = _hankel_slices(decomp, q)
    Q = _quadratic_form(Phi, PhiH, g, np.eye(m - q, dtype=complex))
    base = condition_number(Q[1:, 1:]) if step is _gauge_step and np.all(g >= 0) else np.inf
    omega_cond = 1.0
    if start is not None:
        try:
            omega, omega_cond = _omega_from_coefs(start, m)
        except SingularityError:
            pass
        else:
            Q = _quadratic_form(Phi, PhiH, g, omega)
    history, a = [], None
    for iters in range(1, _MAX_ITERATIONS + 1):
        if iters > 1:
            try:
                omega, omega_cond = _omega_from_coefs(c, m)
            except SingularityError:
                return c, iters - 1, False, history
            Q = _quadratic_form(Phi, PhiH, g, omega)
            history.append(float(np.real(c.conj() @ Q @ c)))
        prev, c = a, step(Q, base * omega_cond)
        a = c / c[0]
        if prev is not None and np.linalg.norm(a - prev) <= tolerance * np.linalg.norm(a):
            return c, iters, True, history
    return c, _MAX_ITERATIONS, False, history


# Constraint step and tolerance of each base solver; MODE's +inf makes it the two-step.
_SOLVERS = {
    "MODE": (_symmetric_step, np.inf),
    "PUMA": (_gauge_step, _RELATIVE_TOLERANCE),
}

# The name of every config, by (solver, MODEX or not): the CLI's --method
# and a sweep's ``methods`` entries, where a MODEX name takes ``:<p>``.
_TOKENS = {
    ("MODE", False): "mode",
    ("PUMA", False): "puma",
    ("MODE", True): "modex",
    ("PUMA", True): "epuma",
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


def _coef_estimate(decomp, weight, r, solver):
    """Run ``solver``'s solve at degree r; V_MODE of c computed once."""
    c, iterations, converged, history = _reweighted_solve(decomp, weight, r, *_SOLVERS[solver])
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


def _modex_solve(decomp, weight, r, config):
    """MODEX's two solves: (pooled candidates, sorted when p > 0, c, iterations, converged).

    The degree-(r + p) solve is a two-step, from Omega = I, or over PUMA
    from Omega at the plain c padded with p zeros; ``iterations`` adds
    both solves' counts, and ``converged`` needs both (README, "Library").
    """
    p = config.p_extra
    check_modex_size(decomp.m, r, p)
    step, tolerance = _SOLVERS[config.solver]
    c, iters, converged, _ = _reweighted_solve(decomp, weight, r, step, tolerance)
    candidates = _roots(c)
    if p > 0:
        start = np.concatenate([c, np.zeros(p)]) if config.solver == "PUMA" else None
        c, extra_iters, extra_conv, _ = _reweighted_solve(
            decomp, weight, r + p, step, np.inf, start=start
        )
        iters += extra_iters
        converged = converged and extra_conv
        candidates = np.sort(np.concatenate([candidates, _roots(c)]))
    return candidates, c, iters, converged


def _modex_pick(subsets, scores, candidates, c, iters, converged):
    """MODEX's result from its subsets' scores: the first finite minimum."""
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
    """ML criterion tr{ P_A_perp R } of every r-subset of the candidates, or of each set of a stack.

    ``candidates`` is one set of K angles, or an (S, K) stack of sets
    scored on the one covariance ``cov``.  Returns ``(subsets, scores)``:
    the index rows of ``itertools.combinations(range(K), r)`` in its order
    (the shared, read-only ``_subset_table``), and one score per row, or
    an (S, n) array of them for a stack.  A set of a stack scores bit for
    bit as it does alone.  A subset scores +inf when two consecutive
    candidates differ by less than 1e-12, or when its Gram A* A fails the
    COND_LIMIT guard of ``v_ml_angles``.  The rest score tr R -
    tr{ (A* A)^-1 A* R A } by one of two routes, chosen per set.

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
      certified COND_LIMIT decision.  A set takes the route only when at
      least ``_GRAM_MIN_LIVE`` of its subsets are live.
    * QR route (``_qr_scores``): every other live subset of the set.
      Forming G_S squares the condition number of A_S, so the
      ill-conditioned subsets are scored from a stacked QR of their
      steering columns, A_S = Q R_A, as tr R - tr(Q* R Q).

    A, G, the live mask (``_live_mask``) and the Gram route's G_B, M_B and
    spreads are built once for the whole stack, as (S, ...) stacks.  The
    Gram-route sets walk the table together, in fixed blocks of
    contiguous rows, each block down its cached plan tiled once per set
    (``_block_plan``), so that a block holds at most ``_TREE_BLOCK`` W and
    N entries (r * r per subset) across its sets; the walk covers the dead
    rows too and keeps the live rows' scores.  The QR route takes each
    set's rest of its live subsets ``_SUBSET_BLOCK`` at a time, with that
    set's own A and G.  So the stacked temporaries stay small whatever the
    subset count, and a Gram-route score depends neither on the block size
    nor on which rows or sets share its block.
    """
    R = np.asarray(cov)
    m = R.shape[0]
    stack = np.atleast_2d(candidates)
    S, K = stack.shape
    A = np.exp(1j * (np.arange(m)[:, None] * stack[:, None, :]))
    G = hermitian_gram(A.conj().swapaxes(-1, -2))
    subsets = _subset_table(K, r)
    n = len(subsets)
    live = _live_mask(stack, subsets)
    scores = np.full((S, n), np.inf)
    trace_r = np.real(np.trace(R))
    on_gram = np.count_nonzero(live, axis=1) >= _GRAM_MIN_LIVE
    gram = np.flatnonzero(on_gram)
    # Each set's rows for the QR route: all its live rows off the Gram
    # route, else the live rows the Gram route left uncertified.
    rest = [[] if g else [np.flatnonzero(row)] for row, g in zip(live, on_gram)]
    if gram.size:
        G_B, M_B, spread2 = _gram_basis(A[gram], stack[gram], R)
        block = max(1, _TREE_BLOCK // (r * r * gram.size))
        for start in range(0, n, block):
            stop = min(start + block, n)
            plan = _block_plan(K, r, start, stop, gram.size)
            score, certified = _tree_scores(G_B, M_B, spread2.ravel(), plan, trace_r)
            tiles = zip(gram, score.reshape(gram.size, -1), certified.reshape(gram.size, -1))
            for s, score_s, certified_s in tiles:
                alive = live[s, start:stop]
                kept = alive & certified_s
                scores[s, start:stop][kept] = score_s[kept]
                rest[s].append(start + np.flatnonzero(alive & ~certified_s))
    for s, parts in enumerate(rest):
        rows_s = np.concatenate(parts)
        for start in range(0, rows_s.size, _SUBSET_BLOCK):
            rows = rows_s[start : start + _SUBSET_BLOCK]
            scores[s, rows] = _qr_scores(A[s], G[s], R, subsets[rows], trace_r)
    return subsets, (scores if np.ndim(candidates) > 1 else scores[0])


def _live_mask(stack, subsets):
    """(S, n) mask of the subsets of each set whose consecutive candidates are >= 1e-12 apart.

    A set whose own consecutive gaps all pass ascends, so every subset of
    it passes too (rounding is monotone, so c_j - c_i >= c_(i+1) - c_i
    for j > i); its row is all true without a look at the subsets.  Any
    other set reads apart[i, j], c_j - c_i >= 1e-12, off a K x K table
    instead of n x r float copies.
    """
    live = np.ones((len(stack), len(subsets)), dtype=bool)
    for s in np.flatnonzero(~np.all(np.diff(stack, axis=1) >= 1e-12, axis=1)):
        apart = stack[s, None, :] - stack[s, :, None] >= 1e-12
        live[s] = np.all(apart[subsets[:, :-1], subsets[:, 1:]], axis=1)
    return live


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
def _block_plan(K, r, start, stop, copies=1):
    """``_tree_plan`` of rows start:stop of ``_subset_table(K, r)``, tiled ``copies`` times, cached and read-only.

    Copy s walks the s-th of a stack of G_B, M_B and spreads, each
    flattened end to end: its rows follow copy s - 1's, and its parents,
    candidate positions and flat indices are offset by the size of one
    copy of each.  The cache holds blocks, not whole tables: a block's
    plan, all copies counted, is at most about 0.8 MB (32768 rows at
    r = 1, 24 bytes each) and 0.34 MB at r >= 2, while one table's plans
    near ``_MAX_SUBSETS`` rows would take 16 MB (r = 8, 217 bytes per row).
    """
    size = 2 * K - 1
    pair, twin, levels = _tree_plan(_subset_table(K, r)[start:stop], size)
    copy = np.arange(copies)[:, None]

    def tiled(part, offset):
        out = (part[..., None, :] + offset * copy).reshape(*part.shape[:-1], copies * part.shape[-1])
        out.flags.writeable = False
        return out

    tiled_levels, heads = [], 0
    for parent, at in levels:
        tiled_levels.append((tiled(parent, heads), tiled(at, size * size)))
        heads = len(parent)
    tiled_twin = np.tile(twin, copies)
    tiled_twin.flags.writeable = False
    return tiled(pair, K - 1), tiled_twin, tuple(tiled_levels)


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
    An (S, K) stack of candidate sets gives (S, m, K - 1) and (S, K - 1).
    """
    k = np.arange(m)[:, None]
    gap = np.diff(candidates)[..., None, :]
    half = np.sin(k * np.where(gap >= 1e-12, gap, 1.0) / 2)
    half2 = np.sum(half**2, axis=-2)
    mid = np.exp(0.5j * k * (candidates[..., None, :-1] + candidates[..., None, 1:]))
    return 1j * mid * (half * np.sqrt(m / half2)[..., None, :]), 4 * half2 / m


def _gram_basis(A, candidates, R):
    """G_B = B* B and M_B = B* R B of B = [A | D], and the squared spreads s^2 of D.

    D holds the divided differences of ``_divided_differences``, whose
    spreads ``_tree_scores`` reads for the basis change of a twin.  A
    stack of steering matrices and candidate sets gives stacks of each.
    """
    D, spread2 = _divided_differences(candidates, len(R))
    B = np.concatenate([A, D], axis=-1)
    BH = B.conj().swapaxes(-1, -2)
    return hermitian_gram(BH), BH @ (R @ B), spread2


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


# The errors that fail one config of ``estimate_many`` rather than the call.
_TYPED_ERRORS = (SingularityError, NumericalError, ValidationError)


def estimate_many(cov, decomp, weight, r, configs, *, timings=None):
    """Run every config on one sample covariance and decomposition: one outcome per config.

    An outcome is the config's ``EstimationResult``, or the typed error
    (``ValidationError``, ``SingularityError``, ``NumericalError``) that
    failed it, which fails that entry alone.  Each config's solves and
    roots run as they would alone; then the MODEX configs' candidate sets
    of equal length are scored in one stacked ``_score_subsets`` call,
    which scores each set bit for bit as alone, so every outcome is that
    of the config's own ``estimate``.  A list ``timings`` receives each
    config's seconds: its solves and roots, and for MODEX the whole
    stacked scoring it shared and its pick.
    """
    clock = time.perf_counter
    outcomes = [None] * len(configs)
    seconds = [0.0] * len(configs)
    pooled = {}  # K -> [(config index, _modex_solve's tuple), ...]
    for i, config in enumerate(configs):
        t0 = clock()
        try:
            if config.p_extra is None:
                outcomes[i] = _coef_estimate(decomp, weight, r, config.solver)
            else:
                solved = _modex_solve(decomp, weight, r, config)
                pooled.setdefault(len(solved[0]), []).append((i, solved))
        except _TYPED_ERRORS as exc:
            outcomes[i] = exc
        seconds[i] = clock() - t0
    for group in pooled.values():
        t0 = clock()
        subsets, scores = _score_subsets(np.stack([solved[0] for _, solved in group]), cov, r)
        shared = clock() - t0
        for (i, solved), row in zip(group, scores):
            t0 = clock()
            try:
                outcomes[i] = _modex_pick(subsets, row.copy(), *solved)
            except SingularityError as exc:
                outcomes[i] = exc
            seconds[i] += shared + clock() - t0
    if timings is not None:
        timings.extend(seconds)
    return outcomes


def estimate(cov, decomp, weight, r, config):
    """Run one config, raising its typed error: a batch of one of ``estimate_many``."""
    (outcome,) = estimate_many(cov, decomp, weight, r, (config,))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
