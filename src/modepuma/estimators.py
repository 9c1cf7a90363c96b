"""
Minimizers of the weighted subspace-fitting criterion.

MODE and PUMA minimize the same criterion, V_MODE(c) = c* Q(Omega) c at
Omega = (T T*)^-1, and run one reweighted loop, ``_reweighted_solve``:
solve for c at the current Omega, stop at the fixed point, else reweight
Omega at c.  They differ only in the constraint step and the tolerance,
one ``_SOLVERS`` row each:

* ``EstimatorConfig("MODE")`` — ``_symmetric_step``, the eigenvector solve
  over conjugate-symmetric, unit-norm c, stopped after its one reweight
  (the classic two-step scheme).
* ``EstimatorConfig("PUMA")`` — ``_gauge_step``, the linear solve under
  the c_0 = 1 gauge, run until c / c_0 stops changing.
* MODEX, a config ``(solver, p)`` over either — Enhanced PUMA over PUMA —
  solves at degrees r and r + p (README, "Library", gives the rule), then
  picks the best r of the 2r + p pooled roots by the ML criterion over
  all subsets (``_score_subsets``: subsets that share a prefix share its
  Cholesky factor, so each adds one row to it).

``estimate_many`` runs a trial's configs on one sample covariance: each
config's checks, solves and roots in one ``_solve`` call, as alone but for
the degree-r memo it describes, then the MODEX candidate sets of equal
length scored in one stacked ``_score_subsets`` call, which builds the
subset basis once and walks the subset tree once for all of them.
``estimate`` is a batch of one.

Every Gram meets one rule, ``condition_number`` within ``COND_LIMIT``: the
reweight ends at the current c on a T T* past it, and nothing is regularized.
The reweight, PUMA's gauge block and both subset routes decide that rule
from a certified bound first, kept within one margin, CERTIFY_LIMIT, and
solve for eigenvalues only where the bound leaves it open; the limit and
every decision are the same.  PUMA's gauge block is bounded by cond(T T*)
times cond(S_11), S = Q(I), checked once per loop whether it starts from
Omega = I or from a given weight.  The subset tree's walk depends only on
K, r, the block of rows and how many sets walk it together, so it is
cached (``_block_plan``).  The walk's arrays live in ``_WORKSPACE``, one
per thread, kept across calls and only grown, so a warm scoring allocates
no array data and takes no page faults for it.  It is sized by the largest
block walked, not by the subset count: at most 16 r^2 + 112 r + 40 bytes
per leaf, and a block holds at most ``_TREE_BLOCK`` / r^2 leaves (one per
set where that is under one), so under 3 MB at r >= 2 (0.9 MB for the
stacked scoring at m = 16, r = 4, p = 6).
"""

import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .array_model import (
    CERTIFY_LIMIT,
    COND_LIMIT,
    _toeplitz,
    angles_from_coefs,
    condition_number,
    guarded_inverse,
    hermitian_gram,
)
from .criteria import v_mode
from .errors import NumericalError, SingularityError, ValidationError, check_count, check_weight

# Subsets per stacked block of ``_score_subsets``'s QR route, and W and
# N entries per block of leaves of its Gram route (r * r per leaf: 2048
# leaves at r = 4, 512 at r = 8).  Fixed, so the stacked temporaries and
# the walk's ``_WORKSPACE`` stay small whatever the subset count.
_SUBSET_BLOCK = 64
_TREE_BLOCK = 32768

# ``_score_subsets`` keeps a subset's score from its r x r Grams only where
# its certified bound on cond(G_S), times tr R / score, is within
# _GRAM_BOUND: the score's relative error is then about eps * _GRAM_BOUND,
# under 4.5e-13.
_GRAM_BOUND = 2e3

# Fewest subsets, C(K, r), for the Gram route.  Its fixed cost, r levels of
# 20 to 80 array operations, outweighs the QR work it saves on fewer.  Tree
# against QR, on one core: 0.14 against 0.08 ms for 15 subsets at r = 2
# (0.15 against 0.10 ms for two such sets stacked), 0.22 against 0.12 ms
# for 35 scattered subsets at r = 3, and 0.23 against 0.26 ms for 84.  The
# tree first wins between 35 and 84 subsets at r = 3; moving the limit
# there would change which route scores those calls.
_GRAM_MIN_SUBSETS = 32

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
        p = self.p_extra
        if p is not None:
            check_count("p_extra", p, 0)
        if (self.solver, p is not None) not in _TOKENS:
            raise ValidationError(f"no method runs solver {self.solver!r} at p_extra={p}")

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
    by ``_quadratic_form``.  The degree q is an integer with 0 < q < m
    (``check_count``), and the weight r finite real numbers (``check_weight``).
    """
    check_count("q", q, 1, decomp.m)
    g = check_weight(weight, decomp.r)
    omega = np.asarray(omega, dtype=complex)
    m = decomp.m
    if omega.shape != (m - q, m - q):
        raise ValidationError("omega must be (m-q) x (m-q)")
    Phi, PhiH = _hankel_slices(decomp, q)
    return _quadratic_form(Phi, PhiH, g, omega)


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
    CERTIFY_LIMIT it decides, as in ``guarded_inverse`` and
    ``_qr_scores``: the margin absorbs the rounding of the computed Q,
    Omega and eigenvalues, so every decision and every bit of c are the
    same.  Past it, ``condition_number`` reads the block.
    """
    Q11, rhs = Q[1:, 1:], -Q[1:, 0]
    cond = bound if bound <= CERTIFY_LIMIT else condition_number(Q11)
    if cond <= COND_LIMIT:
        try:
            tail = np.linalg.solve(Q11, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(f"gauge-fixed solve failed: {exc}") from exc
    else:
        tail, *_ = np.linalg.lstsq(Q11, rhs, rcond=None)
    return np.concatenate(([1.0 + 0.0j], tail))


def _reweighted_solve(decomp, g, q, step, tolerance, *, start=None):
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
    quadratic form.  A step's c with c_0 = 0 is a NumericalError naming
    the degree-q solve, raised before c / c_0 is formed.  Each base's
    ``step`` and ``tolerance`` are in ``_SOLVERS``.  Neither ``q`` nor
    ``g`` is checked here: ``_solve`` checks r, bounds r + p by
    ``check_modex_size`` and passes ``check_weight``'s array as ``g``.

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
    m = decomp.m
    Phi, PhiH = _hankel_slices(decomp, q)
    Q = _quadratic_form(Phi, PhiH, g, np.eye(m - q, dtype=complex))
    base = condition_number(Q[1:, 1:]) if step is _gauge_step and np.all(g >= 0) else np.inf
    omega_cond = 1.0
    # T is written unchecked: c is a checked step or a start padded from one.
    if start is not None:
        try:
            omega, omega_cond = guarded_inverse(_toeplitz(start, m), "T T*")
        except SingularityError:
            pass
        else:
            Q = _quadratic_form(Phi, PhiH, g, omega)
    history, a = [], None
    for iters in range(1, _MAX_ITERATIONS + 1):
        if iters > 1:
            try:
                omega, omega_cond = guarded_inverse(_toeplitz(c, m), "T T*")
            except SingularityError:
                return c, iters - 1, False, history
            Q = _quadratic_form(Phi, PhiH, g, omega)
            history.append(float(np.real(c.conj() @ Q @ c)))
        prev, c = a, step(Q, base * omega_cond)
        if c[0] == 0:
            raise NumericalError(f"the degree-{q} solve returned c_0 = 0")
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


def _solve(decomp, weight, r, config, memo):
    """A config's checks, solves and roots: ``(candidates, c, iterations, converged, history), reused``.

    The checks run once per config, before any solve sizes its Omega = I
    start by m - r and before ``check_modex_size`` counts subsets with r:
    r is an integer with 0 < r < m (``check_count``) equal to
    ``decomp.r``, the weight r finite real numbers (``check_weight``), and
    a MODEX config's size within ``check_modex_size``.

    The degree-r loop and the roots of its c are the same call for a
    solver's plain and MODEX configs, so ``memo``, one dict per
    ``estimate_many`` call, keeps them by solver with the seconds they
    took: the first config to need them runs them, and every config gets
    copies or arrays of its own, so no two outcomes share an array or a
    list.  ``reused`` is those seconds where this config read them, else
    0.0.  A solve that raised is not kept: each config that needs it runs
    it again, and fails with the same error, as alone.

    A plain config's result, and MODEX's at p = 0, are the degree-r ones:
    the roots of c, and the loop's ``history``.  MODEX at p > 0 adds the
    degree-(r + p) solve: ``candidates`` pools both solves' roots, sorted,
    c is the extended one, ``iterations`` adds both counts, ``converged``
    needs both, and ``history`` stays the degree-r loop's.
    """
    check_count("r", r, 1, decomp.m)
    if r != decomp.r:
        raise ValidationError(f"need r equal to the decomposition's rank {decomp.r}, got {r}")
    g = check_weight(weight, r)
    p = config.p_extra
    if p is not None:
        check_modex_size(decomp.m, r, p)
    step, tolerance = _SOLVERS[config.solver]
    reused = config.solver in memo
    if not reused:
        t0 = time.perf_counter()
        c, iterations, converged, history = _reweighted_solve(decomp, g, r, step, tolerance)
        memo[config.solver] = (_roots(c), c, iterations, converged, history), time.perf_counter() - t0
    (candidates, c, iterations, converged, history), seconds = memo[config.solver]
    if p:
        start = np.concatenate([c, np.zeros(p)]) if config.solver == "PUMA" else None
        c, extra_iters, extra_conv, _ = _reweighted_solve(decomp, g, r + p, step, np.inf, start=start)
        candidates = np.sort(np.concatenate([candidates, _roots(c)]))
        iterations, converged = iterations + extra_iters, converged and extra_conv
    else:
        candidates, c = candidates.copy(), c.copy()
    return (candidates, c, iterations, converged, list(history)), seconds if reused else 0.0


def _score_subsets(stack, cov, r):
    """ML criterion tr{ P_A_perp R } of every r-subset of each candidate set of a stack.

    ``stack`` is an (S, K) array of ascending sets of K angles, scored on
    the one covariance ``cov``, with r < m.  Returns ``(subsets, scores)``:
    the index rows of ``itertools.combinations(range(K), r)`` in its order
    (the shared, read-only ``_subset_table``), and an (S, n) array of
    scores, one per set and row.  A set scores bit for bit as it does in a
    stack of one.  A subset scores +inf when its Gram A* A fails the
    COND_LIMIT guard of ``v_ml_angles``; the rest score tr R -
    tr{ (A* A)^-1 A* R A }.  The route is chosen once per call:

    * Gram route (``_tree_scores``), where n = C(K, r) is at least
      ``_GRAM_MIN_SUBSETS``: every set walks the subset table together,
      in fixed blocks of contiguous rows, each block down its cached plan
      tiled once per set (``_block_plan``), so that a block holds at most
      ``_TREE_BLOCK`` W and N entries (r * r per subset) across its sets.
      A score is kept where it is certified, and a subset holding a pair
      of consecutive candidates under 1e-12 apart (zero spread in
      ``_divided_differences``) is +inf there.
    * QR route (``_qr_scores``): every subset of a call under the limit,
      and the uncertified rows of the Gram route, in one pass over the
      stack's rows in set order, ``_SUBSET_BLOCK`` at a time, so a block
      may mix the rows of several sets; each row gathers its own set's
      columns of the stacked A and G.

    So the stacked temporaries stay small whatever the subset count, and a
    score depends neither on the block size nor on which rows or sets
    share its block.  The Gram route's walk reuses the calling thread's
    ``_WORKSPACE``, so a score does not depend on what ran before it
    either.
    """
    R = np.asarray(cov)
    m = R.shape[0]
    S, K = stack.shape
    A = np.exp(1j * (np.arange(m)[:, None] * stack[:, None, :]))
    G = hermitian_gram(A.conj().swapaxes(-1, -2))
    subsets = _subset_table(K, r)
    n = len(subsets)
    scores = np.full((S, n), np.inf)
    trace_r = np.real(np.trace(R))
    # The rows each set sends down the QR route.
    rest = np.ones((S, n), dtype=bool)
    if n >= _GRAM_MIN_SUBSETS:
        G_B, M_B, spread2 = _gram_basis(A, stack, R)
        block = max(1, _TREE_BLOCK // (r * r * S))
        for start in range(0, n, block):
            stop = min(start + block, n)
            plan = _block_plan(K, r, start, stop, S)
            score, certified = _tree_scores(G_B, M_B, spread2.ravel(), plan, trace_r)
            scores[:, start:stop] = score.reshape(S, -1)
            rest[:, start:stop] = ~certified.reshape(S, -1)
    flat = np.flatnonzero(rest)
    for start in range(0, flat.size, _SUBSET_BLOCK):
        sets, rows = np.divmod(flat[start : start + _SUBSET_BLOCK], n)
        scores[sets, rows] = _qr_scores(A, G, R, sets, subsets[rows], trace_r)
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
    spread, and s_i^2 is returned.  A pair under 1e-12 apart has spread 0,
    and its column is formed at delta = 1 so that it stays finite.  A gap
    above pi is formed on the short arc across +-pi, (c_(i+1) - pi) -
    (c_i + pi), as sin(k delta / 2) = (-1)^k sin(k (delta - 2 pi) / 2):
    near a multiple of pi, rounding k delta / 2 would cost the sine its
    leading digits.  An (S, K) stack of candidate sets gives (S, m, K - 1)
    and (S, K - 1).
    """
    k = np.arange(m)[:, None]
    c = candidates[..., None, :]
    gap = np.diff(candidates)[..., None, :]
    apart = gap >= 1e-12
    wrap = gap > np.pi
    delta = np.where(wrap, (c[..., 1:] - np.pi) - (c[..., :-1] + np.pi), np.where(apart, gap, 1.0))
    half = np.sin(k * delta / 2) * np.where(wrap, (-1.0) ** k, 1.0)
    half2 = np.sum(half**2, axis=-2)
    mid = np.exp(0.5j * k * (c[..., :-1] + c[..., 1:]))
    spread2 = np.where(apart[..., 0, :], 4 * half2 / m, 0.0)
    return 1j * mid * (half * np.sqrt(m / half2)[..., None, :]), spread2


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


class _Workspace(threading.local):
    """One thread's scratch arrays for the subset-tree walk, by name, grow-only.

    ``array(name, shape)`` is a C-contiguous view of the first prod(shape)
    entries of buffer ``name``; the buffer is replaced, by one of exactly
    that size, only when it is too small, and never shrinks.  So a warm
    walk allocates no array data, and its working set is not handed back
    to the OS and faulted in again on every call.  A view is valid until
    the next request of its name.
    """

    def __init__(self):
        self.buffers = {}

    def array(self, name, shape, dtype=complex):
        size = math.prod(shape)
        buffers = self.buffers
        if name not in buffers or buffers[name].size < size:
            buffers[name] = np.empty(size, dtype)
        return buffers[name][:size].reshape(shape)


_WORKSPACE = _Workspace()


def _tree_scores(G_B, M_B, spread2, plan, trace_r):
    """Gram-route scores of the subset rows of ``plan``, and which of them are certified.

    ``plan`` (``_tree_plan``) walks the rows' prefix tree one position at
    a time, and each distinct prefix is extended once, from its parent's
    state, by one Cholesky row of its new column of B (``_extend``).  A
    prefix's bits do not depend on which rows share the call: every entry
    is an elementwise array operation, summed in a fixed order.  A leaf's
    score is tr R - fit, certified where bound = tr G_S * ||W||_F^2 has
    bound * tr R within _GRAM_BOUND * score, and bound * ||T||_F^2
    ||T^-1||_F^2, a bound on cond(A_S* A_S) with A_S = B_S T, within
    CERTIFY_LIMIT.  T's factors are formed at the leaves from its twins:
    ||T||_F^2 - r adds the running sum of s^2 at each twin, and
    ||T^-1||_F^2 adds 2 / s^2 per twin and 1 per steering column.  A twin
    of spread 0 makes that +inf: the leaf scores +inf, certified.

    The walk's arrays live in the thread's ``_WORKSPACE``: each level's
    gathers of G_B and M_B at its columns, its running sums, its map
    ``anc`` from each prefix to its ancestor at every earlier level, and
    what ``_extend`` uses.  The two returned arrays are new.
    """
    pair, twin, levels = plan
    r = len(levels)
    ws = _WORKSPACE
    Gf, Mf = G_B.ravel(), M_B.ravel()
    rows, run, anc = [], None, None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j, (parent, at) in enumerate(levels):
            b, m = ws.array("bm", (2, *at.shape))
            # Every index is in range; "clip" lets take write into ``out``
            # directly, where the default "raise" fills a new copy first.
            Gf.take(at, out=b, mode="clip")
            Mf.take(at, out=m, mode="clip")
            # Two of each, by the parity of j: a level reads the last one's.
            child_run = ws.array(f"run{j % 2}", (3, len(parent)), float)
            child_anc = ws.array(f"anc{j % 2}", (j, len(parent)), np.intp)
            if j:
                run.take(parent, axis=1, out=child_run, mode="clip")
                anc.take(parent, axis=1, out=child_anc[:-1], mode="clip")
                child_anc[-1] = parent
            else:
                child_run.fill(0.0)
            run, anc = child_run, child_anc
            rows.append(_extend(rows, anc, b, m, run, j < r - 1))
        trace_g, fit, inv_trace = run
        s2_sum, frob2, inv_frob2 = 0.0, 0.0, 1.0
        for t, s2 in zip(twin, spread2[pair]):
            s2_sum = s2_sum + t * s2
            frob2 = frob2 + t * s2_sum
            inv_frob2 = inv_frob2 + np.where(t, 2 / s2, 1.0)
        bound = trace_g * inv_trace
        score = trace_r - fit
        dead = np.isinf(inv_frob2)
        certified = dead | (
            (bound * trace_r <= _GRAM_BOUND * score)
            & (bound * (frob2 + r) * inv_frob2 <= CERTIFY_LIMIT)
        )
    return np.where(dead, np.inf, score), certified


def _extend(rows, anc, b, m, run, internal):
    """Extend each prefix of length j by one column c of B; the rows its W and N gain.

    A prefix's state is W = L^-1 of its Gram G_S = L L* and N = W M_S W*,
    both lower triangular (N is Hermitian), and three running sums in
    ``run``: tr G_S, the fit tr(G_S^-1 M_S) and ||W||_F^2.  Row i of W
    and of N is the one its ancestor at level i gained: ``rows[i]`` holds
    them, (i + 1, n_i) each, for every prefix of length i + 1, and
    ``anc[i]`` picks each child's.  ``run`` holds the children's copy of
    their parents' sums, updated here, and ``b`` and ``m`` (j + 1, n) hold
    G_B and M_B at the prefix's columns and c, then at (c, c).  With
    l = W b, y = W* l and pivot lambda^2 = G_cc - ||l||^2, the child adds
    G_cc to tr G_S, (M_cc - 2 Re y* m + l* N l) / lambda^2 to the fit and
    (||y||^2 + 1) / lambda^2 to ||W||_F^2; W gains the row (-y*, 1) / lambda
    and N the column (W m - N l) / lambda, returned as ``(W row, N row)``
    where ``internal``, else None.  A non-positive pivot gives NaN, which
    leaves every subset under it uncertified.

    Every array is a ``_WORKSPACE`` buffer written with ``out=``, in the
    order of operations of the expression it stands for, and no complex
    product is written over one of its factors: numpy's in-place complex
    multiply rounds differently on arrays of one entry.  Row i of W, then
    of N, is gathered into one buffer when it is used, and W m is formed
    while W's row is there.
    """
    ws = _WORKSPACE
    j = len(b) - 1
    n = b.shape[1]
    if internal:
        l, yc, Nl, h = ws.array("lyNh", (4, j, n))  # yc holds conj(y), h W m
    else:
        # A leaf's y is spent before N l is formed, so N l takes its rows.
        l, yc = ws.array("lyNh", (2, j, n))
        Nl = yc
    row = ws.array("row", (j, n))
    t, lc = ws.array("scratch", (2, n))
    pivot, inv2, w2, gain, x, x2, inv = ws.array("reals", (7, n), float)
    np.copyto(pivot, b[j].real)
    for i in range(j):
        Wi = rows[i][0].take(anc[i], axis=1, out=row[: i + 1], mode="clip")
        li = np.multiply(Wi[0], b[0], out=l[i])
        for k in range(1, i + 1):
            np.add(li, np.multiply(Wi[k], b[k], out=t), out=li)
        np.conjugate(li, out=lc)
        np.subtract(pivot, np.multiply(lc, li, out=t).real, out=pivot)
        for k in range(i):
            np.add(yc[k], np.multiply(Wi[k], lc, out=t), out=yc[k])
        np.multiply(Wi[i], lc, out=yc[i])
        if internal:
            hi = np.multiply(Wi[0], m[0], out=h[i])
            for k in range(1, i + 1):
                np.add(hi, np.multiply(Wi[k], m[k], out=t), out=hi)
    inv2.fill(np.nan)
    np.divide(1, pivot, out=inv2, where=pivot > 0)
    w2.fill(1.0)
    np.copyto(gain, m[j].real)
    for k in range(j):
        np.add(np.square(yc[k].real, out=x), np.square(yc[k].imag, out=x2), out=x)
        np.add(w2, x, out=w2)
        np.multiply(2, np.multiply(yc[k], m[k], out=t).real, out=x)
        np.subtract(gain, x, out=gain)
    for i in range(j):
        Ni = rows[i][1].take(anc[i], axis=1, out=row[: i + 1], mode="clip")
        np.multiply(Ni[0], l[0], out=Nl[i])
        for k in range(i + 1):
            if k:
                np.add(Nl[i], np.multiply(Ni[k], l[k], out=t), out=Nl[i])
            if k < i:
                np.multiply(np.conjugate(Ni[k], out=lc), l[i], out=t)
                np.add(Nl[k], t, out=Nl[k])
    for i in range(j):
        np.multiply(np.conjugate(l[i], out=lc), Nl[i], out=t)
        np.add(gain, t.real, out=gain)
    np.multiply(gain, inv2, out=gain)
    run[0] += b[j].real
    run[1] += gain
    run[2] += np.multiply(w2, inv2, out=x)
    if not internal:
        return None
    W, N = ws.array(f"WN{j}", (2, j + 1, n))
    np.sqrt(inv2, out=inv)
    for k in range(j):
        np.multiply(np.negative(inv, out=x), yc[k], out=W[k])
        np.subtract(h[k], Nl[k], out=h[k])
        np.conjugate(np.multiply(h[k], inv, out=t), out=N[k])
    W[j] = inv
    N[j] = gain
    return W, N


def _qr_scores(A, G, R, sets, idx, trace_r):
    """QR-route scores of rows i = subset ``idx[i]`` of set ``sets[i]``, +inf where the guard fails.

    Each row gathers its own set's columns of the stacked A, so a block may
    mix sets.  The COND_LIMIT guard is read off the QR first: with
    A_S = Q R_A, cond(A* A) <= ||R_A||_F^(2r) / prod |R_A,kk|^2, so a
    subset whose bound is within CERTIFY_LIMIT passes.  Only the undecided
    rest go through ``condition_number`` of their Gram, gathered from the
    stacked G.  The fit is formed for every row, kept where the guard passes.
    """
    Q, R_A = np.linalg.qr(A.swapaxes(1, 2)[sets[:, None], idx].transpose(0, 2, 1))
    frob2 = np.sum(np.abs(R_A) ** 2, axis=(1, 2))
    diag2 = np.abs(np.diagonal(R_A, axis1=1, axis2=2)) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        bound = np.prod(frob2[:, None] / diag2, axis=1)
    ok = bound <= CERTIFY_LIMIT
    if not np.all(ok):
        gram = G[sets[~ok, None, None], idx[~ok, :, None], idx[~ok, None, :]]
        ok[~ok] = condition_number(gram) <= COND_LIMIT
    # Q is conjugated in place once R Q is formed: one block-sized copy fewer.
    RQ = R @ Q
    fit = np.real(np.sum(np.conjugate(Q, out=Q) * RQ, axis=(1, 2)))
    return np.where(ok, trace_r - fit, np.inf)


# The errors that fail one config of ``estimate_many`` rather than the call.
_TYPED_ERRORS = (SingularityError, NumericalError, ValidationError)


def estimate_many(cov, decomp, weight, r, configs, *, timings=None):
    """Run every config on one sample covariance and decomposition: one outcome per config.

    An outcome is the config's ``EstimationResult``, or the typed error
    (``ValidationError``, ``SingularityError``, ``NumericalError``) that
    failed it, which fails that entry alone.  Each config's checks, solves
    and roots are one ``_solve`` call, as alone but for the degree-r memo
    it describes, which lives for this call.  A plain config's result is
    its loop's last c and that c's roots, and V_MODE of c, which also ends
    ``criterion_history``.  Then the MODEX configs' candidate sets of equal
    length are scored in one stacked ``_score_subsets`` call, which scores
    each set bit for bit as alone, so every outcome is that of the
    config's own ``estimate``.
    A list ``timings`` receives each config's seconds: its solves and
    roots, the degree-r ones counted whether it ran them or read them,
    and for MODEX the whole stacked scoring it shared and its pick.
    """
    clock = time.perf_counter
    outcomes = [None] * len(configs)
    seconds = [0.0] * len(configs)
    memo = {}  # solver -> its degree-r solve and roots, and their seconds
    pooled = {}  # K -> [(config index, _solve's tuple), ...]
    for i, config in enumerate(configs):
        t0 = clock()
        try:
            solved, seconds[i] = _solve(decomp, weight, r, config, memo)
            if config.p_extra is None:
                candidates, c, iterations, converged, history = solved
                value = v_mode(c, decomp, weight).value
                outcomes[i] = EstimationResult(
                    angles=candidates,
                    coefs=c,
                    criterion_value=value,
                    iterations_used=iterations,
                    converged=converged,
                    criterion_history=history + [value],
                )
            else:
                pooled.setdefault(len(solved[0]), []).append((i, solved))
        except _TYPED_ERRORS as exc:
            outcomes[i] = exc
        seconds[i] += clock() - t0
    for group in pooled.values():
        t0 = clock()
        subsets, scores = _score_subsets(np.stack([solved[0] for _, solved in group]), cov, r)
        shared = clock() - t0
        for (i, (candidates, c, iterations, converged, _)), row in zip(group, scores):
            t0 = clock()
            # The first minimum of scores finite or +inf; +inf fails the config.
            best = int(np.argmin(row))
            if np.isfinite(row[best]):
                phi = candidates[subsets]
                outcomes[i] = EstimationResult(
                    angles=phi[best].copy(),
                    coefs=c,
                    criterion_value=float(row[best]),
                    iterations_used=iterations,
                    converged=converged,
                    _candidates=(phi, row.copy()),
                )
            else:
                outcomes[i] = SingularityError("no valid candidate subset (all rank-deficient)")
            seconds[i] += shared + clock() - t0
    if timings is not None:
        timings.extend(seconds)
    return outcomes


def estimate(cov, decomp, weight, r, config):
    """Run one config, raising its typed error: a batch of one of ``estimate_many``.

    Only MODEX's subset scoring reads ``cov``; MODE and PUMA fit the
    decomposition and weight alone.
    """
    (outcome,) = estimate_many(cov, decomp, weight, r, (config,))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def match_angles(estimate_angles, truth_angles):
    """Wrap-aware pairing of each estimated angle set with one true set.

    Both sets are sorted ascending and paired by the cyclic shift of the
    sorted estimates with the least squared error, so sets that straddle
    +-pi pair across the wrap.  The per-pair error is the principal value
    of (estimate - truth) in (-pi, pi], ordered like the sorted truth.
    Returns (errors, rmse).  ``estimate_angles`` may be a (k, n) stack of
    sets against n true angles: errors is then (k, n) and rmse a (k,)
    array, and each row gets the same arithmetic as that set alone, so a
    single set is a stack of one.  Sets of unequal length, or of no
    angles, are a ValidationError.
    """
    est = np.asarray(estimate_angles, dtype=float)
    stacked = est.ndim == 2
    est = np.sort(est if stacked else np.atleast_1d(est)[None], axis=-1)
    tru = np.sort(np.atleast_1d(np.asarray(truth_angles, dtype=float)))
    if tru.ndim != 1 or est.shape[1:] != tru.shape:
        raise ValidationError("angle sets must have equal length")
    n = tru.size
    if n == 0:
        raise ValidationError("angle sets must not be empty")
    shifts = (np.arange(n)[:, None] + np.arange(n)) % n
    d = est[:, shifts] - tru
    errs = np.mod(d + np.pi, 2 * np.pi) - np.pi
    errs[errs == -np.pi] = np.pi
    best = np.argmin(np.add.reduce(errs**2, axis=-1), axis=-1)
    err = errs[np.arange(len(est)), best]
    # np.mean's arithmetic, np.add.reduce(x) / x.size, without its wrapper.
    rmse = np.sqrt(np.add.reduce(err**2, axis=-1) / n)
    return (err, rmse) if stacked else (err[0], float(rmse[0]))
