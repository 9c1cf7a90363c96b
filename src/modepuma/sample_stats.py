"""
Snapshot simulation and second-order statistics.

Implements the narrowband model y(t) = A s(t) + n(t) with circular complex
Gaussian sources and noise, the sample covariance, its eigendecomposition
into signal subspace / noise power, and the diagonal signal weights
g_i = (lambda_i - sigma^2)^2 / lambda_i used by the weighted subspace fit.
"""

from dataclasses import dataclass

import numpy as np

from .array_model import as_angles, steering_matrix
from .errors import NumericalError, ValidationError, check_count, check_integer, check_real

# Most complex draws of one simulation, T (r + m): ``simulate_snapshots``
# draws them as a (T, 2 (r + m)) block of floats, 256 MiB at the cap, and
# peaks near 1 GiB.  It also caps the m^2 entries of a sample covariance
# (m <= 4096, 256 MiB).
_MAX_DRAWS = 2**24


def check_draw_size(m, r, n_snapshots):
    """The simulation's size rule, shared with the sweep parser: T (r + m) <= _MAX_DRAWS."""
    draws = n_snapshots * (r + m)
    if draws > _MAX_DRAWS:
        raise ValidationError(
            f"simulating {n_snapshots} snapshots at m={m}, r={r} would draw "
            f"T (r + m) = {draws} complex values, over the limit of {_MAX_DRAWS}"
        )


def check_covariance_size(m):
    """The sample covariance's size rule, shared with the readers: m^2 <= _MAX_DRAWS."""
    if m * m > _MAX_DRAWS:
        raise ValidationError(
            f"a sample covariance at m={m} would hold m^2 = {m * m} complex values, "
            f"over the limit of {_MAX_DRAWS}"
        )


def check_source_cov(source_cov, r):
    """A complex r x r copy of ``source_cov``, which must be finite, Hermitian and PSD; shared with the sweep parser.

    A copy, so a frozen Scenario does not change with the caller's array.
    """
    P = np.array(source_cov, dtype=complex)
    if P.size != r * r:
        raise ValidationError(f"source covariance must have r^2 = {r * r} entries, got {P.size}")
    P = P.reshape(r, r)
    if not np.all(np.isfinite(P)):
        raise ValidationError("source covariance must be finite")
    # Norms of P scaled by its largest entry (at least 1), so they cannot overflow.
    s = max(1.0, float(np.max(np.abs(P), initial=0.0)))
    Q = P / s
    if np.linalg.norm(Q - Q.conj().T) > 1e-12 * max(1.0 / s, np.linalg.norm(Q)):
        raise ValidationError("source covariance must be Hermitian")
    # Halved before the sum so it cannot overflow; in normal range the bits
    # equal those of 0.5 * (P + P*).
    w = np.linalg.eigvalsh(0.5 * P + 0.5 * P.conj().T)
    if w.size and w[0] < -1e-10 * max(w[-1], 1.0):
        raise ValidationError("source covariance must be positive semidefinite")
    return P


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulated experiment.

    m is an integer (``check_integer``); r, seed and n_snapshots are
    integers in range (``check_count``): 0 < r < m, 0 <= seed < 2**64 and
    n_snapshots >= 1.  r counts the angles, and the simulation's draws fit
    ``check_draw_size``.  noise_power is a real number >= 0
    (``check_real``), stored as a float.
    """

    m: int
    r: int
    angles: np.ndarray  # r ascending, in (-pi, pi]
    source_cov: np.ndarray  # r x r Hermitian PSD
    noise_power: float
    n_snapshots: int
    seed: int

    def __post_init__(self):
        check_integer("m", self.m)
        check_count("r", self.r, 1, self.m)
        check_count("seed", self.seed, 0, 2**64)
        check_count("n_snapshots", self.n_snapshots, 1)
        object.__setattr__(self, "angles", as_angles(self.angles))
        if self.r != self.angles.size:
            raise ValidationError("r does not match the number of angles")
        object.__setattr__(self, "source_cov", check_source_cov(self.source_cov, self.r))
        object.__setattr__(self, "noise_power", check_real("noise power", self.noise_power, 0))
        check_draw_size(self.m, self.r, self.n_snapshots)


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Principal eigenpairs of a covariance plus the noise-power estimate."""

    u_signal: np.ndarray  # m x r orthonormal
    lambdas: np.ndarray  # r descending
    sigma2: float

    @property
    def m(self):
        return self.u_signal.shape[0]

    @property
    def r(self):
        return self.u_signal.shape[1]


def true_covariance(scenario):
    """Exact model covariance A P A* + sigma^2 I (no sampling)."""
    A = steering_matrix(scenario.angles, scenario.m)
    R = A @ scenario.source_cov @ A.conj().T
    R = R + scenario.noise_power * np.eye(scenario.m)
    return 0.5 * (R + R.conj().T)


def _hermitian_sqrt(P):
    w, V = np.linalg.eigh(0.5 * (P + P.conj().T))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.conj().T


def simulate_snapshots(scenario):
    """Draw T snapshots y(t) = A s(t) + n(t), deterministic given the seed.

    Returns the m x T matrix whose column t is y(t).  Sources and noise
    are circular complex Gaussian: real and imaginary parts are independent
    zero-mean Gaussians with half the target variance; sources are colored
    by the Hermitian square root of P.  One Philox generator keyed on the
    seed draws a T x 2(r + m) block row by row; snapshot t uses row t.
    The steering matrix A, P^{1/2} and sigma are derived here, and the
    draw is ``_draw_snapshots``, which ``bench.run_sweep`` calls with
    those factors built once per sweep (A, P^{1/2}) and per cell (sigma).
    """
    A = steering_matrix(scenario.angles, scenario.m)
    L = _hermitian_sqrt(scenario.source_cov)
    sigma = np.sqrt(scenario.noise_power)
    return _draw_snapshots(A, L, sigma, scenario.n_snapshots, scenario.seed)


def _draw_snapshots(A, L, sigma, T, seed):
    """The m x T snapshots A L w_s(t) + sigma w_n(t) of ``simulate_snapshots``, from its factors.

    A is the m x r steering matrix, L = P^{1/2} and sigma the noise
    amplitude; the factors are taken as given, unchecked.
    """
    m, r = A.shape
    rng = np.random.Generator(np.random.Philox(key=seed))
    Z = rng.standard_normal((T, 2 * (r + m)))
    W = (Z[:, 0::2] + 1j * Z[:, 1::2]) / np.sqrt(2.0)
    # Row t of Z is snapshot t's draws, so a shorter run is a prefix of a
    # longer one.  The stacked (T, m, r) @ (T, r, 1) product keeps that
    # bit-exact: each snapshot gets the same per-column arithmetic whatever
    # T is, which a 2-D A @ (L @ W.T) does not guarantee.
    Y = (A @ (L @ W[:, :r, None]))[:, :, 0] + sigma * W[:, r:]
    return np.ascontiguousarray(Y.T)


def sample_covariance(snapshots):
    """(1/T) sum_t y(t) y*(t), exactly Hermitian; NumericalError past float range.

    An m past ``check_covariance_size`` is a ValidationError before anything is formed.
    """
    Y = np.asarray(snapshots)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise ValidationError("need an m x T snapshot matrix with T >= 1")
    check_covariance_size(Y.shape[0])
    T = Y.shape[1]
    with np.errstate(all="ignore"):
        R = (Y @ Y.conj().T) / T
        R = 0.5 * (R + R.conj().T)
    if not np.all(np.isfinite(R)):
        raise NumericalError("sample covariance is past float range")
    return R


def subspace_decomposition(cov, r):
    """Split a covariance into r principal eigenpairs and the noise floor.

    r is an integer with 0 < r < m (``check_count``).  sigma2 is the mean
    of the m - r smallest eigenvalues.  Each eigenvector's phase is fixed
    so its largest-magnitude entry is real positive, making the output
    deterministic.
    """
    R = np.asarray(cov)
    check_count("r", r, 1, R.shape[0])
    try:
        w, V = np.linalg.eigh(0.5 * (R + R.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    w, V = w[::-1], V[:, ::-1]  # descending
    U = V[:, :r].copy()
    for i in range(r):
        k = int(np.argmax(np.abs(U[:, i])))
        ph = U[k, i] / abs(U[k, i])
        U[:, i] = U[:, i] / ph
    sigma2 = float(np.mean(w[r:]))
    return SubspaceDecomposition(u_signal=U, lambdas=w[:r].copy(), sigma2=sigma2)


def signal_weight(decomp):
    """Weights g_i = (lambda_i - sigma^2)^2 / lambda_i; NumericalError past float range.

    Past it on either side: a weight that overflows, or a nonzero gap
    lambda_i - sigma^2 whose square is below normal range (a gap under
    about 1.5e-154), where the weights lose their bits and then all read 0.
    A gap of exactly 0 keeps its weight of 0.
    """
    lam = np.asarray(decomp.lambdas, dtype=float)
    if np.any(lam <= 0):
        raise ValidationError("signal eigenvalues must be positive")
    gap = lam - decomp.sigma2
    with np.errstate(over="ignore"):
        gap2 = gap**2
        g = gap2 / lam
    if not np.all(np.isfinite(g)):
        raise NumericalError("signal weights overflow float range")
    if np.any((gap2 < np.finfo(float).tiny) & (gap != 0)):
        raise NumericalError("signal weights underflow float range")
    return g
