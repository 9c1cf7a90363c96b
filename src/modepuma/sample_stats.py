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
from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulated experiment."""

    m: int
    r: int
    angles: np.ndarray  # r ascending, in (-pi, pi]
    source_cov: np.ndarray  # r x r Hermitian PSD
    noise_power: float
    n_snapshots: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "angles", as_angles(self.angles))
        if self.r != self.angles.size:
            raise ValidationError("r does not match the number of angles")
        if self.r >= self.m:
            raise ValidationError(f"need r < m, got r={self.r}, m={self.m}")
        # A copy, so the frozen Scenario does not change with the caller's array.
        P = np.array(self.source_cov, dtype=complex).reshape(self.r, self.r)
        if np.linalg.norm(P - P.conj().T) > 1e-12 * max(1.0, np.linalg.norm(P)):
            raise ValidationError("source covariance must be Hermitian")
        w = np.linalg.eigvalsh(0.5 * (P + P.conj().T))
        if w.size and w[0] < -1e-10 * max(w[-1], 1.0):
            raise ValidationError("source covariance must be positive semidefinite")
        object.__setattr__(self, "source_cov", P)
        if not (np.isfinite(self.noise_power) and self.noise_power >= 0):
            raise ValidationError("noise power must be finite and >= 0")
        if self.n_snapshots < 1:
            raise ValidationError("need at least one snapshot")
        if not (0 <= int(self.seed) < 2**64):
            raise ValidationError("seed must fit in an unsigned 64-bit integer")


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
    by the Hermitian square root of P.  Each snapshot draws from its own
    stream; all snapshots are then combined in one stacked product.
    """
    m, r, T = scenario.m, scenario.r, scenario.n_snapshots
    A = steering_matrix(scenario.angles, scenario.m)
    L = _hermitian_sqrt(scenario.source_cov)
    sigma = np.sqrt(scenario.noise_power)
    Z = np.empty((T, 2 * (r + m)))
    # Counter-based substream per snapshot, so results do not depend on how
    # snapshots are batched: snapshot t draws from Philox key [t, seed]
    # (the 128-bit key (seed << 64) + t) at counter 0.  One generator is
    # re-keyed per snapshot from its fresh state (counter 0, empty buffer);
    # constructing one per snapshot costs a SeedSequence.
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    for t in range(T):
        fresh["state"]["key"] = np.array([t, int(scenario.seed)], dtype=np.uint64)
        bitgen.state = fresh
        rng.standard_normal(out=Z[t])
    W = (Z[:, 0::2] + 1j * Z[:, 1::2]) / np.sqrt(2.0)
    # The stacked (T, m, r) @ (T, r, 1) products give the bits of the
    # per-snapshot A @ (L @ w); a 2-D A @ (L @ W.T) would not.
    Y = (A @ (L @ W[:, :r, None]))[:, :, 0] + sigma * W[:, r:]
    return np.ascontiguousarray(Y.T)


def sample_covariance(snapshots):
    """(1/T) sum_t y(t) y*(t), symmetrized to be exactly Hermitian."""
    Y = np.asarray(snapshots)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise ValidationError("need an m x T snapshot matrix with T >= 1")
    T = Y.shape[1]
    R = (Y @ Y.conj().T) / T
    return 0.5 * (R + R.conj().T)


def subspace_decomposition(cov, r):
    """Split a covariance into r principal eigenpairs and the noise floor.

    sigma2 is the mean of the m - r smallest eigenvalues.  Each
    eigenvector's phase is fixed so its largest-magnitude entry is real
    positive, making the output deterministic.
    """
    R = np.asarray(cov)
    m = R.shape[0]
    if not (0 < r < m):
        raise ValidationError(f"need 0 < r < m, got r={r}, m={m}")
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
    """Weights g_i = (lambda_i - sigma^2)^2 / lambda_i from a decomposition."""
    lam = np.asarray(decomp.lambdas, dtype=float)
    if np.any(lam <= 0):
        raise ValidationError("signal eigenvalues must be positive")
    return (lam - decomp.sigma2) ** 2 / lam
