import re
import warnings

import numpy as np
import pytest

from modepuma import (
    NumericalError,
    Scenario,
    ValidationError,
    sample_covariance,
    signal_weight,
    simulate_snapshots,
    steering_matrix,
    subspace_decomposition,
    true_covariance,
)
from modepuma import sample_stats
from modepuma.sample_stats import _hermitian_sqrt


def make_scenario(m=3, r=1, angles=(0.5,), power=1.0, noise=1.0, T=100, seed=0):
    return Scenario(
        m=m,
        r=r,
        angles=angles,
        source_cov=power * np.eye(r),
        noise_power=noise,
        n_snapshots=T,
        seed=seed,
    )


class TestScenario:
    def test_rejects_r_ge_m(self):
        with pytest.raises(ValidationError):
            make_scenario(m=2, r=2, angles=(0.1, 0.5))

    def test_rejects_non_psd_source_cov(self):
        with pytest.raises(ValidationError):
            Scenario(
                m=3, r=1, angles=[0.2], source_cov=-np.eye(1),
                noise_power=1.0, n_snapshots=10, seed=0,
            )

    def test_rejects_source_cov_of_the_wrong_size(self):
        with pytest.raises(ValidationError, match="r\\^2 = 4 entries, got 9"):
            Scenario(
                m=6, r=2, angles=[-0.4, 0.7], source_cov=np.eye(3),
                noise_power=1.0, n_snapshots=10, seed=0,
            )

    def test_source_cov_not_shared_with_caller(self):
        P = np.eye(2, dtype=complex)
        sc = Scenario(
            m=3, r=2, angles=[-0.2, 0.4], source_cov=P,
            noise_power=1.0, n_snapshots=10, seed=0,
        )
        P[0, 0] = -5
        assert sc.source_cov[0, 0] == 1
        assert not np.shares_memory(sc.source_cov, P)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), "1"])
    def test_rejects_noise_power_not_finite_non_negative(self, noise):
        with pytest.raises(ValidationError, match="noise power"):
            make_scenario(noise=noise)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("seed", "3"), ("seed", True), ("m", 6.0), ("r", 1.0), ("n_snapshots", 2.5)],
    )
    def test_counts_and_seed_must_be_integers(self, field, value):
        # A float seed would be truncated to the same draws as its integer
        # part, and a float count would fail later as a bare TypeError.
        fields = dict(
            m=6, r=1, angles=(0.5,), source_cov=np.eye(1), noise_power=1.0, n_snapshots=10, seed=1,
        )
        fields[field] = value
        with pytest.raises(ValidationError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            Scenario(**fields)

    def test_numpy_integers_are_integers(self):
        sc = Scenario(
            m=np.int64(4), r=np.int64(1), angles=[0.5], source_cov=np.eye(1),
            noise_power=1.0, n_snapshots=np.int64(10), seed=np.uint64(2**63 + 5),
        )
        ref = make_scenario(m=4, T=10, seed=2**63 + 5)
        assert np.array_equal(simulate_snapshots(sc), simulate_snapshots(ref))

    def test_the_draws_are_capped(self):
        # T (r + m) up to 2**24 is accepted; one snapshot more is rejected
        # before anything is allocated.
        make_scenario(m=15, T=2**20)
        message = "would draw T (r + m) = 16777232 complex values, over the limit of 16777216"
        with pytest.raises(ValidationError, match=re.escape(message)):
            make_scenario(m=15, T=2**20 + 1)
        with pytest.raises(ValidationError, match="simulating 5 snapshots at m=300000000, r=1"):
            make_scenario(m=300_000_000, T=5)

    @pytest.mark.parametrize("power", [1e160, 1e300])
    def test_huge_diagonal_source_cov_accepted_without_warning(self, power):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sc = Scenario(
                m=4, r=2, angles=[-0.3, 0.9], source_cov=np.diag([power, power]),
                noise_power=1.0, n_snapshots=10, seed=0,
            )
        assert np.array_equal(sc.source_cov, np.diag([power, power]))

    def test_non_hermitian_source_cov_rejected_at_huge_scale(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            Scenario(
                m=4, r=2, angles=[-0.3, 0.9], source_cov=1e160 * np.array([[1.0, 0.5], [0.0, 1.0]]),
                noise_power=1.0, n_snapshots=10, seed=0,
            )


class TestTrueCovariance:
    def test_rank_one_noiseless(self):
        R = true_covariance(make_scenario(m=2, angles=(0.0,), noise=0.0))
        assert np.allclose(R, [[1, 1], [1, 1]])

    def test_noise_only(self):
        R = true_covariance(make_scenario(m=4, power=0.0, noise=1.0))
        assert np.allclose(R, np.eye(4))

    def test_eigenvalues_rank_one_plus_noise(self):
        R = true_covariance(make_scenario(m=3, angles=(0.0,), noise=0.5))
        w = np.sort(np.linalg.eigvalsh(R))
        assert np.allclose(w, [0.5, 0.5, 3.5])


class TestSimulateSnapshots:
    def test_zero_sources_zero_noise(self):
        Y = simulate_snapshots(make_scenario(power=0.0, noise=0.0, T=10))
        assert np.all(Y == 0)

    def test_deterministic_given_seed(self):
        a = simulate_snapshots(make_scenario(seed=123))
        b = simulate_snapshots(make_scenario(seed=123))
        assert np.array_equal(a, b)

    def test_prefix_does_not_depend_on_snapshot_count(self):
        # Snapshot t depends only on (seed, t), so a shorter run is a
        # prefix of a longer one with the same seed.
        sc = dict(m=4, r=2, angles=(-0.3, 0.9), noise=0.5, seed=99)
        short = simulate_snapshots(make_scenario(T=7, **sc))
        long = simulate_snapshots(make_scenario(T=20, **sc))
        assert np.array_equal(short, long[:, :7])

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
    def test_draws_come_from_one_keyed_generator_per_trial(self, seed):
        # Reference: snapshot t uses row t of one block drawn from
        # Generator(Philox(key=seed)).
        sc = Scenario(
            m=4, r=2, angles=[-0.3, 0.9], source_cov=[[1.0, 0.3], [0.3, 2.0]],
            noise_power=0.5, n_snapshots=12, seed=seed,
        )
        A = steering_matrix(sc.angles, sc.m)
        L = _hermitian_sqrt(sc.source_cov)
        expected = np.empty((sc.m, sc.n_snapshots), dtype=complex)
        rng = np.random.Generator(np.random.Philox(key=seed))
        Z = rng.standard_normal((sc.n_snapshots, 2 * (sc.r + sc.m)))
        for t, z in enumerate(Z):
            v = (z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)
            expected[:, t] = A @ (L @ v[: sc.r]) + np.sqrt(sc.noise_power) * v[sc.r :]
        assert np.array_equal(simulate_snapshots(sc), expected)

    @pytest.mark.parametrize("m", range(2, 21))
    def test_stacked_product_equals_per_snapshot_formula(self, m):
        # The reference formula of test_draws_come_from_one_keyed_generator_per_trial,
        # over every r < m, snapshot counts from 1 to 200, identity and
        # correlated source covariances, and noise power 0 among others.
        seeds = [0, 3, 2**63 + 5, 2**64 - 1]
        noises = [0.0, 0.5, 2.0]
        case = 0
        for r in range(1, m):
            k = np.arange(r)
            correlated = 0.9 ** np.abs(k[:, None] - k) * np.exp(0.3j * (k[:, None] - k))
            for T in (1, 7, 100, 200):
                for P in (np.eye(r), correlated):
                    seed, noise = seeds[case % 4], noises[case % 3]
                    case += 1
                    sc = Scenario(
                        m=m, r=r, angles=np.linspace(-2.5, 2.5, r) + 0.01 * m,
                        source_cov=P, noise_power=noise, n_snapshots=T, seed=seed,
                    )
                    A = steering_matrix(sc.angles, m)
                    L = _hermitian_sqrt(sc.source_cov)
                    expected = np.empty((m, T), dtype=complex)
                    rng = np.random.Generator(np.random.Philox(key=seed))
                    Z = rng.standard_normal((T, 2 * (r + m)))
                    for t, z in enumerate(Z):
                        v = (z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)
                        expected[:, t] = A @ (L @ v[:r]) + np.sqrt(noise) * v[r:]
                    Y = simulate_snapshots(sc)
                    assert Y.flags.c_contiguous
                    assert np.array_equal(Y, expected), (m, r, T, seed, noise)

    def test_large_sample_matches_model(self):
        sc = make_scenario(T=100_000, seed=17)
        R_hat = sample_covariance(simulate_snapshots(sc))
        R = true_covariance(sc)
        assert np.linalg.norm(R_hat - R) <= 0.05 * np.linalg.norm(R)

    def test_error_scaling_with_snapshot_count(self):
        # averaged Frobenius error should shrink roughly like 1/sqrt(T)
        sc_small = [make_scenario(T=50, seed=s) for s in range(50)]
        sc_large = [make_scenario(T=800, seed=1000 + s) for s in range(50)]
        R = true_covariance(sc_small[0])

        def mean_err(scenarios):
            return np.mean(
                [
                    np.linalg.norm(sample_covariance(simulate_snapshots(sc)) - R)
                    for sc in scenarios
                ]
            )

        ratio = mean_err(sc_small) / mean_err(sc_large)
        assert 2.5 <= ratio <= 6.5


class TestSampleCovariance:
    def test_the_covariance_is_capped(self):
        # m^2 up to 2**24 (m = 4096) is accepted; at m = 4097 the covariance
        # is rejected before it is formed.
        message = (
            "a sample covariance at m=4097 would hold m^2 = 16785409 complex values, "
            "over the limit of 16777216"
        )
        with pytest.raises(ValidationError, match=re.escape(message)):
            sample_covariance(np.zeros((4097, 1)))
        sample_stats.check_covariance_size(4096)

    def test_single_snapshot_outer_product(self):
        R = sample_covariance(np.array([[1.0], [1j]]))
        assert np.allclose(R, [[1, -1j], [1j, 1]])

    def test_zero_snapshots_matrix(self):
        R = sample_covariance(np.zeros((3, 5), dtype=complex))
        assert np.all(R == 0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            sample_covariance(np.zeros((3, 0), dtype=complex))

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30))
        R = sample_covariance(Y)
        direct = np.zeros((4, 4), dtype=complex)
        for t in range(30):
            y = Y[:, t : t + 1]
            direct += y @ y.conj().T
        direct /= 30
        assert np.max(np.abs(R - direct)) <= 1e-14

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_past_float_range_is_numerical_error_without_warning(self, scale):
        Y = scale * np.ones((3, 4), dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="float range"):
                sample_covariance(Y)

    def test_hermitian_psd(self):
        rng = np.random.default_rng(6)
        Y = rng.standard_normal((5, 20)) + 1j * rng.standard_normal((5, 20))
        R = sample_covariance(Y)
        assert np.linalg.norm(R - R.conj().T) <= 1e-12
        w = np.linalg.eigvalsh(R)
        assert w[0] >= -1e-10 * w[-1]


class TestSubspaceDecomposition:
    def test_diagonal_covariance(self):
        d = subspace_decomposition(sample_covariance_like(np.diag([3.0, 1.0, 1.0])), 1)
        assert np.allclose(d.lambdas, [3.0])
        assert abs(d.sigma2 - 1.0) <= 1e-12
        assert abs(abs(d.u_signal[0, 0]) - 1.0) <= 1e-12

    def test_identity_degenerate(self):
        d = subspace_decomposition(sample_covariance_like(np.eye(3)), 1)
        assert abs(d.sigma2 - 1.0) <= 1e-12
        assert np.allclose(d.lambdas, [1.0])

    def test_orthonormal_eigenvectors(self):
        sc = make_scenario(m=5, r=2, angles=(-0.3, 0.8), T=50, seed=9)
        d = subspace_decomposition(sample_covariance(simulate_snapshots(sc)), 2)
        gram = d.u_signal.conj().T @ d.u_signal
        assert np.linalg.norm(gram - np.eye(2)) <= 1e-10

    def test_reconstruction(self):
        sc = make_scenario(m=4, r=1, angles=(0.4,), noise=0.25)
        R = true_covariance(sc)
        d = subspace_decomposition(R, 1)
        noise_proj = np.eye(4) - d.u_signal @ d.u_signal.conj().T
        rebuilt = (d.u_signal * d.lambdas) @ d.u_signal.conj().T + d.sigma2 * noise_proj
        assert np.max(np.abs(rebuilt - R)) <= 1e-10

    def test_sigma2_consistency_on_model_covariance(self):
        sc = make_scenario(m=5, r=1, angles=(0.4,), power=2.0, noise=0.3)
        d = subspace_decomposition(true_covariance(sc), 1)
        assert abs(d.sigma2 - 0.3) <= 1e-10
        assert abs(d.lambdas[0] - (2.0 * 5 + 0.3)) <= 1e-10


def sample_covariance_like(matrix):
    return np.asarray(matrix, dtype=complex)


class TestSignalWeight:
    def test_zero_noise(self):
        d = subspace_decomposition(sample_covariance_like(np.diag([2.0, 0, 0])), 1)
        assert np.allclose(signal_weight(d), [2.0])

    def test_formula(self):
        d = subspace_decomposition(sample_covariance_like(np.diag([3.0, 1.0, 1.0])), 1)
        assert np.allclose(signal_weight(d), [4.0 / 3.0])

    def test_boundary_zero_weight(self):
        d = subspace_decomposition(sample_covariance_like(np.eye(3)), 1)
        assert np.allclose(signal_weight(d), [0.0])

    @pytest.mark.parametrize("gap", [1e-155, 1e-160, 1e-300])
    def test_gap_whose_square_is_below_normal_range_is_numerical_error(self, gap):
        # The square is subnormal, then 0: the weight would lose its bits.
        d = subspace_decomposition(sample_covariance_like(np.diag([gap, 0, 0])), 1)
        with pytest.raises(NumericalError, match="signal weights underflow float range"):
            signal_weight(d)

    def test_smallest_gap_whose_square_is_normal_keeps_its_weight(self):
        gap = 2.0**-511  # its square is np.finfo(float).tiny
        d = subspace_decomposition(sample_covariance_like(np.diag([gap, 0, 0])), 1)
        assert signal_weight(d)[0] == gap

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_weight_past_float_range_is_numerical_error(self, scale):
        # (lambda - sigma^2)^2 overflows; no RuntimeWarning escapes either.
        d = subspace_decomposition(sample_covariance_like(np.diag([scale, 1.0, 1.0])), 1)
        with pytest.raises(NumericalError, match="float range"):
            signal_weight(d)
