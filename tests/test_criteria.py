import numpy as np
import pytest

from modepuma import (
    Scenario,
    SingularityError,
    SubspaceDecomposition,
    coefs_from_angles,
    projector_from_annihilator,
    quadratic_form_matrix,
    sample_covariance,
    simulate_snapshots,
    subspace_decomposition,
    toeplitz_annihilator,
    true_covariance,
    v_ml_angles,
    v_ml_coefs,
    v_mode,
    v_puma,
    vec,
)
from modepuma import criteria
from modepuma.array_model import COND_LIMIT
from modepuma.bench import _random_instance, random_angle_set
from modepuma.criteria import (
    trace_vec_identity_residual,
    vec_matrix_identity_residual,
)
from modepuma.errors import DimensionError, ValidationError


def cov_of(matrix):
    return np.asarray(matrix, dtype=complex)


class TestVecKron:
    def test_column_stacking(self):
        assert np.allclose(vec([[1, 2], [3, 4]]), [1, 3, 2, 4])

    def test_vec_of_product_identity(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        Y = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        Z = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        assert vec_matrix_identity_residual(X, Y, Z) <= 1e-12

    def test_trace_as_inner_product(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        Y = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert trace_vec_identity_residual(X, Y) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            vec_matrix_identity_residual(np.eye(2), np.eye(3), np.eye(3))
        with pytest.raises(DimensionError):
            trace_vec_identity_residual(np.eye(2), np.eye(3))


class TestVmlAngles:
    def test_zero_at_truth_noiseless(self):
        sc = Scenario(
            m=5, r=2, angles=[-0.4, 0.7], source_cov=np.eye(2),
            noise_power=0.0, n_snapshots=1, seed=0,
        )
        val = v_ml_angles(sc.angles, true_covariance(sc)).value
        assert abs(val) <= 1e-10

    def test_identity_covariance(self):
        val = v_ml_angles([0.1, 0.9], cov_of(np.eye(5))).value
        assert abs(val - (5 - 2)) <= 1e-10

    def test_matches_coefficient_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            phi = random_angle_set(rng, 2)
            Z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            R = cov_of(Z @ Z.conj().T / 5)
            va = v_ml_angles(phi, R).value
            vc = v_ml_coefs(coefs_from_angles(phi), R).value
            assert abs(va - vc) <= 1e-10 * max(1.0, va)

    def test_coincident_angles_rejected(self):
        with pytest.raises(Exception):
            v_ml_angles([0.5, 0.5], cov_of(np.eye(4)))


class TestVmlCoefs:
    def test_identity_covariance_single_root(self):
        assert abs(v_ml_coefs([1, -1], cov_of(np.eye(2))).value - 1.0) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        R = cov_of(np.eye(6) * 2.0)
        v1 = v_ml_coefs(c, R).value
        v2 = v_ml_coefs((0.7 - 1.3j) * c, R).value
        assert abs(v1 - v2) <= 1e-10 * max(1.0, v1)

    def test_matches_explicit_projector(self):
        from modepuma import projector_from_annihilator, toeplitz_annihilator

        rng = np.random.default_rng(5)
        for _ in range(20):
            c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            R = Z @ Z.conj().T / 4
            expected = np.trace(
                projector_from_annihilator(toeplitz_annihilator(c, 4)) @ R
            ).real
            assert abs(v_ml_coefs(c, cov_of(R)).value - expected) <= 1e-12 * max(1, expected)

    def test_singular_gram_rejected(self):
        # (1 - z)^8 on a long array: the Gram of the shifted rows is
        # numerically rank deficient
        c = [1]
        for _ in range(8):
            c = np.convolve(c, [1, -1])
        with pytest.raises(SingularityError):
            v_ml_coefs(c, cov_of(np.eye(60)))


def _binomial_coefs(degree):
    """(1 - z)^degree: a root of multiplicity ``degree`` at z = 1."""
    c = [1]
    for _ in range(degree):
        c = np.convolve(c, [1, -1])
    return c


def _one_source_decomp(m):
    decomp = SubspaceDecomposition(
        u_signal=np.eye(m, 1, dtype=complex),
        lambdas=np.array([2.0]),
        sigma2=1.0,
    )
    return decomp, np.array([0.5])


class TestConditioningGuard:
    def test_gram_cond_matches_numpy(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(200):
            m, r, c, decomp, weight = _random_instance(rng)
            T = toeplitz_annihilator(c, m)
            expected = np.linalg.cond(T @ T.conj().T)
            if expected > COND_LIMIT / 10:
                continue
            for value in (
                v_mode(c, decomp, weight),
                v_puma(c, decomp, weight),
                v_ml_coefs(c, cov_of(np.eye(m))),
            ):
                got = value.residual_diagnostics["gram_cond"]
                assert abs(got - expected) <= 1e-8 * expected
            checked += 1
        assert checked >= 190

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda c, m: v_mode(c, *_one_source_decomp(m)),
            lambda c, m: v_puma(c, *_one_source_decomp(m)),
            lambda c, m: projector_from_annihilator(toeplitz_annihilator(c, m)),
        ],
        ids=["v_mode", "v_puma", "projector_from_annihilator"],
    )
    def test_singular_gram_rejected_by_every_guard(self, evaluate):
        # the Gram of the shifted rows of (1 - z)^8 at m = 60 is numerically
        # rank deficient, as in test_singular_gram_rejected
        with pytest.raises(SingularityError):
            evaluate(_binomial_coefs(8), 60)


def scalar_chain_inputs():
    decomp = SubspaceDecomposition(
        u_signal=np.array([[1.0], [0.0]], dtype=complex),
        lambdas=np.array([2.0]),
        sigma2=0.0,
    )
    return decomp, np.array([2.0])


class TestVmodeVpuma:
    def test_scalar_chain(self):
        decomp, weight = scalar_chain_inputs()
        assert abs(v_mode([1, -1], decomp, weight).value - 1.0) <= 1e-12
        assert abs(v_puma([1, -1], decomp, weight).value - 1.0) <= 1e-12

    def test_zero_weight(self):
        decomp, _ = scalar_chain_inputs()
        zero = np.array([0.0])
        assert v_mode([1, -1], decomp, zero).value == 0.0
        assert v_puma([1, -1], decomp, zero).value == 0.0

    def test_vmode_equals_weighted_vml(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m, r, c, decomp, weight = _random_instance(rng, max_m=8, max_r=3)
            M = (decomp.u_signal * weight) @ decomp.u_signal.conj().T
            try:
                a = v_mode(c, decomp, weight).value
                b = v_ml_coefs(c, cov_of(M)).value
            except SingularityError:
                continue
            assert abs(a - b) <= 1e-12 * max(1.0, a)

    def test_equivalence_theorem(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(1000):
            m, r, c, decomp, weight = _random_instance(rng)
            try:
                vm = v_mode(c, decomp, weight).value
                vp = v_puma(c, decomp, weight).value
            except SingularityError:
                continue
            checked += 1
            assert abs(vp - vm) <= 1e-10 * max(1.0, vm)
        assert checked >= 900

    def test_gauge_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m, r, c, decomp, weight = _random_instance(rng, max_m=8, max_r=3)
            alpha = rng.standard_normal() + 1j * rng.standard_normal()
            try:
                base = v_mode(c, decomp, weight).value
                scaled = v_mode(alpha * c, decomp, weight).value
                base_p = v_puma(c, decomp, weight).value
                scaled_p = v_puma(alpha * c, decomp, weight).value
            except SingularityError:
                continue
            assert abs(scaled - base) <= 1e-10 * max(1.0, abs(base))
            assert abs(scaled_p - base_p) <= 1e-10 * max(1.0, abs(base_p))

    def test_nonnegativity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m, r, c, decomp, weight = _random_instance(rng, max_m=8, max_r=3)
            try:
                assert v_mode(c, decomp, weight).value >= -1e-10
                assert v_puma(c, decomp, weight).value >= -1e-10
            except SingularityError:
                continue

    def test_identity_covariance_constant(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            m = int(rng.integers(3, 10))
            q = int(rng.integers(1, m))
            c = rng.standard_normal(q + 1) + 1j * rng.standard_normal(q + 1)
            try:
                val = v_ml_coefs(c, cov_of(np.eye(m))).value
            except SingularityError:
                continue
            assert abs(val - (m - q)) <= 1e-12 * max(1.0, m - q)


class TestWeightRule:
    # Every entry that takes (decomp, weight) reads a weight of r entries by
    # one rule, so the two routes of the paper's identity fail alike.
    @pytest.mark.parametrize("weight", [[0.5], [0.5, 0.4, 0.3]], ids=["one-entry", "three-entries"])
    def test_every_entry_rejects_a_weight_of_another_size_alike(self, weight):
        sc = Scenario(
            m=6, r=2, angles=[-0.4, 0.7], source_cov=np.eye(2),
            noise_power=0.1, n_snapshots=100, seed=0,
        )
        decomp = subspace_decomposition(sample_covariance(simulate_snapshots(sc)), 2)
        c = coefs_from_angles([-0.4, 0.7])
        entries = [
            lambda: v_mode(c, decomp, weight),
            lambda: v_puma(c, decomp, weight),
            lambda: quadratic_form_matrix(decomp, weight, np.eye(4), 2),
        ]
        messages = []
        for entry in entries:
            with pytest.raises(ValidationError) as info:
                entry()
            messages.append(str(info.value))
        assert messages == [f"need a weight of 2 entries, got shape ({len(weight)},)"] * 3


class TestVmodeCoefficientCheck:
    @pytest.mark.parametrize(
        "coefs", [[0, 1], [1, np.nan], [1]], ids=["c0-zero", "nan", "length-1"]
    )
    def test_rejected_before_factorization(self, coefs, monkeypatch):
        calls = _spy_on_gram(monkeypatch)
        _, _, _, decomp, weight = _random_instance(np.random.default_rng(3), max_m=6, max_r=1)
        with pytest.raises(ValidationError):
            v_mode(coefs, decomp, weight)
        assert calls == []

    def test_spy_sees_a_valid_call(self, monkeypatch):
        calls = _spy_on_gram(monkeypatch)
        _, _, _, decomp, weight = _random_instance(np.random.default_rng(3), max_m=6, max_r=1)
        v_mode([1, -1], decomp, weight)
        assert calls == [1]


def _spy_on_gram(monkeypatch):
    """Record each guarded T T* Gram that v_mode builds before its solve."""
    calls = []
    original = criteria.guarded_gram

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(criteria, "guarded_gram", counted)
    return calls
