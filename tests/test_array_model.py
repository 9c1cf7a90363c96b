import numpy as np
import pytest

import modepuma
from modepuma import (
    DimensionError,
    Scenario,
    ValidationError,
    angles_from_coefs,
    coefs_from_angles,
    projector_from_annihilator,
    projector_from_steering,
    steering_matrix,
    toeplitz_annihilator,
)
from modepuma import array_model
from modepuma.array_model import as_angles, as_coefs, guarded_gram, guarded_inverse
from modepuma.bench import random_angle_set


class TestAngleSet:
    def test_sorted_distinct_required(self):
        with pytest.raises(ValidationError):
            as_angles([0.5, 0.5])
        with pytest.raises(ValidationError):
            as_angles([0.7, 0.2])
        with pytest.raises(ValidationError):
            as_angles([-np.pi])  # open at -pi

    @pytest.mark.parametrize("angles", [[np.nan], [0.1, np.nan]])
    def test_non_finite_rejected(self, angles):
        with pytest.raises(ValidationError, match=r"\(-pi, pi\]"):
            as_angles(angles)

    def test_pi_allowed(self):
        assert tuple(as_angles([np.pi])) == (np.pi,)


class TestCoefVector:
    def test_c0_nonzero(self):
        with pytest.raises(ValidationError):
            as_coefs([0, 1])

    def test_degree(self):
        assert as_coefs([1, 0, -1]).size - 1 == 2


BAD_COEFS = pytest.mark.parametrize(
    "coefs", [[0, 1], [1, np.nan], [1]], ids=["c0-zero", "nan", "length-1"]
)
BAD_ANGLES = pytest.mark.parametrize(
    "angles",
    [[0.7, 0.2], [0.5, 0.5], [-np.pi], [np.nan]],
    ids=["unsorted", "duplicate", "minus-pi", "nan"],
)


def _scenario(angles):
    r = len(angles)
    return Scenario(
        m=6, r=r, angles=angles, source_cov=np.eye(r),
        noise_power=1.0, n_snapshots=4, seed=0,
    )


class TestChecksAtPublicEntryPoints:
    @BAD_COEFS
    @pytest.mark.parametrize(
        "call",
        [lambda c: toeplitz_annihilator(c, 6), angles_from_coefs],
        ids=["toeplitz_annihilator", "angles_from_coefs"],
    )
    def test_bad_coefficients_rejected(self, call, coefs):
        with pytest.raises(ValidationError):
            call(coefs)

    @BAD_ANGLES
    @pytest.mark.parametrize(
        "call",
        [lambda a: steering_matrix(a, 6), coefs_from_angles, _scenario],
        ids=["steering_matrix", "coefs_from_angles", "Scenario"],
    )
    def test_bad_angles_rejected(self, call, angles):
        with pytest.raises(ValidationError):
            call(angles)

    def test_scenario_stores_its_own_float_array(self):
        given = np.array([-0.4, 0.7])
        angles = _scenario(given).angles
        given[1] = -1.0
        assert isinstance(angles, np.ndarray) and angles.dtype == float
        assert angles.tolist() == [-0.4, 0.7]


def test_every_public_name_resolves():
    missing = [name for name in modepuma.__all__ if not hasattr(modepuma, name)]
    assert missing == []


class TestSteeringMatrix:
    def test_zero_angle(self):
        A = steering_matrix([0.0], 3)
        assert np.allclose(A[:, 0], [1, 1, 1])

    def test_pi_angle(self):
        A = steering_matrix([np.pi], 2)
        assert np.allclose(A[:, 0], [1, -1])

    def test_quarter_angles(self):
        A = steering_matrix([-np.pi / 2, np.pi / 2], 4)
        assert np.allclose(A[:, 1], [1, 1j, -1, -1j])
        assert np.allclose(A[:, 0], [1, -1j, -1, 1j])

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            steering_matrix([0.1, 0.2], 2)


class TestCoefAngleConversion:
    def test_single_root_at_one(self):
        assert np.allclose(coefs_from_angles([0.0]), [1, -1])

    def test_single_root_at_j(self):
        assert np.allclose(coefs_from_angles([np.pi / 2]), [1, 1j])

    def test_difference_of_squares(self):
        # (1 - z)(1 + z) = 1 - z^2
        assert np.allclose(coefs_from_angles([0.0, np.pi]), [1, 0, -1])

    def test_roots_back_to_angles(self):
        assert np.allclose(angles_from_coefs([1, -1]), [0.0])
        assert np.allclose(angles_from_coefs([1, 0, -1]), [0.0, np.pi])

    def test_degenerate_degree(self):
        with pytest.raises(ValidationError):
            angles_from_coefs([1, 1, 0])

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            r = int(rng.integers(1, 5))
            phi = random_angle_set(rng, r)
            back = angles_from_coefs(coefs_from_angles(phi))
            assert np.max(np.abs(back - phi)) <= 1e-9


class TestAnnihilator:
    def test_explicit_layout(self):
        T = toeplitz_annihilator([1, -1], 3)
        assert np.allclose(T, [[1, -1, 0], [0, 1, -1]])

    def test_single_row(self):
        T = toeplitz_annihilator([1, -1], 2)
        assert np.allclose(T, [[1, -1]])

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            toeplitz_annihilator([1, 0, -1], 2)

    def test_equals_row_loop_reference(self):
        # The strided build writes the same entries as one row at a time.
        rng = np.random.default_rng(3)
        for m in range(2, 30):
            for q in range(1, m):
                c = rng.standard_normal(q + 1) + 1j * rng.standard_normal(q + 1)
                ref = np.zeros((m - q, m), dtype=complex)
                for i in range(m - q):
                    ref[i, i : i + q + 1] = c
                T = toeplitz_annihilator(c, m)
                assert T.shape == ref.shape and T.tobytes() == ref.tobytes(), (m, q)

    def test_annihilates_steering(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            phi = random_angle_set(rng, 3)
            T = toeplitz_annihilator(coefs_from_angles(phi), 8)
            A = steering_matrix(phi, 8)
            assert np.max(np.abs(T @ A)) <= 1e-12


class TestProjectors:
    def test_rank_one_from_annihilator(self):
        P = projector_from_annihilator(toeplitz_annihilator([1, -1], 2))
        assert np.allclose(P, 0.5 * np.array([[1, -1], [-1, 1]]))

    def test_rank_one_complement_from_steering(self):
        P = projector_from_steering(steering_matrix([0.0], 2))
        assert np.allclose(P, 0.5 * np.array([[1, -1], [-1, 1]]))

    def test_steering_complement_annihilates(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            phi = random_angle_set(rng, 2)
            A = steering_matrix(phi, 6)
            assert np.max(np.abs(projector_from_steering(A) @ A)) <= 1e-12

    @pytest.mark.parametrize("m,r", [(4, 1), (6, 2), (10, 4)])
    def test_identity_between_projectors(self, m, r):
        rng = np.random.default_rng(m * 10 + r)
        for _ in range(25):
            phi = random_angle_set(rng, r)
            p_a = projector_from_steering(steering_matrix(phi, m))
            p_t = projector_from_annihilator(
                toeplitz_annihilator(coefs_from_angles(phi), m)
            )
            assert np.linalg.norm(p_a - p_t) <= 1e-10

    def test_identity_with_clustered_sources(self):
        # Four clustered sources at m=5, drawn by the projector suite of
        # `modepuma verify --instances 25 --seed 658043762`; solving the
        # normal equations of A* A put the projectors 3.03e-10 apart here.
        phi = [-2.6496760392562404, -2.5889103496188985, -2.504839980009942, -2.1868014490636547]
        p_a = projector_from_steering(steering_matrix(phi, 5))
        p_t = projector_from_annihilator(toeplitz_annihilator(coefs_from_angles(phi), 5))
        assert np.linalg.norm(p_a - p_t) <= 1e-10

    def test_hermitian_idempotent_trace(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            P = projector_from_annihilator(toeplitz_annihilator(c, 7))
            assert np.linalg.norm(P - P.conj().T) <= 1e-12
            assert np.max(np.abs(P @ P - P)) <= 1e-12
            assert abs(np.trace(P).real - (7 - 3)) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        P1 = projector_from_annihilator(toeplitz_annihilator(c, 6))
        alpha = 0.3 - 2.1j
        P2 = projector_from_annihilator(toeplitz_annihilator(alpha * c, 6))
        assert np.max(np.abs(P1 - P2)) <= 1e-12


def _gram_factor(cond, seed, n=4, k=6):
    """An n x k X whose Gram X X* has condition number about ``cond``."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    s = np.logspace(0, -0.5 * np.log10(cond), n)
    return (U * s) @ V.conj().T


def _inverse_or_error(guard, X):
    try:
        return guard(X)
    except modepuma.SingularityError as exc:
        return str(exc)


class TestGuardedInverse:
    """``guarded_inverse(X)[0]`` is ``inv(guarded_gram(X)[0])``: the same bits, the same raises."""

    @staticmethod
    def reference(X):
        return np.linalg.inv(guarded_gram(X, "T T*")[0])

    @pytest.mark.parametrize("m", range(3, 13))
    def test_annihilator_bits(self, m):
        rng = np.random.default_rng(m)
        for q in range(1, m):
            c = rng.standard_normal(q + 1) + 1j * rng.standard_normal(q + 1)
            T = toeplitz_annihilator(c, m)
            assert np.array_equal(guarded_inverse(T, "T T*")[0], self.reference(T))

    @pytest.mark.parametrize("limit", [None, 1e8, 1e14])
    def test_raises_exactly_where_guarded_gram_raises(self, monkeypatch, limit):
        if limit is not None:
            monkeypatch.setattr(array_model, "COND_LIMIT", limit)
            monkeypatch.setattr(array_model, "CERTIFY_LIMIT", limit / 100)
        cond_limit = array_model.COND_LIMIT
        undecided = []
        condition_number = array_model.condition_number

        def counted(gram):
            cond = condition_number(gram)
            undecided.append(cond)
            return cond

        passed = raised = 0
        for seed, cond in enumerate(np.logspace(6, 15, 73)):
            X = _gram_factor(cond, seed)
            expected = _inverse_or_error(self.reference, X)
            monkeypatch.setattr(array_model, "condition_number", counted)
            got = _inverse_or_error(lambda X: guarded_inverse(X, "T T*")[0], X)
            monkeypatch.setattr(array_model, "condition_number", condition_number)
            if isinstance(expected, str):
                assert got == expected == "T T* is numerically singular", cond
                raised += 1
            else:
                assert np.array_equal(got, expected), cond
                passed += 1
        assert passed and raised
        # Grams between COND_LIMIT / 100 and COND_LIMIT are left open by the
        # certificate and pass on their eigenvalues.
        assert any(cond_limit / 100 < cond <= cond_limit for cond in undecided)

    def test_singular_gram_is_a_singularity_error(self):
        X = np.zeros((3, 5), dtype=complex)
        with pytest.raises(modepuma.SingularityError, match="T T"):
            guarded_inverse(X, "T T*")
        with pytest.raises(modepuma.SingularityError, match="T T"):
            guarded_gram(X, "T T*")


def _roots_reference(coefs):
    """``angles_from_coefs`` as written over ``np.roots``."""
    roots = np.roots(as_coefs(coefs)[::-1])
    phi = np.angle(roots)
    phi[phi <= -np.pi] = np.pi
    return np.sort(phi)


class TestAnglesFromCoefsBits:
    @pytest.mark.parametrize("q", range(1, 13))
    def test_random_coefficients(self, q):
        rng = np.random.default_rng(q)
        for _ in range(20):
            c = rng.standard_normal(q + 1) + 1j * rng.standard_normal(q + 1)
            assert np.array_equal(angles_from_coefs(c), _roots_reference(c))

    @pytest.mark.parametrize("q", range(1, 13))
    def test_unit_circle_roots(self, q):
        rng = np.random.default_rng(100 + q)
        phi = np.sort(rng.uniform(-np.pi, np.pi, q))
        c = coefs_from_angles(phi)
        assert np.array_equal(angles_from_coefs(c), _roots_reference(c))

    @pytest.mark.parametrize("q", range(2, 13))
    def test_interior_zeros(self, q):
        rng = np.random.default_rng(200 + q)
        c = rng.standard_normal(q + 1) + 1j * rng.standard_normal(q + 1)
        c[1:-1:2] = 0
        assert np.array_equal(angles_from_coefs(c), _roots_reference(c))
        real = [1.0] + [0.0] * (q - 1) + [-2.0]
        assert np.array_equal(angles_from_coefs(real), _roots_reference(real))

    @pytest.mark.parametrize("q", range(1, 13))
    def test_end_coefficients_at_the_nudge(self, q):
        rng = np.random.default_rng(300 + q)
        c = rng.standard_normal(q + 1) + 1j * rng.standard_normal(q + 1)
        floor = 1e-14 * np.max(np.abs(c))
        for ends in ((0,), (-1,), (0, -1)):
            nudged = c.copy()
            nudged[list(ends)] = floor
            assert np.array_equal(angles_from_coefs(nudged), _roots_reference(nudged))
