import itertools
from math import comb

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from modepuma import (
    EstimatorConfig,
    Scenario,
    SubspaceDecomposition,
    ValidationError,
    match_angles,
    mode_two_step,
    modex,
    puma_iterative,
    quadratic_form_matrix,
    sample_covariance,
    signal_weight,
    simulate_snapshots,
    subspace_decomposition,
    true_covariance,
    v_ml_angles,
    v_mode,
)
from modepuma import estimators
from modepuma.array_model import COND_LIMIT, hermitian_gram, toeplitz_annihilator
from modepuma.bench import _random_instance, noise_power_for_snr, trial_seed
from modepuma.errors import SingularityError
from modepuma.estimators import (
    _SUBSET_BLOCK,
    _conjugate_symmetric_basis,
    _gauge_step,
    _omega_from_coefs,
    _score_subsets,
)


def noiseless_decomp(m, angles):
    r = len(angles)
    sc = Scenario(
        m=m, r=r, angles=angles, source_cov=np.eye(r),
        noise_power=0.0, n_snapshots=1, seed=0,
    )
    cov = true_covariance(sc)
    decomp = subspace_decomposition(cov, r)
    return cov, decomp, signal_weight(decomp)


def noisy_pipeline(m, r, angles, snr_db, T, seed):
    sc = Scenario(
        m=m, r=r, angles=angles, source_cov=np.eye(r),
        noise_power=noise_power_for_snr(np.eye(r), r, snr_db),
        n_snapshots=T, seed=seed,
    )
    cov = sample_covariance(simulate_snapshots(sc))
    decomp = subspace_decomposition(cov, r)
    return cov, decomp, signal_weight(decomp)


class TestQuadraticFormMatrix:
    def test_equals_hankel_loop_reference(self):
        # The Hankel slices are gathered by index; the reference builds each
        # with scipy.linalg.hankel and accumulates in the same order.
        rng = np.random.default_rng(4)
        for m in range(3, 11):
            U, _ = np.linalg.qr(rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2)))
            decomp = SubspaceDecomposition(
                u_signal=U, lambdas=np.array([3.0, 2.0]), sigma2=1.0,
            )
            g = rng.uniform(0.1, 5.0, size=2)
            for q in range(1, m):
                X = rng.standard_normal((m - q, m - q)) + 1j * rng.standard_normal((m - q, m - q))
                omega = X @ X.conj().T
                ref = np.zeros((q + 1, q + 1), dtype=complex)
                for l in range(2):
                    Phi_l = scipy.linalg.hankel(U[: m - q, l], U[m - q - 1 :, l])
                    ref += g[l] * (Phi_l.conj().T @ omega @ Phi_l)
                ref = 0.5 * (ref + ref.conj().T)
                assert np.array_equal(quadratic_form_matrix(decomp, g, omega, q), ref)

    def test_matches_vmode_at_omega_point(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m, r, c, decomp, weight = _random_instance(rng, max_m=8, max_r=3)
            from modepuma import toeplitz_annihilator

            T = toeplitz_annihilator(c, m)
            gram = T @ T.conj().T
            if np.linalg.cond(gram) > 1e10:
                continue
            omega = np.linalg.inv(gram)
            Q = quadratic_form_matrix(decomp, weight, omega, r)
            lhs = float(np.real(c.conj() @ Q @ c))
            rhs = v_mode(c, decomp, weight).value
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_orthonormal_shift_columns(self):
        from modepuma import SubspaceDecomposition

        m, q = 5, 2
        decomp = SubspaceDecomposition(
            u_signal=np.eye(m, 1, dtype=complex),
            lambdas=np.array([1.0]),
            sigma2=0.0,
        )
        Q = quadratic_form_matrix(
            decomp, np.array([1.0]), np.eye(m - q), q
        )
        # only the c_0 column of the shift map touches e_1
        expected = np.zeros((q + 1, q + 1))
        expected[0, 0] = 1.0
        assert np.allclose(Q, expected)

    def test_hermitian_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m, r, c, decomp, weight = _random_instance(rng, max_m=9, max_r=3)
            q = int(rng.integers(1, m - r + 1)) if m - r >= 1 else 1
            q = min(q + r - 1, m - 1)
            omega = np.eye(m - q)
            Q = quadratic_form_matrix(decomp, weight, omega, q)
            assert np.linalg.norm(Q - Q.conj().T) <= 1e-12
            w = np.linalg.eigvalsh(Q)
            assert w[0] >= -1e-10 * max(w[-1], 1.0)


class TestConjugateSymmetricBasis:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_spans_conjugate_symmetric_vectors(self, n):
        J = _conjugate_symmetric_basis(n)
        assert J.shape == (n, n)
        rho = np.random.default_rng(n).standard_normal(n)
        c = J @ rho
        assert np.max(np.abs(c - np.conj(c[::-1]))) <= 1e-14


class TestModeTwoStep:
    def test_noiseless_exact_recovery(self):
        truth = [-0.4, 0.7]
        _, decomp, weight = noiseless_decomp(6, truth)
        res = mode_two_step(decomp, weight, 2)
        assert np.max(np.abs(res.angles - truth)) <= 1e-6
        assert res.converged

    def test_unique_annihilator_single_source(self):
        _, decomp, weight = noiseless_decomp(2, [0.0])
        res = mode_two_step(decomp, weight, 1)
        c = res.coefs / res.coefs[0]
        assert np.allclose(c, [1, -1], atol=1e-10)
        assert np.allclose(res.angles, [0.0], atol=1e-10)

    def test_conjugate_symmetric_coefficients(self):
        _, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 200, seed=3)
        res = mode_two_step(decomp, weight, 2)
        c = res.coefs
        assert np.max(np.abs(c - np.conj(c[::-1]))) <= 1e-10

    def test_monte_carlo_near_optimality(self):
        truth = np.array([-0.4, 0.7])
        wins = 0
        rmses = []
        for trial in range(200):
            cov, decomp, weight = noisy_pipeline(
                6, 2, truth, 10.0, 200, seed=trial_seed(77, 0, 0, trial)
            )
            res = mode_two_step(decomp, weight, 2)
            _, rmse = match_angles(res.angles, truth)
            rmses.append(rmse)
            from modepuma import coefs_from_angles

            at_truth = v_mode(coefs_from_angles(truth), decomp, weight).value
            if res.criterion_value <= at_truth + 1e-8:
                wins += 1
        assert wins >= 0.95 * 200
        assert np.sqrt(np.mean(np.square(rmses))) <= 0.05

    def test_optimality_certificate(self):
        _, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 200, seed=5)
        res = mode_two_step(decomp, weight, 2)
        rng = np.random.default_rng(6)
        c_hat = res.coefs
        J = _conjugate_symmetric_basis(c_hat.size)
        for _ in range(50):
            delta = rng.standard_normal(c_hat.size) + 1j * rng.standard_normal(c_hat.size)
            delta *= 1e-3 * np.linalg.norm(c_hat) / np.linalg.norm(delta)
            # project the perturbed point back onto the constraint set
            rho, *_ = np.linalg.lstsq(J, c_hat + delta, rcond=None)
            c_pert = J @ np.real(rho)
            c_pert /= np.linalg.norm(c_pert)
            assert v_mode(c_pert, decomp, weight).value >= res.criterion_value - 1e-8


class TestPumaIterative:
    def test_noiseless_exact_recovery(self):
        truth = [-0.4, 0.7]
        _, decomp, weight = noiseless_decomp(6, truth)
        res = puma_iterative(decomp, weight, 2)
        assert np.max(np.abs(res.angles - truth)) <= 1e-6

    def test_final_criterion_reproducible(self):
        _, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 200, seed=8)
        res = puma_iterative(decomp, weight, 2)
        again = v_mode(res.coefs, decomp, weight).value
        assert abs(res.criterion_value - again) <= 1e-10 * max(1.0, again)

    def test_criterion_history_non_increasing(self):
        for seed in range(10):
            _, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 5.0, 100, seed=seed)
            res = puma_iterative(decomp, weight, 2)
            h = res.criterion_history
            for a, b in zip(h, h[1:]):
                if b > a * (1 + 1e-12):
                    break  # divergence guard region
                assert b <= a * (1 + 1e-12)

    def test_matches_mode_rmse(self):
        truth = np.array([-0.4, 0.7])
        rm, rp = [], []
        for trial in range(200):
            cov, decomp, weight = noisy_pipeline(
                6, 2, truth, 10.0, 200, seed=trial_seed(99, 0, 0, trial)
            )
            _, a = match_angles(mode_two_step(decomp, weight, 2).angles, truth)
            _, b = match_angles(puma_iterative(decomp, weight, 2).angles, truth)
            rm.append(a**2)
            rp.append(b**2)
        rmse_mode = np.sqrt(np.mean(rm))
        rmse_puma = np.sqrt(np.mean(rp))
        assert abs(rmse_puma - rmse_mode) <= 0.10 * rmse_mode

    def test_gauge_independence_vs_mode(self):
        _, decomp, weight = noiseless_decomp(6, [-0.4, 0.7])
        a = mode_two_step(decomp, weight, 2).angles
        b = puma_iterative(decomp, weight, 2).angles
        assert np.max(np.abs(a - b)) <= 1e-6


def _mode_reference(decomp, weight, r):
    """MODE's two-step written out: Omega = I, then Omega = (T T*)^-1 at c."""
    m = decomp.m
    J = _conjugate_symmetric_basis(r + 1)
    D = np.real(J.conj().T @ J)

    def solve(omega):
        M = np.real(J.conj().T @ quadratic_form_matrix(decomp, weight, omega, r) @ J)
        _, vecs = scipy.linalg.eigh(0.5 * (M + M.T), D)
        c = J @ vecs[:, 0]
        return c / np.linalg.norm(c)

    c = solve(np.eye(m - r, dtype=complex))
    return solve(np.linalg.inv(hermitian_gram(toeplitz_annihilator(c, m))))


class TestReweightedLoop:
    @pytest.mark.parametrize("seed", range(20))
    def test_mode_is_the_two_step(self, seed):
        _, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 5.0, 50, seed=seed)
        res = mode_two_step(decomp, weight, 2)
        ref = _mode_reference(decomp, weight, 2)
        assert np.array_equal(res.coefs, ref)
        assert res.criterion_value == v_mode(ref, decomp, weight).value
        assert res.iterations_used == 2 and res.converged
        assert len(res.criterion_history) == 2
        assert res.criterion_history[-1] == res.criterion_value

    def test_puma_stops_at_the_fixed_point(self):
        # Paper scenario at 10 dB: the coefficient rule ends on the fixed
        # point, where one more reweighted step leaves c where it is.
        converged = 0
        for seed in range(40):
            _, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=seed)
            res = puma_iterative(decomp, weight, 2)
            assert len(res.criterion_history) == res.iterations_used
            assert res.criterion_history[-1] == res.criterion_value
            if not res.converged:
                continue
            converged += 1
            c = res.coefs
            omega, ok = _omega_from_coefs(c, decomp.m)
            assert ok
            again = _gauge_step(quadratic_form_matrix(decomp, weight, omega, 2))
            assert np.linalg.norm(again - c) <= 1e-8 * np.linalg.norm(c), seed
        assert converged >= 38

    def test_history_is_vmode_of_each_iterate(self):
        # Each history value is read off the next quadratic form, which
        # equals V_MODE at that iterate.
        _, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 0.0, 100, seed=2)
        omega = np.eye(4, dtype=complex)
        for value in puma_iterative(decomp, weight, 2).criterion_history:
            c = _gauge_step(quadratic_form_matrix(decomp, weight, omega, 2))
            expected = v_mode(c, decomp, weight).value
            assert abs(value - expected) <= 1e-12 * expected
            omega, _ = _omega_from_coefs(c, decomp.m)

    def test_gap_to_local_minimum_of_own_feasible_set(self):
        # Neither solver lands exactly on a stationary point of V_MODE:
        # MODE stops after one reweight, and PUMA's reweighting fixed point
        # is not a minimum.  Both sit just above a BFGS local minimum over
        # their own feasible set, PUMA's (c_0 = 1) being the larger one.
        J = _conjugate_symmetric_basis(3)

        def symmetric(x):
            return J @ x

        def gauged(x):
            return np.concatenate(([1.0], x[:2] + 1j * x[2:]))

        for seed in range(10):
            _, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=seed)
            mode = mode_two_step(decomp, weight, 2)
            puma = puma_iterative(decomp, weight, 2)
            x_mode = np.real(np.linalg.lstsq(J, mode.coefs, rcond=None)[0])
            x_puma = np.concatenate((puma.coefs[1:].real, puma.coefs[1:].imag))
            for res, coefs, x0 in ((mode, symmetric, x_mode), (puma, gauged, x_puma)):
                local = scipy.optimize.minimize(
                    lambda x: v_mode(coefs(x), decomp, weight).value,
                    x0, method="BFGS", options={"gtol": 1e-12},
                ).fun
                gap = (res.criterion_value - local) / local
                assert -1e-9 <= gap <= 1e-3, (coefs.__name__, seed, gap)
            assert puma.criterion_value < mode.criterion_value, seed


class TestModex:
    def test_p_zero_reduces_to_base(self):
        cov, decomp, weight = noiseless_decomp(6, [-0.4, 0.7])
        base = mode_two_step(decomp, weight, 2)
        res = modex(cov, decomp, weight, 2, EstimatorConfig(method="MODEX", p_extra=0))
        assert np.allclose(res.angles, base.angles, atol=1e-10)
        assert len(res.candidate_log) == 1

    def test_noiseless_recovery_with_extras(self):
        truth = [-0.9, 0.3]
        cov, decomp, weight = noiseless_decomp(8, truth)
        res = modex(cov, decomp, weight, 2, EstimatorConfig(method="MODEX", p_extra=2))
        candidates = np.sort(
            np.unique(np.concatenate([list(s) for s, _ in res.candidate_log]))
        )
        assert min(abs(candidates - truth[0])) <= 1e-6
        assert min(abs(candidates - truth[1])) <= 1e-6
        assert np.max(np.abs(res.angles - truth)) <= 1e-6

    def test_exhaustive_subset_log(self):
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=4)
        res = modex(cov, decomp, weight, 2, EstimatorConfig(method="MODEX", p_extra=2))
        from math import comb

        # pooled candidates: 2 from the plain fit, 4 from the extended fit
        assert len(res.candidate_log) == comb(6, 2)
        assert res.criterion_value == min(v for _, v in res.candidate_log)

    def test_p_bound_enforced(self):
        cov, decomp, weight = noiseless_decomp(6, [-0.4, 0.7])
        with pytest.raises(ValidationError):
            modex(cov, decomp, weight, 2, EstimatorConfig(method="MODEX", p_extra=4))

    @pytest.mark.parametrize("base", ["MODE", "PUMA"])
    def test_subset_count_capped(self, base):
        # r = 8, p = 4 pools 20 candidates: C(20, 8) = 125970 subsets.
        cov, decomp, weight = noisy_pipeline(13, 8, np.linspace(-2.5, 2.5, 8), 10.0, 40, seed=1)
        cfg = EstimatorConfig(method="MODEX", p_extra=4, modex_base=base)
        with pytest.raises(ValidationError, match="125970 .* 100000"):
            modex(cov, decomp, weight, 8, cfg)

    def test_enhanced_variant_noiseless(self):
        truth = [-0.9, 0.3]
        cov, decomp, weight = noiseless_decomp(8, truth)
        cfg = EstimatorConfig(method="MODEX", p_extra=2, modex_base="PUMA")
        res = modex(cov, decomp, weight, 2, cfg)
        assert np.max(np.abs(res.angles - truth)) <= 1e-6

    def test_enhanced_without_extras_is_puma(self):
        # With p = 0 Enhanced PUMA is PUMA: one reweighted solve at degree r
        # under the same stopping rule, returning the same best iterate.
        cfg = EstimatorConfig(method="MODEX", p_extra=0, modex_base="PUMA")
        for seed in range(20):
            cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=seed)
            res = modex(cov, decomp, weight, 2, cfg)
            ref = puma_iterative(decomp, weight, 2)
            assert np.array_equal(res.angles, ref.angles), seed
            assert res.converged == ref.converged, seed
            assert res.iterations_used == ref.iterations_used, seed


def _wrap(angles):
    """Principal value in (-pi, pi]."""
    w = np.mod(np.asarray(angles, dtype=float) + np.pi, 2 * np.pi) - np.pi
    w[w <= -np.pi] = np.pi
    return w


@st.composite
def candidate_sets(draw):
    """Sorted candidates in (-pi, pi]: a cluster, scattered angles, and
    partners at exact or near coincidence."""
    centre = draw(st.floats(-np.pi, np.pi))
    spread = st.floats(-0.15, 0.15)
    cluster = [centre + d for d in draw(st.lists(spread, min_size=0, max_size=4))]
    scattered = draw(st.lists(st.floats(-np.pi, np.pi), min_size=0, max_size=3))
    base = (cluster + scattered)[:6] or [centre]
    gaps = st.sampled_from([0.0, 1e-13, 1e-12, 3e-10, 1e-7, 2e-5, 1e-3])
    partners = [a + draw(gaps) for a in draw(st.lists(st.sampled_from(base), max_size=2))]
    candidates = np.sort(_wrap((base + partners)[:7]))
    r = draw(st.integers(1, min(4, candidates.size)))
    return candidates, r


_CLUSTERED_COVS = [
    noisy_pipeline(8, 3, [0.1, 0.18, 0.26], 10.0, 50, seed=s)[0] for s in range(3)
]


class TestScoreSubsets:
    @settings(max_examples=150, deadline=None)
    @given(candidate_sets(), st.sampled_from(range(len(_CLUSTERED_COVS))))
    def test_matches_per_subset_criterion(self, drawn, which):
        candidates, r = drawn
        R = _CLUSTERED_COVS[which]
        subsets, scores = _score_subsets(candidates, R, r)
        combos = list(itertools.combinations(range(candidates.size), r))
        assert subsets.tolist() == [list(S) for S in combos]
        for S, score in zip(combos, scores):
            phi = candidates[list(S)]
            if np.any(np.diff(phi) < 1e-12):
                assert score == np.inf
                continue
            A = np.exp(1j * np.outer(np.arange(8), phi))
            cond = np.linalg.cond(A.conj().T @ A)
            if abs(cond / COND_LIMIT - 1) < 1e-2:
                # The stacked Gram is gathered from A* A over all
                # candidates, so its last bits differ from the per-subset
                # Gram, and a condition number this close to the limit can
                # fall on either side of it.
                continue
            try:
                ref = v_ml_angles(phi, R).value
            except SingularityError:
                assert score == np.inf
                continue
            assert np.isfinite(score)
            assert abs(score - ref) <= 1e-12 * abs(ref)

    def test_all_coincident_scores_inf(self):
        subsets, scores = _score_subsets(np.array([0.3, 0.3, 0.3]), np.eye(8), 2)
        assert len(subsets) == 3 and np.all(scores == np.inf)

    @pytest.mark.parametrize("seed", range(4))
    def test_modex_log_follows_combinations(self, monkeypatch, seed):
        seen = []

        def spy(candidates, cov, r):
            seen.append(candidates)
            return _score_subsets(candidates, cov, r)

        monkeypatch.setattr(estimators, "_score_subsets", spy)
        cov, decomp, weight = noisy_pipeline(8, 3, [0.1, 0.18, 0.26], 0.0, 50, seed)
        res = modex(cov, decomp, weight, 3, EstimatorConfig(method="MODEX", p_extra=3))
        (candidates,) = seen
        combos = list(itertools.combinations(range(9), 3))
        assert len(res.candidate_log) == comb(9, 3) == len(combos)
        assert [s for s, _ in res.candidate_log] == [
            tuple(candidates[list(S)].tolist()) for S in combos
        ]
        values = [v for _, v in res.candidate_log]
        best = values.index(min(values))
        assert res.criterion_value == values[best]
        assert tuple(res.angles.tolist()) == res.candidate_log[best][0]


def _reference_score_subsets(candidates, cov, r):
    """The eigvalsh-guarded scoring that the QR-bound guard replaced, kept verbatim."""
    R = np.asarray(cov)
    m = R.shape[0]
    A = np.exp(1j * np.outer(np.arange(m), candidates))
    G = A.conj().T @ A
    subsets = np.array(
        list(itertools.combinations(range(len(candidates)), r)), dtype=np.intp
    ).reshape(-1, r)
    live = np.all(np.diff(candidates[subsets], axis=1) >= 1e-12, axis=1)
    scores = np.full(len(subsets), np.inf)
    trace_r = np.real(np.trace(R))
    for start in range(0, len(subsets), _SUBSET_BLOCK):
        block = slice(start, start + _SUBSET_BLOCK)
        idx = subsets[block]
        gram = G[idx[:, :, None], idx[:, None, :]]
        w = np.linalg.eigvalsh(0.5 * (gram + gram.conj().transpose(0, 2, 1)))
        lo, hi = w[:, 0], w[:, -1]
        ok = live[block] & (lo > 0) & (hi > 0)
        ok[ok] = hi[ok] / lo[ok] <= COND_LIMIT
        if not np.any(ok):
            continue
        Q, _ = np.linalg.qr(A.T[idx[ok]].transpose(0, 2, 1))
        fit = np.real(np.sum(Q.conj() * (R @ Q), axis=(1, 2)))
        scores[block][ok] = trace_r - fit
    return subsets, scores


@st.composite
def near_limit_candidates(draw):
    """m, a covariance, and candidates whose close pairs and triples put some
    subsets' Gram condition numbers in (1e10, 1e12], beyond it, or at +inf."""
    m = draw(st.sampled_from([6, 8, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((m, m + 2)) + 1j * rng.standard_normal((m, m + 2))
    cov = X @ X.conj().T / (m + 2)
    base = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
    gaps = st.sampled_from([0.0, 1e-13, 1e-7, 1e-6, 2e-6, 3e-6, 1e-5, 3e-4, 1e-3, 3e-2])
    partners = []
    for a in draw(st.lists(st.sampled_from(base), max_size=3)):
        partners.append(a + draw(gaps))
        if draw(st.booleans()):
            partners.append(a + 2 * draw(gaps))
    candidates = np.sort(_wrap((base + partners)[:9]))
    r = draw(st.integers(1, min(4, candidates.size)))
    return candidates, cov, r


class TestScoreSubsetsGuard:
    @settings(max_examples=300, deadline=None)
    @given(near_limit_candidates())
    def test_equals_eigvalsh_guarded_reference(self, drawn):
        candidates, cov, r = drawn
        subsets, scores = _score_subsets(candidates, cov, r)
        ref_subsets, ref_scores = _reference_score_subsets(candidates, cov, r)
        assert np.array_equal(subsets, ref_subsets)
        assert np.array_equal(scores, ref_scores)

    def test_bound_certifies_some_subsets_and_eigvalsh_decides_the_rest(self, monkeypatch):
        # Gaps 2e-6 and 1e-7 at m=8: Gram condition numbers of about 2e11
        # (passes COND_LIMIT, past the bound's margin) and 8e13 (fails).
        candidates = np.array([-1.0, 0.2, 0.2 + 2e-6, 1.1, 2.0, 2.0 + 1e-7])
        cov = _CLUSTERED_COVS[0]
        eigvalsh = np.linalg.eigvalsh
        checked = []

        def spy(a):
            checked.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        subsets, scores = _score_subsets(candidates, cov, 2)
        monkeypatch.undo()
        assert sum(checked) == 2
        assert np.sum(np.isfinite(scores)) == len(subsets) - 1
        assert np.array_equal(scores, _reference_score_subsets(candidates, cov, 2)[1])

class TestMatchAngles:
    def test_identical(self):
        _, rmse = match_angles([0.1, 0.5], [0.1, 0.5])
        assert rmse == 0.0

    def test_wrap_around(self):
        err, _ = match_angles([np.pi - 0.01], [-np.pi + 0.01])
        assert abs(abs(err[0]) - 0.02) <= 1e-12

    def test_permutation_invariance(self):
        _, rmse = match_angles([0.5, -0.2, 1.1], [1.1, 0.5, -0.2])
        assert rmse == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            match_angles([0.1], [0.1, 0.2])

    def test_pairs_across_pi(self):
        err, rmse = match_angles([-0.5, -3.13], [-0.5, 3.1])
        gap = 2 * np.pi - 3.13 - 3.1
        assert np.allclose(err, [0.0, gap], atol=1e-12)
        assert abs(rmse - gap / np.sqrt(2)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=5),
        st.data(),
        st.floats(-np.pi, np.pi),
    )
    def test_rotation_invariance(self, truth, data, theta):
        noise = data.draw(
            st.lists(st.floats(-0.3, 0.3), min_size=len(truth), max_size=len(truth))
        )
        truth = _wrap(truth)
        est = _wrap(truth + np.array(noise))
        _, rmse = match_angles(est, truth)
        _, rotated = match_angles(_wrap(est + theta), _wrap(truth + theta))
        assert abs(rotated - rmse) <= 1e-9


class TestEstimatorConfig:
    def test_p_extra_requires_modex(self):
        with pytest.raises(ValidationError):
            EstimatorConfig(method="MODE", p_extra=1)

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            EstimatorConfig(method="MUSIC")


@pytest.mark.parametrize("solver", [mode_two_step, puma_iterative])
@pytest.mark.parametrize("r", [-1, 0, 6, 7])
def test_degree_out_of_range_is_a_validation_error(solver, r):
    # The solvers size their Omega = I start by m - r before the first
    # quadratic form, so the degree must be checked before that.
    _, decomp, weight = noiseless_decomp(6, [-0.4, 0.7])
    with pytest.raises(ValidationError, match="need 0 < q < m"):
        solver(decomp, weight, r)
