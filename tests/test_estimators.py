import concurrent.futures
import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from math import comb
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modepuma import (
    EstimatorConfig,
    Scenario,
    SubspaceDecomposition,
    ValidationError,
    estimate,
    match_angles,
    quadratic_form_matrix,
    sample_covariance,
    signal_weight,
    simulate_snapshots,
    subspace_decomposition,
    true_covariance,
    v_ml_angles,
    v_mode,
)
from modepuma import array_model, bench, estimators
from modepuma.array_model import (
    COND_LIMIT,
    angles_from_coefs,
    condition_number,
    guarded_inverse,
    hermitian_gram,
    toeplitz_annihilator,
)
from modepuma.bench import _random_instance, noise_power_for_snr, trial_seed
from modepuma.errors import NumericalError, SingularityError
from modepuma.estimators import (
    _GRAM_BOUND,
    _SUBSET_BLOCK,
    _block_plan,
    _conjugate_symmetric_basis,
    _gauge_step,
    _gram_basis,
    _score_subsets,
    _subset_table,
    _symmetric_step,
    _tree_plan,
    _tree_scores,
)


MODE, PUMA = EstimatorConfig("MODE"), EstimatorConfig("PUMA")


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


def _score_set(candidates, cov, r):
    """``_score_subsets`` of one candidate set, a stack of one: its subsets and scores."""
    subsets, scores = _score_subsets(candidates[None], cov, r)
    return subsets, scores[0]


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

    def test_stacked_form_equals_per_column_loop(self):
        # The stacked kernel forms every Phi_l* Omega Phi_l in two matmuls and
        # sums them in slice order: the same bits as one column at a time.
        rng = np.random.default_rng(11)
        for m in range(3, 25):
            for r in range(1, min(m, 7)):
                X = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
                U, _ = np.linalg.qr(X)
                decomp = SubspaceDecomposition(
                    u_signal=U, lambdas=np.arange(r, 0, -1) + 1.0, sigma2=1.0,
                )
                g = rng.uniform(0.1, 5.0, size=r)
                for q in range(1, m):
                    X = rng.standard_normal((m - q, m - q)) + 1j * rng.standard_normal((m - q, m - q))
                    omega = X @ X.conj().T
                    hankel = np.arange(m - q)[:, None] + np.arange(q + 1)
                    ref = np.zeros((q + 1, q + 1), dtype=complex)
                    for l in range(r):
                        Phi_l = U[hankel, l]
                        ref += g[l] * (Phi_l.conj().T @ omega @ Phi_l)
                    ref = 0.5 * (ref + ref.conj().T)
                    Q = quadratic_form_matrix(decomp, g, omega, q)
                    assert Q.tobytes() == ref.tobytes(), (m, r, q)

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


class TestCachedTables:
    @pytest.mark.parametrize(
        "cached, args",
        [
            (_conjugate_symmetric_basis, (5,)),
            (_conjugate_symmetric_basis, (8,)),
            (_subset_table, (14, 4)),
            (_subset_table, (6, 2)),
        ],
    )
    def test_read_only_and_equal_to_a_fresh_build(self, cached, args):
        table = cached(*args)
        assert cached(*args) is table
        assert table.tobytes() == cached.__wrapped__(*args).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
        assert cached.cache_info().maxsize is not None

    def test_subset_table_is_combinations_order(self):
        assert _subset_table(6, 3).tolist() == [
            list(s) for s in itertools.combinations(range(6), 3)
        ]


class TestModeTwoStep:
    def test_noiseless_exact_recovery(self):
        truth = [-0.4, 0.7]
        cov, decomp, weight = noiseless_decomp(6, truth)
        res = estimate(cov, decomp, weight, 2, MODE)
        assert np.max(np.abs(res.angles - truth)) <= 1e-6
        assert res.converged

    def test_unique_annihilator_single_source(self):
        cov, decomp, weight = noiseless_decomp(2, [0.0])
        res = estimate(cov, decomp, weight, 1, MODE)
        c = res.coefs / res.coefs[0]
        assert np.allclose(c, [1, -1], atol=1e-10)
        assert np.allclose(res.angles, [0.0], atol=1e-10)

    def test_conjugate_symmetric_coefficients(self):
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 200, seed=3)
        res = estimate(cov, decomp, weight, 2, MODE)
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
            res = estimate(cov, decomp, weight, 2, MODE)
            _, rmse = match_angles(res.angles, truth)
            rmses.append(rmse)
            from modepuma import coefs_from_angles

            at_truth = v_mode(coefs_from_angles(truth), decomp, weight).value
            if res.criterion_value <= at_truth + 1e-8:
                wins += 1
        assert wins >= 0.95 * 200
        assert np.sqrt(np.mean(np.square(rmses))) <= 0.05

    def test_optimality_certificate(self):
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 200, seed=5)
        res = estimate(cov, decomp, weight, 2, MODE)
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
        cov, decomp, weight = noiseless_decomp(6, truth)
        res = estimate(cov, decomp, weight, 2, PUMA)
        assert np.max(np.abs(res.angles - truth)) <= 1e-6

    def test_final_criterion_reproducible(self):
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 200, seed=8)
        res = estimate(cov, decomp, weight, 2, PUMA)
        again = v_mode(res.coefs, decomp, weight).value
        assert abs(res.criterion_value - again) <= 1e-10 * max(1.0, again)

    def test_criterion_history_non_increasing(self):
        for seed in range(10):
            cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 5.0, 100, seed=seed)
            res = estimate(cov, decomp, weight, 2, PUMA)
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
            _, a = match_angles(estimate(cov, decomp, weight, 2, MODE).angles, truth)
            _, b = match_angles(estimate(cov, decomp, weight, 2, PUMA).angles, truth)
            rm.append(a**2)
            rp.append(b**2)
        rmse_mode = np.sqrt(np.mean(rm))
        rmse_puma = np.sqrt(np.mean(rp))
        assert abs(rmse_puma - rmse_mode) <= 0.10 * rmse_mode

    def test_gauge_independence_vs_mode(self):
        cov, decomp, weight = noiseless_decomp(6, [-0.4, 0.7])
        a = estimate(cov, decomp, weight, 2, MODE).angles
        b = estimate(cov, decomp, weight, 2, PUMA).angles
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
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 5.0, 50, seed=seed)
        res = estimate(cov, decomp, weight, 2, MODE)
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
            cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=seed)
            res = estimate(cov, decomp, weight, 2, PUMA)
            assert len(res.criterion_history) == res.iterations_used
            assert res.criterion_history[-1] == res.criterion_value
            if not res.converged:
                continue
            converged += 1
            c = res.coefs
            omega = guarded_inverse(toeplitz_annihilator(c, decomp.m), "T T*")[0]  # raises past COND_LIMIT
            again = _gauge_step(quadratic_form_matrix(decomp, weight, omega, 2))
            assert np.linalg.norm(again - c) <= 1e-8 * np.linalg.norm(c), seed
        assert converged >= 38

    def test_history_is_vmode_of_each_iterate(self):
        # Each history value is read off the next quadratic form, which
        # equals V_MODE at that iterate.
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 0.0, 100, seed=2)
        omega = np.eye(4, dtype=complex)
        for value in estimate(cov, decomp, weight, 2, PUMA).criterion_history:
            c = _gauge_step(quadratic_form_matrix(decomp, weight, omega, 2))
            expected = v_mode(c, decomp, weight).value
            assert abs(value - expected) <= 1e-12 * expected
            omega = guarded_inverse(toeplitz_annihilator(c, decomp.m), "T T*")[0]

    def test_gram_past_cond_limit_ends_the_loop(self, monkeypatch):
        # With COND_LIMIT below every first reweight's cond(T T*), each
        # reweighted solve ends at its first iterate, flagged not converged:
        # nothing regularizes the Gram and carries on.
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=0)
        first = min(
            condition_number(hermitian_gram(toeplitz_annihilator(c, 6)))
            for q in (2, 4)
            for step in (_gauge_step, _symmetric_step)
            for c in [step(quadratic_form_matrix(decomp, weight, np.eye(6 - q), q))]
        )
        monkeypatch.setattr(array_model, "COND_LIMIT", first / 2)
        monkeypatch.setattr(array_model, "CERTIFY_LIMIT", first / 200)
        solves = []
        hankel_slices = estimators._hankel_slices

        def counted(*args):
            solves.append(args[-1])
            return hankel_slices(*args)

        monkeypatch.setattr(estimators, "_hankel_slices", counted)
        for base in ("MODE", "PUMA"):
            solves.clear()
            cfg = EstimatorConfig(base, 2)
            res = estimate(cov, decomp, weight, 2, cfg)
            assert solves == [2, 4], base
            assert res.iterations_used == 2 and not res.converged
        # PUMA's returned c then fails the same guard in v_mode.
        with pytest.raises(SingularityError, match="T T"):
            estimate(cov, decomp, weight, 2, PUMA)

    def test_reweight_runs_no_eigenvalue_check_on_t_grams(self, monkeypatch):
        # The reweight certifies each T T* from the inverse it forms anyway;
        # a certified Gram never reaches condition_number.  Only V_MODE's
        # check of the returned c is left.
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=0)
        checked = []
        in_criterion = []
        condition_number = array_model.condition_number
        criterion = estimators.v_mode

        def counted(gram):
            if not in_criterion:
                checked.append(np.shape(gram))
            return condition_number(gram)

        def v_mode_outside(*args):
            in_criterion.append(True)
            try:
                return criterion(*args)
            finally:
                in_criterion.pop()

        monkeypatch.setattr(array_model, "condition_number", counted)
        monkeypatch.setattr(estimators, "condition_number", counted)
        monkeypatch.setattr(estimators, "v_mode", v_mode_outside)
        res = estimate(cov, decomp, weight, 2, PUMA)
        assert res.iterations_used >= 3
        # PUMA's Q_11 (2 x 2) is checked once per loop, at Omega = I, and
        # certified on every reweight after it; no T T* (4 x 4) is checked.
        assert checked == [(2, 2)]

    def test_clustered_puma_stops_at_the_iteration_cap(self):
        cov, decomp, weight = noisy_pipeline(8, 3, [0.1, 0.18, 0.26], 10.0, 50, seed=0)
        res = estimate(cov, decomp, weight, 3, PUMA)
        assert res.iterations_used == 20 == len(res.criterion_history)
        assert not res.converged
        assert res.criterion_history[-1] == res.criterion_value

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
            cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=seed)
            mode = estimate(cov, decomp, weight, 2, MODE)
            puma = estimate(cov, decomp, weight, 2, PUMA)
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


class TestPumaFixedPointAgainstTheModeMinimum:
    @pytest.mark.parametrize("snr_db", [0.0, 10.0])
    def test_the_gap_shrinks_faster_than_the_error(self, snr_db):
        # PUMA's reweighting fixed point is not V_MODE's minimizer over its
        # c_0 = 1 set at finite T: the two differ by O(1/T), while the
        # estimate's error is O(1/sqrt(T)).  So the angle gap between PUMA
        # and a BFGS minimum started from it, over the RMSE of that minimum,
        # falls as 1/sqrt(T): by sqrt(8) from T = 50 to 400.  Half of that,
        # sqrt(8) / 2, was fixed as the bound before any run.
        truth = np.array([-0.4, 0.7])

        def gauged(x):
            return np.concatenate(([1.0], x[:2] + 1j * x[2:]))

        ratio = {}
        for T in (50, 400):
            gaps, errors = [], []
            for seed in range(20):
                cov, decomp, weight = noisy_pipeline(6, 2, truth, snr_db, T, seed)
                puma = estimate(cov, decomp, weight, 2, PUMA)
                x0 = np.concatenate((puma.coefs[1:].real, puma.coefs[1:].imag))
                found = scipy.optimize.minimize(
                    lambda x: v_mode(gauged(x), decomp, weight).value,
                    x0, method="BFGS", options={"gtol": 1e-10},
                )
                assert found.fun <= puma.criterion_value
                angles = angles_from_coefs(gauged(found.x))
                gaps.append(np.max(np.abs(match_angles(angles, puma.angles)[0])))
                errors.append(match_angles(angles, truth)[1])
            ratio[T] = np.median(gaps) / np.sqrt(np.mean(np.square(errors)))
        assert ratio[50] / ratio[400] >= np.sqrt(8) / 2, ratio


class TestModex:
    def test_p_zero_reduces_to_base(self):
        cov, decomp, weight = noiseless_decomp(6, [-0.4, 0.7])
        base = estimate(cov, decomp, weight, 2, MODE)
        res = estimate(cov, decomp, weight, 2, EstimatorConfig("MODE", 0))
        assert np.allclose(res.angles, base.angles, atol=1e-10)
        assert len(res.candidate_log) == 1

    def test_noiseless_recovery_with_extras(self):
        truth = [-0.9, 0.3]
        cov, decomp, weight = noiseless_decomp(8, truth)
        res = estimate(cov, decomp, weight, 2, EstimatorConfig("MODE", 2))
        candidates = np.sort(
            np.unique(np.concatenate([list(s) for s, _ in res.candidate_log]))
        )
        assert min(abs(candidates - truth[0])) <= 1e-6
        assert min(abs(candidates - truth[1])) <= 1e-6
        assert np.max(np.abs(res.angles - truth)) <= 1e-6

    def test_epuma_recovers_through_minimum_norm_step(self, monkeypatch):
        # m = 5, q = r + p = 4: r (m - q) = 2 < q, so the gauge-fixed block
        # Q11 of the extended solve is rank-deficient and its step is lstsq.
        truth = [-0.4, 0.7]
        cov, decomp, weight = noiseless_decomp(5, truth)
        lstsq = np.linalg.lstsq
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        cfg = EstimatorConfig("PUMA", 2)
        res = estimate(cov, decomp, weight, 2, cfg)
        monkeypatch.undo()
        assert calls and set(calls) == {(4, 4)}
        assert np.max(np.abs(res.angles - truth)) <= 1e-6

    def test_exhaustive_subset_log(self):
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=4)
        res = estimate(cov, decomp, weight, 2, EstimatorConfig("MODE", 2))
        from math import comb

        # pooled candidates: 2 from the plain fit, 4 from the extended fit
        assert len(res.candidate_log) == comb(6, 2)
        assert res.criterion_value == min(v for _, v in res.candidate_log)

    @pytest.mark.parametrize("base", ["MODE", "PUMA"])
    def test_candidate_log_is_built_on_first_read(self, base):
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=4)
        cfg = EstimatorConfig(base, 2)
        res = estimators.estimate(cov, decomp, weight, 2, cfg)
        assert "candidate_log" not in vars(res)
        step, tolerance = estimators._SOLVERS[base]
        c, *_ = estimators._reweighted_solve(decomp, weight, 2, step, tolerance)
        plain = estimators._roots(c)
        start = np.concatenate([c, np.zeros(2)]) if base == "PUMA" else None
        c, *_ = estimators._reweighted_solve(decomp, weight, 4, step, np.inf, start=start)
        extra = estimators._roots(c)
        candidates = np.sort(np.concatenate([plain, extra]))
        subsets, scores = _score_set(candidates, cov, 2)
        eager = list(zip(map(tuple, candidates[subsets].tolist()), scores.tolist()))
        log = res.candidate_log
        assert log == eager
        assert all(type(s) is tuple and type(v) is float for s, v in log)
        assert res.candidate_log is log

    def test_sweep_never_builds_the_candidate_log(self, monkeypatch):
        results = []

        def kept(*args, **kwargs):
            results.extend(estimators.estimate_many(*args, **kwargs))
            return results[-len(args[4]) :]

        monkeypatch.setattr(bench, "estimate_many", kept)
        base = Scenario(
            m=6, r=2, angles=[-0.4, 0.7], source_cov=np.eye(2),
            noise_power=1.0, n_snapshots=100, seed=0,
        )
        methods = tuple(bench.parse_method_token(t) for t in ("mode", "modex:2", "epuma:2"))
        bench.run_sweep(bench.SweepSpec(base, (10.0,), (100,), methods, 2, 0))
        assert len(results) == 6
        assert all("candidate_log" not in vars(res) for res in results)
        assert [res.candidate_log is None for res in results] == [True, False, False] * 2

    def test_p_bound_enforced(self):
        cov, decomp, weight = noiseless_decomp(6, [-0.4, 0.7])
        with pytest.raises(ValidationError):
            estimate(cov, decomp, weight, 2, EstimatorConfig("MODE", 4))

    @pytest.mark.parametrize("base", ["MODE", "PUMA"])
    def test_subset_count_capped(self, base):
        # r = 8, p = 4 pools 20 candidates: C(20, 8) = 125970 subsets.
        cov, decomp, weight = noisy_pipeline(13, 8, np.linspace(-2.5, 2.5, 8), 10.0, 40, seed=1)
        cfg = EstimatorConfig(base, 4)
        with pytest.raises(ValidationError, match="125970 .* 100000"):
            estimate(cov, decomp, weight, 8, cfg)

    def test_enhanced_variant_noiseless(self):
        truth = [-0.9, 0.3]
        cov, decomp, weight = noiseless_decomp(8, truth)
        cfg = EstimatorConfig("PUMA", 2)
        res = estimate(cov, decomp, weight, 2, cfg)
        assert np.max(np.abs(res.angles - truth)) <= 1e-6

    def test_enhanced_without_extras_is_puma(self):
        # With p = 0 Enhanced PUMA is PUMA: one reweighted solve at degree r
        # under the same stopping rule, returning the same best iterate.
        cfg = EstimatorConfig("PUMA", 0)
        for seed in range(20):
            cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=seed)
            res = estimate(cov, decomp, weight, 2, cfg)
            ref = estimate(cov, decomp, weight, 2, PUMA)
            assert np.array_equal(res.angles, ref.angles), seed
            assert res.converged == ref.converged, seed
            assert res.iterations_used == ref.iterations_used, seed


def _assert_same_result(got, ref):
    """The same angles, coefs and criterion bits, counts, flags and candidate log."""
    for a, b in ((got.angles, ref.angles), (got.coefs, ref.coefs)):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert np.float64(got.criterion_value).view(np.uint64) == np.float64(ref.criterion_value).view(
        np.uint64
    )
    assert (got.iterations_used, got.converged) == (ref.iterations_used, ref.converged)
    assert got.candidate_log == ref.candidate_log


_MANY_TOKENS = ("mode", "puma", "modex:1", "epuma:1", "modex:3", "epuma:3")


class TestEstimateMany:
    # One call per trial: each config's solves as alone, then the MODEX
    # sets of equal length (two lengths here, K = 7 and 9) scored in one
    # stacked call.  Every outcome must be the config's own ``estimate``.

    @pytest.mark.parametrize("snr", [-4.0, 10.0])
    def test_each_outcome_is_its_own_estimate(self, snr):
        configs = tuple(bench.parse_method_token(t) for t in _MANY_TOKENS)
        for seed in range(6):
            cov, decomp, weight = noisy_pipeline(10, 3, [-0.8, 0.1, 0.2], snr, 50, seed=seed)
            timings = []
            outcomes = estimators.estimate_many(cov, decomp, weight, 3, configs, timings=timings)
            assert len(outcomes) == len(timings) == len(configs)
            assert all(t >= 0 for t in timings)
            for config, got in zip(configs, outcomes):
                _assert_same_result(got, estimators.estimate(cov, decomp, weight, 3, config))

    def test_a_config_whose_subsets_all_score_inf_fails_alone(self, monkeypatch):
        # The second MODEX config's roots are forced to one repeated angle,
        # so every one of its subsets is dead; it shares its stack with the
        # first, which scores as alone.  Roots call 1 is mode's degree-r
        # one, which modex:2 reads from the call's memo, call 2 modex:2's
        # extended one, and calls 3-4 epuma:2's two.
        configs = tuple(bench.parse_method_token(t) for t in ("mode", "modex:2", "epuma:2"))
        cov, decomp, weight = noisy_pipeline(10, 3, [-0.8, 0.1, 0.2], 10.0, 50, seed=0)
        alone = [estimators.estimate(cov, decomp, weight, 3, c) for c in configs]
        roots = estimators._roots
        calls = []

        def forced(c):
            calls.append(len(c))
            return np.full(len(c) - 1, 0.3) if len(calls) in (3, 4) else roots(c)

        monkeypatch.setattr(estimators, "_roots", forced)
        outcomes = estimators.estimate_many(cov, decomp, weight, 3, configs)
        assert isinstance(outcomes[2], SingularityError)
        for k in (0, 1):
            _assert_same_result(outcomes[k], alone[k])

    def test_a_zero_leading_coefficient_fails_its_config_alone(self):
        # At U = (1, 0, 0, 1) / sqrt(2) the extended symmetric step returns
        # c = (0, 1, 0).  Its c_0 is checked before c / c_0 is formed, so no
        # divide-by-zero warning escapes the call, and plain MODE returns.
        U = np.array([[1], [0], [0], [1]], dtype=complex) / np.sqrt(2)
        decomp = SubspaceDecomposition(u_signal=U, lambdas=np.array([2.0]), sigma2=1.0)
        cov = np.eye(4) + 2 * U @ U.conj().T
        configs = (EstimatorConfig("MODE"), EstimatorConfig("MODE", 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plain, extended = estimators.estimate_many(cov, decomp, [0.5], 1, configs)
        _assert_same_result(plain, estimate(cov, decomp, [0.5], 1, MODE))
        assert isinstance(extended, NumericalError)
        assert str(extended) == "the degree-2 solve returned c_0 = 0"

    def test_a_size_past_the_limit_fails_alone(self):
        # modex:7 at m=10, r=3 breaks p < m - r: a ValidationError entry.
        configs = tuple(bench.parse_method_token(t) for t in ("modex:2", "modex:7", "puma"))
        cov, decomp, weight = noisy_pipeline(10, 3, [-0.8, 0.1, 0.2], 10.0, 50, seed=1)
        outcomes = estimators.estimate_many(cov, decomp, weight, 3, configs)
        assert isinstance(outcomes[1], ValidationError)
        _assert_same_result(outcomes[0], estimators.estimate(cov, decomp, weight, 3, configs[0]))
        _assert_same_result(outcomes[2], estimators.estimate(cov, decomp, weight, 3, configs[2]))
        with pytest.raises(ValidationError, match="p < m - r"):
            estimators.estimate(cov, decomp, weight, 3, configs[1])

    # An r or a weight that does not match the decomposition, or a weight
    # that is not r finite real numbers, fails every config with a
    # ValidationError, before any solve, and prints nothing.
    @pytest.mark.parametrize(
        "r, weight, message",
        [
            (2, [0.5], r"need a weight of 2 entries, got shape \(1,\)"),
            (2, [0.5, 0.4, 0.3], r"need a weight of 2 entries, got shape \(3,\)"),
            (3, None, "need r equal to the decomposition's rank 2, got 3"),
            (1, None, "need r equal to the decomposition's rank 2, got 1"),
            (2, [[1.0, 2.0], [3.0]], "need a weight of 2 entries, got a ragged sequence"),
            (2, ["a", "b"], "need a weight of real numbers, got dtype <U1"),
            (2, [1 + 2j, 1.0], "need a weight of real numbers, got dtype complex128"),
            (2, [np.nan, 1.0], r"need a finite weight, got \[nan, 1\.0\]"),
            (2, [np.inf, 1.0], r"need a finite weight, got \[inf, 1\.0\]"),
        ],
        ids=[
            "short-weight", "long-weight", "r-above", "r-below",
            "ragged-weight", "string-weight", "complex-weight", "nan-weight", "inf-weight",
        ],
    )
    def test_a_size_other_than_the_decomposition_s_fails_every_config(self, r, weight, message, capfd):
        cov, decomp, own = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=0)
        weight = own if weight is None else weight
        configs = tuple(bench.parse_method_token(t) for t in _PAPER_TOKENS)
        outcomes = estimators.estimate_many(cov, decomp, weight, r, configs)
        assert len(outcomes) == len(configs)
        for outcome in outcomes:
            assert isinstance(outcome, ValidationError)
            assert re.fullmatch(message, str(outcome))
        with pytest.raises(ValidationError, match=message):
            estimate(cov, decomp, weight, r, MODE)
        assert capfd.readouterr().err == ""


_PAPER_TOKENS = ("mode", "puma", "modex:2", "epuma:2")


def _assert_same_outcome(got, ref):
    """``_assert_same_result`` and the same ``criterion_history``, or the same typed error."""
    if isinstance(ref, Exception):
        assert type(got) is type(ref) and str(got) == str(ref)
        return
    _assert_same_result(got, ref)
    assert got.criterion_history == ref.criterion_history


def _counting(monkeypatch, name):
    """Replace ``estimators.<name>`` by a wrapper that counts its calls; the count list."""
    calls = []
    original = getattr(estimators, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimators, name, counted)
    return calls


class TestDegreeRMemo:
    # A solver's plain and MODEX configs share its degree-r loop and roots
    # within one ``estimate_many`` call; every outcome must still be the
    # config's own ``estimate``, own its arrays, and count both solves.

    def test_the_paper_configs_solve_degree_r_once_per_solver(self, monkeypatch):
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=0)
        configs = tuple(bench.parse_method_token(t) for t in _PAPER_TOKENS)
        solves = _counting(monkeypatch, "_reweighted_solve")
        roots = _counting(monkeypatch, "_roots")
        estimators.estimate_many(cov, decomp, weight, 2, configs)
        # mode, puma: one each; modex:2, epuma:2: the extended one each.
        assert (len(solves), len(roots)) == (4, 4)

    @pytest.mark.parametrize(
        "tokens",
        [
            ("modex:2", "mode", "epuma:2", "puma"),
            ("epuma:0", "modex:0", "puma", "mode", "modex:2"),
            ("mode", "mode", "modex:2", "modex:2", "epuma:1", "epuma:1"),
            ("modex:9", "mode", "modex:9", "modex:1", "epuma:9", "puma", "epuma:3"),
        ],
        ids=["modex-first", "p-zero", "duplicated", "too-large-p"],
    )
    @pytest.mark.parametrize("snr", [-4.0, 10.0])
    def test_every_outcome_is_its_own_estimate(self, tokens, snr):
        configs = tuple(bench.parse_method_token(t) for t in tokens)
        for seed in range(3):
            cov, decomp, weight = noisy_pipeline(10, 3, [-0.8, 0.1, 0.2], snr, 50, seed=seed)
            outcomes = estimators.estimate_many(cov, decomp, weight, 3, configs)
            for config, got in zip(configs, outcomes):
                (alone,) = estimators.estimate_many(cov, decomp, weight, 3, (config,))
                _assert_same_outcome(got, alone)
            if "modex:9" in tokens:
                assert all(isinstance(outcomes[k], ValidationError) for k in (0, 2, 4))

    def test_no_two_outcomes_share_memory(self):
        cov, decomp, weight = noisy_pipeline(10, 3, [-0.8, 0.1, 0.2], 10.0, 50, seed=0)
        tokens = ("mode", "modex:0", "modex:0", "modex:2", "puma", "epuma:0", "epuma:2", "puma")
        configs = tuple(bench.parse_method_token(t) for t in tokens)
        outcomes = estimators.estimate_many(cov, decomp, weight, 3, configs)
        arrays = []
        for res in outcomes:
            arrays += [res.angles, res.coefs, *(res._candidates or ())]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)
        histories = [res.criterion_history for res in outcomes if res.criterion_history is not None]
        assert len(histories) == 3
        assert len({id(h) for h in histories}) == len(histories)

    def test_a_degree_r_solve_that_raises_fails_each_config_that_needs_it(self, monkeypatch):
        # PUMA's degree-r loop is made to raise: puma and epuma:2 each fail
        # with that error, as alone, and the MODE configs are untouched.
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=0)
        solve = estimators._reweighted_solve

        def failing(decomp, weight, q, step, tolerance, **kwargs):
            if step is _gauge_step and q == 2:
                raise NumericalError("the degree-2 solve returned c_0 = 0")
            return solve(decomp, weight, q, step, tolerance, **kwargs)

        monkeypatch.setattr(estimators, "_reweighted_solve", failing)
        configs = tuple(bench.parse_method_token(t) for t in _PAPER_TOKENS)
        outcomes = estimators.estimate_many(cov, decomp, weight, 2, configs)
        for config, got in zip(configs, outcomes):
            (alone,) = estimators.estimate_many(cov, decomp, weight, 2, (config,))
            _assert_same_outcome(got, alone)
        assert all(isinstance(outcomes[k], NumericalError) for k in (1, 3))
        assert outcomes[1] is not outcomes[3]

    def test_a_modex_config_s_time_counts_the_solve_it_read(self, monkeypatch):
        # A fake clock that advances 1 s per reweighted loop, and stands
        # still otherwise: mode runs the degree-r loop, modex:2 reads it and
        # runs its extended one, and is charged for both, as alone.
        ticks = [0.0]
        solve = estimators._reweighted_solve

        def ticking(*args, **kwargs):
            ticks[0] += 1.0
            return solve(*args, **kwargs)

        monkeypatch.setattr(estimators, "_reweighted_solve", ticking)
        monkeypatch.setattr(estimators, "time", types.SimpleNamespace(perf_counter=lambda: ticks[0]))
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=0)
        configs = tuple(bench.parse_method_token(t) for t in _PAPER_TOKENS)
        batches = [
            (configs, [1.0, 1.0, 2.0, 2.0]),
            (configs[2:], [2.0, 2.0]),
            # mode reads the degree-r solve that modex:2 ran, and is charged for it.
            ((configs[2], configs[0]), [2.0, 1.0]),
        ]
        for batch, want in batches:
            timings = []
            estimators.estimate_many(cov, decomp, weight, 2, batch, timings=timings)
            assert timings == want


def _scale_pipeline(Y, r, configs):
    cov = sample_covariance(Y)
    decomp = subspace_decomposition(cov, r)
    return estimators.estimate_many(cov, decomp, signal_weight(decomp), r, configs)


class TestScaleInvariance:
    # Every estimator is invariant to the data's scale, and 2^k scales the
    # snapshots exactly.  So the angles must not move, unless the pipeline
    # stops with a NumericalError where a covariance or weight leaves float
    # range: never silently wrong angles.

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(5, 11), st.integers(1, 4), st.integers(0, 2**32 - 1),
        st.floats(-2, 1), st.integers(-400, 400),
    )
    def test_angles_do_not_depend_on_the_data_scale(self, m, r, seed, log_noise, k):
        angles = bench.random_angle_set(np.random.default_rng(seed), r, min_separation=0.1)
        sc = Scenario(
            m=m, r=r, angles=angles, source_cov=np.eye(r),
            noise_power=10.0**log_noise, n_snapshots=50, seed=seed,
        )
        Y = simulate_snapshots(sc)
        p = min(2, m - r - 1)
        configs = (MODE, PUMA, EstimatorConfig("MODE", p), EstimatorConfig("PUMA", p))
        base = _scale_pipeline(Y, r, configs)
        try:
            outcomes = _scale_pipeline(np.ldexp(Y.real, k) + 1j * np.ldexp(Y.imag, k), r, configs)
        except NumericalError:
            return
        for config, got, ref in zip(configs, outcomes, base):
            if isinstance(ref, Exception):
                assert type(got) is type(ref), config
                continue
            assert not isinstance(got, Exception), (config, got)
            assert np.max(np.abs(_wrap(got.angles - ref.angles))) <= 1e-9, config


_WIDE_ANGLES = [-1.2, -0.3, 0.5, 1.4]


def _one_sided_sign_p(losses, wins):
    """P(at least ``losses`` losses of the untied pairs) under a fair coin."""
    n = wins + losses
    return sum(comb(n, k) for k in range(losses, n + 1)) / 2**n


class TestExtendedTwoStep:
    # Enhanced PUMA's extended solve is a two-step started from the plain
    # solve's c.  The reference runs PUMA's reweighting from Omega = I to
    # its 1e-10 stop or the 20-solve cap.

    @pytest.mark.parametrize(
        "m, truth, T, p, n_trials",
        [(10, [0.0, 0.25], 20, 2, 1000), (16, _WIDE_ANGLES, 200, 6, 300)],
        ids=["threshold", "wide"],
    )
    def test_no_worse_than_the_reweighting_to_the_cap(self, m, truth, T, p, n_trials):
        # Paired one-sided sign test at alpha = 0.01, fixed before running:
        # per trial, the ML pick over the plain roots and the extended roots
        # of each rule, error against the truth, ties dropped.
        r = len(truth)
        cfg = EstimatorConfig("PUMA", p)
        wins = losses = 0
        for seed in range(n_trials):
            cov, decomp, weight = noisy_pipeline(m, r, truth, 0.0, T, seed=seed)
            puma = estimators._SOLVERS["PUMA"]
            plain = estimators._roots(estimators._reweighted_solve(decomp, weight, r, *puma)[0])
            extra = estimators._roots(estimators._reweighted_solve(decomp, weight, r + p, *puma)[0])
            candidates = np.sort(np.concatenate([plain, extra]))
            subsets, scores = _score_set(candidates, cov, r)
            old = match_angles(candidates[subsets[np.argmin(scores)]], truth)[1]
            new = match_angles(estimate(cov, decomp, weight, r, cfg).angles, truth)[1]
            wins += new < old
            losses += new > old
        assert _one_sided_sign_p(losses, wins) >= 0.01, (wins, losses)

    @pytest.mark.parametrize("snr", [0.0, 10.0])
    def test_the_extended_solve_takes_two_solves(self, snr):
        cfg = EstimatorConfig("PUMA", 6)
        for seed in range(5):
            cov, decomp, weight = noisy_pipeline(16, 4, _WIDE_ANGLES, snr, 200, seed=seed)
            res = estimate(cov, decomp, weight, 4, cfg)
            plain = estimate(cov, decomp, weight, 4, PUMA)
            assert res.iterations_used == plain.iterations_used + 2, seed
            assert res.converged == plain.converged, seed

    def test_a_singular_start_starts_from_the_identity(self):
        # A 12-fold root on the unit circle at m = 36: cond(T T*) is about 1.6e13.
        _, decomp, weight = noisy_pipeline(36, 4, _WIDE_ANGLES, 10.0, 200, seed=0)
        start = np.poly(np.exp(1j * np.full(12, 0.3)))[::-1]
        with pytest.raises(SingularityError):
            guarded_inverse(toeplitz_annihilator(start, 36), "T T*")
        for tolerance in (np.inf, estimators._RELATIVE_TOLERANCE):
            got = estimators._reweighted_solve(decomp, weight, 12, _gauge_step, tolerance, start=start)
            ref = estimators._reweighted_solve(decomp, weight, 12, _gauge_step, tolerance)
            assert np.array_equal(got[0].view(np.uint64), ref[0].view(np.uint64))
            assert got[1:] == ref[1:]


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
    # Subset (2, 3, 6) has cond(A* A) = 3.8e7: v_ml_angles is off by 1.5e-12
    # relative there, the scorer by 4e-16.
    @example(
        (np.array([0.0, 0.5, 0.5000000000010001, 0.5001497090931166, 0.5001497090941167, 1.0, 2.0]), 3),
        0,
    )
    def test_matches_per_subset_criterion(self, drawn, which):
        candidates, r = drawn
        R = _CLUSTERED_COVS[which]
        subsets, scores = _score_set(candidates, R, r)
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
            if abs(score - ref) > 1e-12 * abs(ref):
                # The float oracle's own rounding grows with cond(A* A) and
                # can pass 1e-12; the extended-precision score does not.
                ref = _extended_precision_scores(candidates, R, np.array([S]))[0]
            assert abs(score - ref) <= 1e-12 * abs(ref)

    def test_all_coincident_scores_inf(self):
        subsets, scores = _score_set(np.array([0.3, 0.3, 0.3]), np.eye(8), 2)
        assert len(subsets) == 3 and np.all(scores == np.inf)

    @pytest.mark.parametrize("seed", range(4))
    def test_modex_log_follows_combinations(self, monkeypatch, seed):
        seen = []

        def spy(candidates, cov, r):
            seen.append(candidates)
            return _score_subsets(candidates, cov, r)

        monkeypatch.setattr(estimators, "_score_subsets", spy)
        cov, decomp, weight = noisy_pipeline(8, 3, [0.1, 0.18, 0.26], 0.0, 50, seed)
        res = estimate(cov, decomp, weight, 3, EstimatorConfig("MODE", 3))
        # estimate is a batch of one: it scores a stack of one candidate set.
        ((candidates,),) = seen
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


def _near_limit_cov(m, seed):
    """The m x m covariance that ``near_limit_candidates`` draws from ``seed``."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, m + 2)) + 1j * rng.standard_normal((m, m + 2))
    return X @ X.conj().T / (m + 2)


@st.composite
def near_limit_candidates(draw):
    """m, a covariance, and candidates whose close pairs and triples put some
    subsets' Gram condition numbers in (1e10, 1e12], beyond it, or at +inf."""
    m = draw(st.sampled_from([6, 8, 16]))
    cov = _near_limit_cov(m, draw(st.integers(0, 2**32 - 1)))
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


def _all_qr_score_subsets(candidates, cov, r):
    """The scoring that the Gram route sped up, every live subset by stacked QR, kept verbatim."""
    R = np.asarray(cov)
    m = R.shape[0]
    A = np.exp(1j * np.outer(np.arange(m), candidates))
    G = hermitian_gram(A.conj().T)
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
            ok[~ok] = condition_number(gram) <= COND_LIMIT
        Q = Q[ok]
        fit = np.real(np.sum(Q.conj() * (R @ Q), axis=(1, 2)))
        scores[rows[ok]] = trace_r - fit
    return subsets, scores


def _score_subsets_and_route(candidates, cov, r, min_subsets=1):
    """``_score_subsets`` and a mask of the subsets it sent down the QR route.

    ``min_subsets`` stands in for ``_GRAM_MIN_SUBSETS``; the default 1 sends
    even the small candidate sets drawn here through the Gram route.
    """
    routed = set()
    qr_scores = estimators._qr_scores

    def spy(A, G, R, sets, idx, trace_r):
        routed.update(map(tuple, idx.tolist()))
        return qr_scores(A, G, R, sets, idx, trace_r)

    with mock.patch.object(estimators, "_qr_scores", spy), mock.patch.object(
        estimators, "_GRAM_MIN_SUBSETS", min_subsets
    ):
        subsets, scores = _score_set(candidates, cov, r)
    return subsets, scores, np.array([tuple(S) in routed for S in subsets.tolist()], dtype=bool)


def _assert_matches_reference(routed, reference, candidates, cov):
    """The same subsets and +inf set as the reference; bit-equal scores on the
    subsets sent down the QR route, and within 1e-12 tr R on those scored from
    the Grams: about eps times 1e4, a tolerance fixed before any run.

    A Gram-scored subset whose plain Gram A_S* A_S is past cond 1e6 is
    compared with ``_extended_precision_scores`` instead, within
    eps * _GRAM_BOUND * tr R: there the reference's own QR error, about
    eps * cond(A_S) * tr R, can pass 1e-12 tr R."""
    subsets, scores, qr = routed
    ref_subsets, ref_scores = reference
    assert np.array_equal(subsets, ref_subsets)
    assert np.array_equal(np.isinf(scores), np.isinf(ref_scores))
    assert np.array_equal(scores[qr], ref_scores[qr])
    gram = np.flatnonzero(np.isfinite(scores) & ~qr)
    A = np.exp(1j * np.outer(np.arange(len(cov)), candidates))
    cond = np.array([condition_number(hermitian_gram(A[:, S].conj().T)) for S in subsets[gram]])
    near, far = gram[cond > 1e6], gram[cond <= 1e6]
    trace_r = np.real(np.trace(cov))
    assert np.all(np.abs(scores[far] - ref_scores[far]) <= 1e-12 * trace_r)
    if near.size:
        exact = _extended_precision_scores(candidates, cov, subsets[near])
        assert np.all(np.abs(scores[near] - exact) <= np.finfo(float).eps * _GRAM_BOUND * trace_r)


def _qr_bound(candidates, m, subset):
    """The COND_LIMIT certificate of one subset, from a QR of its steering columns."""
    R_A = np.linalg.qr(np.exp(1j * np.outer(np.arange(m), candidates[list(subset)])))[1]
    return np.sum(np.abs(R_A) ** 2) ** len(subset) / np.prod(np.abs(np.diag(R_A)) ** 2)


@st.composite
def clustered_candidates(draw):
    """``candidate_sets`` scored on one of the clustered covariances (m=8)."""
    candidates, r = draw(candidate_sets())
    return candidates, _CLUSTERED_COVS[draw(st.integers(0, len(_CLUSTERED_COVS) - 1))], r


class TestGramRoute:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(near_limit_candidates(), clustered_candidates()))
    # A pair 2e-5 rad apart across +-pi: its plain gap is near 2 pi, where
    # sin(k gap / 2) loses its leading digits unless formed on the short arc.
    @example((np.array([-3.14157265, 3.14159265]), _near_limit_cov(16, 1), 2))
    def test_matches_the_all_qr_scoring(self, drawn):
        candidates, cov, r = drawn
        _assert_matches_reference(
            _score_subsets_and_route(candidates, cov, r),
            _all_qr_score_subsets(candidates, cov, r),
            candidates,
            cov,
        )

    @pytest.mark.parametrize("which", range(len(_CLUSTERED_COVS)))
    def test_clustered_subsets_past_the_certificate_take_the_qr_route(self, which):
        # The sources sit at 0.1, 0.18, 0.26 (m=8): subsets of that cluster
        # have bounds far past 1e4, the scattered ones well within it.
        candidates = np.array([-2.0, -0.9, 0.1, 0.18, 0.26, 1.2, 2.6])
        cov = _CLUSTERED_COVS[which]
        subsets, _, qr = _score_subsets_and_route(candidates, cov, 3)
        bounds = np.array([_qr_bound(candidates, 8, S) for S in subsets])
        assert np.any(bounds > 1e4) and not np.all(qr)
        assert np.all(qr[bounds > 1e4])

    def test_a_call_with_few_live_subsets_takes_the_qr_route_whole(self):
        # The paper geometry: 6 candidates, r = 2, 15 subsets.
        candidates = np.array([-0.41, -0.4, 0.69, 0.7, 1.9, 2.8])
        cov = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=0)[0]
        assert estimators._GRAM_MIN_SUBSETS > 15
        subsets, scores, qr = _score_subsets_and_route(
            candidates, cov, 2, min_subsets=estimators._GRAM_MIN_SUBSETS
        )
        assert np.all(qr)
        assert np.array_equal(scores, _all_qr_score_subsets(candidates, cov, 2)[1])
        assert not np.all(_score_subsets_and_route(candidates, cov, 2)[2])

    def test_a_gram_that_is_not_positive_definite_neither_raises_nor_warns(self):
        # A synthetic G_B in which candidates 0 and 2 overlap more than a
        # Gram allows: the prefix (0, 2) has a negative pivot, and the
        # subset under it is left uncertified.
        candidates = np.array([-2.0, -1.0, 0.3, 1.2, 2.5])
        cov = _CLUSTERED_COVS[0]
        A = np.exp(1j * np.outer(np.arange(8), candidates))
        G_B, M_B, columns = _gram_basis(A, candidates, cov)
        G_B[0, 2] = G_B[2, 0] = 2 * G_B[0, 0]
        rows = np.array([[0, 1, 3], [0, 2, 4], [1, 3, 4]])
        trace_r = np.real(np.trace(cov))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            score, certified = _tree_scores(G_B, M_B, columns, _tree_plan(rows, len(G_B)), trace_r)
            alone = [
                _tree_scores(G_B, M_B, columns, _tree_plan(rows[[k]], len(G_B)), trace_r)[0][0]
                for k in (0, 2)
            ]
        assert certified.tolist() == [True, False, True]
        assert score[0] == alone[0] and score[2] == alone[1]


def _twin_candidates(base, gaps):
    """The sorted ``base`` angles, each with a near twin ``gap`` above it."""
    return np.sort(np.concatenate([base, np.asarray(base) + np.asarray(gaps)]))


@st.composite
def twin_candidate_sets(draw):
    """m, a covariance, and r to 4 base angles, each with a near twin 1e-6 to
    1e-2 above it, plus up to three other angles."""
    m = draw(st.sampled_from([6, 8, 12, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((m, m + 2)) + 1j * rng.standard_normal((m, m + 2))
    cov = X @ X.conj().T / (m + 2)
    r = draw(st.integers(2, 4))
    angle = st.floats(-3.0, 3.0)
    base = draw(st.lists(angle, min_size=r, max_size=4))
    gaps = [10.0 ** draw(st.floats(-6.0, -2.0)) for _ in base]
    others = draw(st.lists(angle, max_size=3))
    return np.sort(np.concatenate([_twin_candidates(base, gaps), others])), cov, r


def _extended_precision_scores(candidates, cov, subsets, digits=40):
    """tr R - tr{ (A* A)^-1 A* R A } of each subset, exact to about ``digits``
    less the log10 of its Gram's condition number, on the same float inputs."""
    m = cov.shape[0]
    with mpmath.workdps(digits):
        A = mpmath.matrix([[mpmath.expj(k * mpmath.mpf(c)) for c in candidates] for k in range(m)])
        R = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in cov])
        AH = A.transpose_conj()
        G = AH * A
        M = AH * (R * A)
        trace_r = sum(R[k, k].real for k in range(m))
        scores = []
        for S in subsets.tolist():
            G_S = mpmath.matrix([[G[i, j] for j in S] for i in S])
            M_S = mpmath.matrix([[M[i, j] for j in S] for i in S])
            fit = G_S**-1 * M_S
            scores.append(float(trace_r - sum(fit[k, k].real for k in range(len(S)))))
    return np.array(scores)


class TestDividedDifferenceRoute:
    @pytest.mark.parametrize("m", [8, 16])
    @pytest.mark.parametrize("gap", [1e-5, 1e-4, 1e-3, 1e-2])
    def test_gram_scores_match_an_extended_precision_reference(self, gap, m):
        # Three sources at 10 dB and a spurious root, each with a near twin:
        # 56 live subsets, so the Gram route runs.  The tolerance,
        # eps * _GRAM_BOUND * tr R (about 4.4e-13 tr R), was fixed before
        # any run from the certificate the route keeps a score under.
        base = [-1.0, 0.2, 1.3]
        cov = noisy_pipeline(m, 3, base, 10.0, 100, seed=0)[0]
        candidates = _twin_candidates(base + [2.4], gap)
        subsets, scores, qr = _score_subsets_and_route(
            candidates, cov, 3, min_subsets=estimators._GRAM_MIN_SUBSETS
        )
        gram = ~qr
        assert np.sum(gram) >= estimators._GRAM_MIN_SUBSETS
        reference = _extended_precision_scores(candidates, cov, subsets[gram])
        error = np.abs(scores[gram] - reference)
        trace_r = np.real(np.trace(cov))
        assert np.all(error <= np.finfo(float).eps * _GRAM_BOUND * trace_r)

    def test_twin_pairs_of_the_wide_geometry_take_the_gram_route(self):
        # m=16, r=4: the four sources, each with a twin 3e-4 to 1e-2 above
        # it, and six spurious roots, so 1001 subsets, 258 of them holding
        # a twin pair: before the divided differences all of those 258
        # took the QR route.
        angles = [-1.2, -0.3, 0.5, 1.4]
        cov = noisy_pipeline(16, 4, angles, 10.0, 200, seed=0)[0]
        candidates = np.sort(
            np.concatenate(
                [_twin_candidates(angles, [1e-3, 3e-3, 1e-2, 3e-4]), [-2.6, -0.8, 0.1, 0.9, 2.0, 2.9]]
            )
        )
        subsets, scores, qr = _score_subsets_and_route(
            candidates, cov, 4, min_subsets=estimators._GRAM_MIN_SUBSETS
        )
        holds_twins = np.any(np.diff(candidates[subsets], axis=1) < 0.02, axis=1)
        assert len(subsets) == 1001 and np.sum(holds_twins) == 258
        assert np.all(np.isfinite(scores))
        assert np.mean(~qr) >= 0.9
        assert np.mean(~qr[holds_twins]) >= 0.9

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(near_limit_candidates(), clustered_candidates(), twin_candidate_sets()))
    def test_the_certificate_keeps_only_subsets_far_inside_the_guard(self, drawn):
        # The Gram route keeps a score only where its bound on cond(A_S* A_S)
        # of the plain steering columns is within COND_LIMIT / 100, the
        # margin of every certified COND_LIMIT decision, so it can never
        # keep a subset the +inf rule rejects.
        candidates, cov, r = drawn
        subsets, scores, qr = _score_subsets_and_route(candidates, cov, r)
        kept = subsets[np.isfinite(scores) & ~qr]
        A = np.exp(1j * np.outer(np.arange(len(cov)), candidates))
        exact = [condition_number(hermitian_gram(A[:, S].conj().T)) for S in kept]
        assert all(c <= COND_LIMIT / 100 for c in exact)

    def test_pairs_past_the_guard_limit_stay_on_the_qr_route(self):
        # m=8: the pair 2e-6 apart has cond(A* A) of about 2e11, within
        # COND_LIMIT but past the certificate's COND_LIMIT / 100, so it is
        # scored by QR and stays finite; the pair 1e-7 apart (about 8e13)
        # scores +inf.
        candidates = np.array([-1.0, 0.2, 0.2 + 2e-6, 1.1, 2.0, 2.0 + 1e-7])
        cov = _CLUSTERED_COVS[0]
        subsets, scores, qr = _score_subsets_and_route(candidates, cov, 2)
        close = subsets.tolist().index([1, 2])
        coincident = subsets.tolist().index([4, 5])
        assert qr[close] and np.isfinite(scores[close])
        assert qr[coincident] and scores[coincident] == np.inf
        assert not np.all(qr)

    @pytest.mark.parametrize("which", range(len(_CLUSTERED_COVS)))
    def test_a_twin_pair_inside_the_margin_takes_the_more_accurate_route(self, which):
        # m=8: candidates 1.0 and 1.00002 have cond(A_S* A_S) of about 1.9e9,
        # inside COND_LIMIT / 100.  The Gram route scores the pair within
        # eps * _GRAM_BOUND * tr R of the 40-digit reference, while the
        # all-QR scoring of the same pair is off by more than 1e-12 tr R.
        candidates = np.array([-2.0, -0.9, 1.0, 1.00002, 2.6])
        cov = _CLUSTERED_COVS[which]
        subsets, scores, qr = _score_subsets_and_route(candidates, cov, 2)
        pair = subsets.tolist().index([2, 3])
        A = np.exp(1j * np.outer(np.arange(8), candidates[2:4]))
        assert 1e9 < condition_number(hermitian_gram(A.conj().T)) <= COND_LIMIT / 100
        assert not qr[pair]
        exact = _extended_precision_scores(candidates, cov, subsets[[pair]])[0]
        trace_r = np.real(np.trace(cov))
        assert abs(scores[pair] - exact) <= np.finfo(float).eps * _GRAM_BOUND * trace_r
        all_qr = _all_qr_score_subsets(candidates, cov, 2)[1][pair]
        assert abs(all_qr - exact) > 1e-12 * trace_r


def _assert_same_bits(routed, blocked):
    """The same subsets, QR routes and score bits (so the same +inf set)."""
    assert np.array_equal(routed[0], blocked[0])
    assert np.array_equal(routed[1].view(np.uint64), blocked[1].view(np.uint64))
    assert np.array_equal(routed[2], blocked[2])


class TestPrefixTree:
    # Each prefix is rebuilt inside every block of leaves that holds it, so
    # a score must not depend on how the leaves are split into blocks:
    # one leaf per block, 7, and the default.
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(near_limit_candidates(), clustered_candidates()))
    def test_scores_do_not_depend_on_the_leaf_block(self, drawn):
        candidates, cov, r = drawn
        routed = _score_subsets_and_route(candidates, cov, r)
        for leaves in (1, 7):
            with mock.patch.object(estimators, "_TREE_BLOCK", leaves * r * r):
                _assert_same_bits(routed, _score_subsets_and_route(candidates, cov, r))

    def test_wide_scores_do_not_depend_on_the_leaf_block(self):
        # The wide geometry of TestDividedDifferenceRoute: m=16, r=4, 1001
        # subsets in one default block, a quarter of them holding a twin pair.
        angles = [-1.2, -0.3, 0.5, 1.4]
        cov = noisy_pipeline(16, 4, angles, 10.0, 200, seed=0)[0]
        candidates = np.sort(
            np.concatenate(
                [_twin_candidates(angles, [1e-3, 3e-3, 1e-2, 3e-4]), [-2.6, -0.8, 0.1, 0.9, 2.0, 2.9]]
            )
        )
        routed = _score_subsets_and_route(candidates, cov, 4)
        assert estimators._TREE_BLOCK // 16 >= 1001
        for leaves in (1, 7):
            with mock.patch.object(estimators, "_TREE_BLOCK", leaves * 16):
                _assert_same_bits(routed, _score_subsets_and_route(candidates, cov, 4))


def _score_stack_and_routes(stack, cov, r, min_subsets):
    """``_score_subsets`` of ``stack``, and the QR-route rows of each set.

    The routes are keyed by the bytes of the steering matrix of each QR
    row's set, so equal sets share a key, as they share their routes.
    """
    routed = {}
    qr_scores = estimators._qr_scores

    def spy(A, G, R, sets, idx, trace_r):
        for s, row in zip(sets.tolist(), map(tuple, idx.tolist())):
            routed.setdefault(A[s].tobytes(), set()).add(row)
        return qr_scores(A, G, R, sets, idx, trace_r)

    with mock.patch.object(estimators, "_qr_scores", spy), mock.patch.object(
        estimators, "_GRAM_MIN_SUBSETS", min_subsets
    ):
        subsets, scores = _score_subsets(stack, cov, r)
    return subsets, scores, routed


def _assert_stack_scores_as_alone(stack, cov, r, min_subsets=None):
    """Each set of ``stack`` scores bit for bit, and down the same routes, as alone."""
    if min_subsets is None:
        min_subsets = estimators._GRAM_MIN_SUBSETS
    subsets, scores, routed = _score_stack_and_routes(stack, cov, r, min_subsets)
    assert scores.shape == (len(stack), len(subsets))
    alone_routes = {}
    for candidates, row in zip(stack, scores):
        alone_subsets, alone, route = _score_stack_and_routes(candidates[None], cov, r, min_subsets)
        assert alone_subsets is subsets
        assert np.array_equal(row.view(np.uint64), alone[0].view(np.uint64))
        alone_routes.update(route)
    assert routed == alone_routes


@st.composite
def candidate_stacks(draw):
    """A stack of 1 to 4 sorted candidate sets of one length K, on one
    covariance: scattered angles, clusters, near twins and pairs closer
    than 1e-12 (dead), so that sets take the Gram route, the QR route, or
    both."""
    m = draw(st.sampled_from([6, 8, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((m, m + 2)) + 1j * rng.standard_normal((m, m + 2))
    cov = X @ X.conj().T / (m + 2)
    K = draw(st.integers(2, 9))
    r = draw(st.integers(1, min(4, K)))
    gaps = st.sampled_from([0.0, 1e-13, 1e-7, 2e-6, 1e-4, 1e-2, 0.1])
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        base = list(rng.uniform(-3.0, 3.0, K))
        for k in draw(st.lists(st.integers(1, K - 1), max_size=3)):
            base[k] = base[k - 1] + draw(gaps)
        sets.append(np.sort(_wrap(base)))
    return np.array(sets), cov, r


class TestStackedScoring:
    # A stack of candidate sets on one covariance shares A, G, the Gram
    # basis and one walk of the prefix tree, and must score each set bit
    # for bit as alone, down the same routes.

    @settings(max_examples=150, deadline=None)
    @given(candidate_stacks(), st.sampled_from([1, None]))
    def test_each_set_scores_as_alone(self, drawn, min_subsets):
        stack, cov, r = drawn
        _assert_stack_scores_as_alone(stack, cov, r, min_subsets)

    @settings(max_examples=40, deadline=None)
    @given(candidate_stacks(), st.integers(1, 7))
    def test_split_tiled_blocks_score_as_alone(self, drawn, leaves):
        # A tiled block holds at most _TREE_BLOCK W and N entries across its
        # sets: here ``leaves`` rows or fewer in all, so the blocks split.
        stack, cov, r = drawn
        with mock.patch.object(estimators, "_TREE_BLOCK", leaves * r * r):
            _assert_stack_scores_as_alone(stack, cov, r, min_subsets=1)

    @settings(max_examples=40, deadline=None)
    @given(candidate_stacks())
    def test_mixed_qr_blocks_score_as_alone(self, drawn):
        # A QR block takes the next _SUBSET_BLOCK rows of the whole stack, so
        # it may hold the rows of several sets.  At the default route limit a
        # small set takes the QR route whole; at 1 the uncertified rows of
        # the Gram route do.
        stack, cov, r = drawn
        for min_subsets in (None, 1):
            for block in (1, 7, 64):
                with mock.patch.object(estimators, "_SUBSET_BLOCK", block):
                    _assert_stack_scores_as_alone(stack, cov, r, min_subsets)

    def test_a_stack_mixes_routes_and_dead_pairs(self):
        # m=8, K=8, r=3: 56 subsets, at least _GRAM_MIN_SUBSETS, so all three
        # sets walk the Gram route.  The scattered set certifies every
        # subset.  The dead set holds pairs and a triple under 1e-12 apart
        # (28 dead subsets): a subset with a twin pair of them scores +inf
        # on the Gram route, and one that holds only the triple's ends, no
        # twins, reaches the QR route's guard.  The clustered set sends its
        # cluster's subsets down the QR route.
        cov = _CLUSTERED_COVS[0]
        scattered = np.array([-2.9, -2.0, -1.1, -0.3, 0.4, 1.2, 2.1, 2.8])
        dead = np.array([-2.0, -1.0, -1.0 + 1e-13, 0.2, 0.2 + 1e-13, 0.2 + 2e-13, 1.5, 1.5 + 1e-13])
        clustered = np.array([-2.0, -0.9, 0.1, 0.18, 0.26, 1.2, 2.0, 2.6])
        stack = np.array([scattered, dead, clustered])
        _assert_stack_scores_as_alone(stack, cov, 3)
        subsets, scores, routed = _score_stack_and_routes(
            stack, cov, 3, estimators._GRAM_MIN_SUBSETS
        )
        close = np.diff(dead[subsets], axis=1) < 1e-12
        twin = close & (np.diff(subsets, axis=1) == 1)
        dead_rows = np.any(close, axis=1)
        twin_rows = np.any(twin, axis=1)
        assert np.sum(dead_rows) == 28 and np.sum(dead_rows & ~twin_rows) == 5
        assert np.all(np.isinf(scores[1][dead_rows]))
        assert np.all(np.isfinite(scores[1][~dead_rows]))
        key = [np.exp(1j * np.outer(np.arange(8), c)).tobytes() for c in stack]
        assert key[0] not in routed
        assert routed[key[1]] == set(map(tuple, subsets[dead_rows & ~twin_rows].tolist()))
        assert 0 < len(routed[key[2]]) < 56

    def test_a_set_below_the_gram_minimum_takes_the_qr_route_whole(self):
        # The paper geometry, 6 candidates and r = 2: 15 subsets, all on the
        # QR route, stacked with the same set shifted.
        cov = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=0)[0]
        candidates = np.array([-0.41, -0.4, 0.69, 0.7, 1.9, 2.8])
        stack = np.array([candidates, candidates + 0.05])
        _assert_stack_scores_as_alone(stack, cov, 2)
        subsets, _, routed = _score_stack_and_routes(stack, cov, 2, estimators._GRAM_MIN_SUBSETS)
        assert len(routed) == 2
        assert all(rows == set(map(tuple, subsets.tolist())) for rows in routed.values())

    @pytest.mark.parametrize("leaves", [1, 7, 500, 2048])
    def test_wide_stacks_score_as_alone(self, leaves):
        # m=16, r=4: the twin geometry of TestDividedDifferenceRoute and
        # three more sets, 1001 subsets each; 500 leaves split each tiled
        # block of 4 sets into 125-row tiles.
        angles = [-1.2, -0.3, 0.5, 1.4]
        cov = noisy_pipeline(16, 4, angles, 10.0, 200, seed=0)[0]
        twins = np.sort(
            np.concatenate(
                [_twin_candidates(angles, [1e-3, 3e-3, 1e-2, 3e-4]), [-2.6, -0.8, 0.1, 0.9, 2.0, 2.9]]
            )
        )
        rng = np.random.default_rng(5)
        stack = np.array([twins] + [np.sort(rng.uniform(-3.0, 3.0, 14)) for _ in range(3)])
        with mock.patch.object(estimators, "_TREE_BLOCK", leaves * 16):
            for size in range(1, 5):
                _assert_stack_scores_as_alone(stack[:size], cov, 4)

    def test_two_lengths_score_as_alone(self):
        # The stacks of two K groups, as ``estimate_many`` pools them.
        cov = _CLUSTERED_COVS[1]
        rng = np.random.default_rng(11)
        for K in (7, 9):
            stack = np.sort(rng.uniform(-3.0, 3.0, (3, K)), axis=1)
            _assert_stack_scores_as_alone(stack, cov, 3)


@st.composite
def near_coincident_stacks(draw):
    """A stack of 1 to 4 sorted candidate sets of one length K, on one
    covariance, with pairs and runs of candidates 0 to 2e-12 apart, and
    r < m; C(K, r) falls on either side of ``_GRAM_MIN_SUBSETS``."""
    m = draw(st.sampled_from([6, 8, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((m, m + 2)) + 1j * rng.standard_normal((m, m + 2))
    cov = X @ X.conj().T / (m + 2)
    K = draw(st.integers(2, 10))
    r = draw(st.integers(1, min(4, K, m - 1)))
    gaps = st.sampled_from([0.0, 1e-16, 1e-13, 5e-13, 1e-12, 2e-12])
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        base = list(rng.uniform(-3.0, 3.0, K))
        for k in draw(st.lists(st.integers(1, K - 1), max_size=4)):
            base[k] = base[k - 1] + draw(gaps)
        sets.append(np.sort(_wrap(base)))
    return np.array(sets), cov, r


# A coincident pair, a twin 1e-13 apart and a near twin 3e-4 apart (m=8,
# r=3, 56 subsets on the Gram route): without the twin's zero spread, its
# dead subsets are certified from a well-conditioned B_S and score finite.
_NEAR_COINCIDENT = np.array([[-2.0, -0.5, -0.5, 0.1, 0.1 + 1e-13, 0.1 + 3e-4, 1.2, 2.4]])


class TestOneInfRule:
    # Near-coincident candidates score +inf through the conditioning guard
    # alone, or through a zero-spread twin on the Gram route: the +inf set
    # of every set is that of the all-QR scoring, which still holds a rule
    # of its own for pairs under 1e-12 apart.
    @settings(max_examples=150, deadline=None)
    @given(near_coincident_stacks())
    @example((_NEAR_COINCIDENT, _CLUSTERED_COVS[0], 3))
    @example((_NEAR_COINCIDENT, _CLUSTERED_COVS[1], 3))
    @example((_NEAR_COINCIDENT, _CLUSTERED_COVS[2], 3))
    def test_the_inf_set_is_the_all_qr_scorings(self, drawn):
        stack, cov, r = drawn
        subsets, scores = _score_subsets(stack, cov, r)
        for candidates, row in zip(stack, scores):
            reference = _all_qr_score_subsets(candidates, cov, r)[1]
            assert np.array_equal(np.isinf(row), np.isinf(reference))
            close = np.any(np.diff(candidates[subsets], axis=1) < 1e-12, axis=1)
            assert np.all(np.isinf(row[close]))


@pytest.mark.parametrize("r, K, m", [(8, 19, 24), (4, 38, 36)])
def test_scoring_near_the_subset_limit_stays_small(r, K, m):
    # 75 582 and 73 815 subsets, most of them on the Gram route (64 888 of
    # the first, 73 809 of the second).  16 MB is the all-QR scoring's
    # measured 14.05 MB peak at (8, 19, 24), rounded up.
    assert math.comb(K, r) <= estimators._MAX_SUBSETS
    rng = np.random.default_rng(7)
    X = rng.standard_normal((m, 2 * m)) + 1j * rng.standard_normal((m, 2 * m))
    cov = X @ X.conj().T / (2 * m)
    candidates = np.sort(rng.uniform(-3.0, 3.0, K))
    # A cold call, whatever ran before: the cached index table and plans,
    # and the walk's workspace, count.
    estimators._subset_table.cache_clear()
    estimators._block_plan.cache_clear()
    estimators._WORKSPACE.buffers.clear()
    tracemalloc.start()
    try:
        _, scores = _score_set(candidates, cov, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(scores))
    assert peak <= 16e6


def test_the_scoring_copies_no_subset_sized_floats():
    # At r=8, K=19 (75 582 subsets) the scoring keeps the n x r index table
    # and one n-row mask of QR rows per set, and makes no n x r float copy
    # of the candidates.  8 MB is the whole-call peak measured when a live
    # mask was read off a K x K gap table (7.83 MB), rounded up; the n x r
    # index array alone is 4.84 MB.
    r, K, m = 8, 19, 24
    rng = np.random.default_rng(7)
    X = rng.standard_normal((m, 2 * m)) + 1j * rng.standard_normal((m, 2 * m))
    cov = X @ X.conj().T / (2 * m)
    candidates = np.sort(rng.uniform(-3.0, 3.0, K))
    # A cold call, whatever ran before: the cached index table and plans,
    # and the walk's workspace, count.
    estimators._subset_table.cache_clear()
    estimators._block_plan.cache_clear()
    estimators._WORKSPACE.buffers.clear()
    tracemalloc.start()
    try:
        _score_set(candidates, cov, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


class TestWalkWorkspace:
    # The Gram route's walk keeps its arrays in a per-thread workspace that
    # lives across calls; no score may depend on what it last held.

    def test_a_reused_workspace_scores_as_a_cold_one(self):
        # A wide stack (S=2, K=14, r=4: 2002 leaves in one block), an
        # ``estimate``-file-shaped set (S=1, K=9, r=3: 84 subsets) and a set
        # near the subset cap (r=8, K=19: 148 blocks of 512 leaves), every
        # set holding a pair 1e-13 apart.
        rng = np.random.default_rng(29)
        scorings = []
        for S, K, r, m in [(2, 14, 4, 16), (1, 9, 3, 10), (1, 19, 8, 24)]:
            X = rng.standard_normal((m, 2 * m)) + 1j * rng.standard_normal((m, 2 * m))
            stack = rng.uniform(-3.0, 3.0, (S, K))
            stack[:, 1] = stack[:, 0] + 1e-13
            scorings.append((np.sort(stack, axis=1), X @ X.conj().T / (2 * m), r))
        cold = []
        for stack, cov, r in scorings:
            estimators._WORKSPACE.buffers.clear()
            cold.append(_score_subsets(stack, cov, r)[1])
            assert np.any(np.isinf(cold[-1])) and np.any(np.isfinite(cold[-1]))
        # Smaller blocks after larger ones and back, so stale entries would show.
        for k in (2, 1, 0, 1, 2, 0, 0, 1):
            stack, cov, r = scorings[k]
            assert np.array_equal(_score_subsets(stack, cov, r)[1], cold[k])

    def test_threads_score_as_serial(self):
        # Four threads, each scoring its own two stacks in turn, 20 times,
        # switched as often as the interpreter allows.
        rng = np.random.default_rng(31)
        m = 16
        X = rng.standard_normal((m, 2 * m)) + 1j * rng.standard_normal((m, 2 * m))
        cov = X @ X.conj().T / (2 * m)
        work = [
            [(np.sort(rng.uniform(-3.0, 3.0, (S, K)), axis=1), r) for S, K, r in ((2, 14, 4), (1, 9, 3))]
            for _ in range(4)
        ]
        serial = [[_score_subsets(stack, cov, r)[1] for stack, r in stacks] for stacks in work]

        def score(stacks):
            got = []
            for k in range(20):
                stack, r = stacks[k % 2]
                got.append(_score_subsets(stack, cov, r)[1])
            return got

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(score, stacks) for stacks in work]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(switch)
        for expected, got in zip(serial, threaded):
            for k, scores in enumerate(got):
                assert np.array_equal(scores, expected[k % 2])

    def test_a_warm_scoring_takes_no_page_faults(self):
        # Before the workspace, each wide stacked scoring handed its walk's
        # arrays (about 1 MB) back to the OS and took 150 to 220 minor page
        # faults to map them again.  Counted in a fresh interpreter, as the
        # benchmark's: frees of large arrays earlier in a process can raise
        # glibc's trim threshold and hide the faults.
        pytest.importorskip("resource")
        probe = """
import resource
import numpy as np
from modepuma.estimators import _score_subsets
rng = np.random.default_rng(29)
X = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
cov = X @ X.conj().T / 32
stack = np.sort(rng.uniform(-3.0, 3.0, (2, 14)), axis=1)
_score_subsets(stack, cov, 4)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    _score_subsets(stack, cov, 4)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 10


class TestScoreSubsetsGuard:
    @settings(max_examples=300, deadline=None)
    @given(near_limit_candidates())
    def test_equals_eigvalsh_guarded_reference(self, drawn):
        candidates, cov, r = drawn
        _assert_matches_reference(
            _score_subsets_and_route(candidates, cov, r),
            _reference_score_subsets(candidates, cov, r),
            candidates,
            cov,
        )

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
        routed = _score_subsets_and_route(candidates, cov, 2)
        monkeypatch.undo()
        subsets, scores, _ = routed
        assert sum(checked) == 2
        assert np.sum(np.isfinite(scores)) == len(subsets) - 1
        _assert_matches_reference(
            routed, _reference_score_subsets(candidates, cov, 2), candidates, cov
        )


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


def _per_set_match_reference(est, tru):
    """match_angles of one set, written with np.sum and np.mean as a reference."""
    est, tru = np.sort(np.asarray(est, dtype=float)), np.sort(np.asarray(tru, dtype=float))
    n = tru.size
    shifts = (np.arange(n)[:, None] + np.arange(n)) % n
    errs = np.mod(est[shifts] - tru + np.pi, 2 * np.pi) - np.pi
    errs[errs == -np.pi] = np.pi
    err = errs[np.argmin(np.sum(errs**2, axis=1))]
    return err, float(np.sqrt(np.mean(err**2)))


class TestStackedMatch:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_a_stack_matches_each_set_alone(self, n):
        # The truth holds pi, and 0 from n = 2 on, so the estimates around pi
        # straddle +-pi once wrapped, and est - truth is exactly +-pi on some
        # shift (at n = 1, the zero set's only error is -pi, reported as pi).
        rng = np.random.default_rng(n)
        truth = np.sort(np.concatenate([[np.pi, 0.0][:n], rng.uniform(-np.pi, np.pi, max(n - 2, 0))]))
        noisy = truth + rng.normal(0, 0.05, (4, n))
        sets = [
            noisy[0],
            _wrap(noisy[1]),
            _wrap(noisy[2][::-1] + 0.02),
            rng.uniform(-np.pi, np.pi, n),
            truth.copy(),
            np.zeros(n),
            _wrap(truth + np.pi),
        ]
        errors, rmses = match_angles(np.array(sets), truth)
        assert errors.shape == (len(sets), n) and rmses.shape == (len(sets),)
        for k, angles in enumerate(sets):
            err, rmse = match_angles(angles, truth)
            ref_err, ref_rmse = _per_set_match_reference(angles, truth)
            assert errors[k].tobytes() == err.tobytes() == ref_err.tobytes()
            assert rmses[k].tobytes() == np.float64(rmse).tobytes() == np.float64(ref_rmse).tobytes()
            assert isinstance(rmse, float)
        if n == 1:
            assert errors[5].tolist() == [np.pi]

    def test_a_stack_of_another_length_is_rejected(self):
        with pytest.raises(ValidationError, match="equal length"):
            match_angles(np.zeros((3, 2)), [0.1, 0.2, 0.3])

    @pytest.mark.parametrize(
        "estimate", [[], np.zeros((3, 0))], ids=["empty-set", "stack-of-empty-sets"]
    )
    def test_empty_sets_are_rejected(self, estimate):
        with pytest.raises(ValidationError) as info:
            match_angles(estimate, [])
        assert str(info.value) == "angle sets must not be empty"


class TestEstimatorConfig:
    @pytest.mark.parametrize("solver", ["MUSIC", "MODEX", "mode"])
    @pytest.mark.parametrize("p_extra", [None, 2])
    def test_unknown_solver(self, solver, p_extra):
        with pytest.raises(ValidationError, match=f"no method runs solver '{solver}'"):
            EstimatorConfig(solver, p_extra)

    @pytest.mark.parametrize("solver", ["MODE", "PUMA"])
    def test_negative_p_extra(self, solver):
        with pytest.raises(ValidationError) as info:
            EstimatorConfig(solver, -1)
        assert str(info.value) == "need p_extra >= 0, got -1"

    def test_every_config_round_trips_through_its_label(self):
        configs = [
            EstimatorConfig(solver, p)
            for solver, extended in estimators._TOKENS
            for p in ((0, 1, 5) if extended else (None,))
        ]
        labels = [bench.method_label(config) for config in configs]
        assert len(set(labels)) == len(set(configs)) == len(configs) == 8
        for config, label in zip(configs, labels):
            assert bench.parse_method_token(label) == config
            assert bench.parse_method_token(label.upper()) == config

    def test_modex_at_p_zero_is_not_the_plain_solve(self):
        # ("MODE", 0) scores its one subset; ("MODE", None) scores none.
        plain, extended = EstimatorConfig("MODE"), EstimatorConfig("MODE", 0)
        assert plain != extended
        assert (bench.method_label(plain), bench.method_label(extended)) == ("mode", "modex:0")
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=0)
        assert estimate(cov, decomp, weight, 2, plain).candidate_log is None
        assert len(estimate(cov, decomp, weight, 2, extended).candidate_log) == 1

    @pytest.mark.parametrize("p_extra", [2.5, 2.0, True, False, "2"])
    def test_a_p_extra_that_is_not_an_integer(self, p_extra):
        with pytest.raises(ValidationError) as info:
            EstimatorConfig("PUMA", p_extra)
        assert str(info.value) == f"p_extra must be an integer, got {p_extra!r}"

    def test_a_numpy_integer_p_extra_is_that_integer(self):
        config, plain = EstimatorConfig("PUMA", np.int64(2)), EstimatorConfig("PUMA", 2)
        assert config == plain and hash(config) == hash(plain)
        assert bench.method_label(config) == "epuma:2"
        cov, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=0)
        got, want = (estimate(cov, decomp, weight, 2, c) for c in (config, plain))
        assert np.array_equal(got.angles, want.angles) and got.candidate_log == want.candidate_log

    def test_a_solver_without_a_token_is_rejected(self, monkeypatch):
        monkeypatch.setitem(estimators._SOLVERS, "IMODE", estimators._SOLVERS["MODE"])
        for p_extra in (None, 2):
            with pytest.raises(ValidationError, match="no method runs solver 'IMODE'"):
                EstimatorConfig("IMODE", p_extra)
        # A table row is all that names it.
        monkeypatch.setitem(estimators._TOKENS, ("IMODE", False), "imode")
        assert bench.parse_method_token("imode") == EstimatorConfig("IMODE")
        assert bench.method_label(EstimatorConfig("IMODE")) == "imode"


@pytest.mark.parametrize("q", range(1, 13))
def test_roots_nudge_a_zero_end_coefficient_on_a_copy(q):
    # The solve path's roots: an end coefficient at exactly 0 is read as
    # 1e-14 max |c|, and c itself is left as solved.  At q = 1 both ends
    # are all of c, so only one is zeroed there.
    rng = np.random.default_rng(300 + q)
    for ends in ((0,), (-1,), (0, -1))[: 2 if q == 1 else 3]:
        c = rng.standard_normal(q + 1) + 1j * rng.standard_normal(q + 1)
        c[list(ends)] = 0
        before = c.copy()
        nudged = c.copy()
        nudged[list(ends)] = 1e-14 * np.max(np.abs(c))
        angles = estimators._roots(c)
        assert angles.shape == (q,) and np.all(np.isfinite(angles))
        assert np.array_equal(angles.view(np.uint64), angles_from_coefs(nudged).view(np.uint64))
        assert np.array_equal(c.view(np.uint64), before.view(np.uint64))


@pytest.mark.parametrize("solver", [MODE, PUMA], ids=["MODE", "PUMA"])
@pytest.mark.parametrize(
    "r, message",
    [(-1, "need r >= 1, got -1"), (0, "need r >= 1, got 0"), (6, "need r < 6, got 6"), (7, "need r < 6, got 7")],
    ids=["-1", "0", "6", "7"],
)
def test_degree_out_of_range_is_a_validation_error(solver, r, message):
    # The solvers size their Omega = I start by m - r before the first
    # quadratic form, so the degree must be checked before that.
    cov, decomp, weight = noiseless_decomp(6, [-0.4, 0.7])
    with pytest.raises(ValidationError) as info:
        estimate(cov, decomp, weight, r, solver)
    assert str(info.value) == message


def _bits(x):
    """``x`` as comparable bits: arrays by dtype, shape and bytes, floats by hex, errors by class and text."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return tuple(map(_bits, x))
    if isinstance(x, Exception):
        return type(x), str(x)
    if dataclasses.is_dataclass(x):
        return type(x), tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    return x


def _integer_inputs():
    """Every integer size, degree and seed input: ``name -> (ints, in_range, call)``.

    ``call(value, v)`` runs the entry point at ``value``, which stands for
    the Python integer ``v`` (``v`` sizes what the value itself cannot).
    """
    phi = [-0.4, 0.7]
    cov, decomp, weight = noisy_pipeline(6, 2, phi, 10.0, 50, seed=0)
    configs = tuple(bench.parse_method_token(t) for t in ("mode", "puma", "modex:0", "epuma:1"))
    small, wide = st.integers(-3, 12), st.integers(-3, 40)
    seeds = st.one_of(small, st.sampled_from([2**63 - 1, 2**63 + 5, 2**64 - 1, 2**64, 2**64 + 3]))

    def scenario(m=6, r=2, seed=1):
        sc = Scenario(
            m=m, r=r, angles=phi, source_cov=np.eye(2), noise_power=0.5, n_snapshots=4, seed=seed,
        )
        return sc, simulate_snapshots(sc)

    def estimates(r):
        outcomes = estimators.estimate_many(cov, decomp, weight, r, configs)
        # A single run raises the error a batch holds.
        try:
            alone = estimate(cov, decomp, weight, r, configs[1])
        except (ValidationError, SingularityError, NumericalError) as exc:
            alone = exc
        return outcomes, alone

    return {
        "steering_matrix.m": (wide, lambda v: v >= 3, lambda m, v: array_model.steering_matrix(phi, m)),
        "toeplitz_annihilator.m": (
            wide,
            lambda v: v >= 3,
            lambda m, v: toeplitz_annihilator(array_model.coefs_from_angles(phi), m),
        ),
        "subspace_decomposition.r": (small, lambda v: 0 < v < 6, lambda r, v: subspace_decomposition(cov, r)),
        "quadratic_form_matrix.q": (
            small,
            lambda v: 0 < v < 6,
            lambda q, v: quadratic_form_matrix(decomp, weight, np.eye(max(6 - v, 1)), q),
        ),
        "estimate.r": (small, lambda v: 0 < v < 6, lambda r, v: estimates(r)),
        "Scenario.m": (wide, lambda v: v >= 3, lambda m, v: scenario(m=m)),
        "Scenario.r": (small, lambda v: v == 2, lambda r, v: scenario(r=r)),
        "Scenario.seed": (seeds, lambda v: 0 <= v < 2**64, lambda seed, v: scenario(seed=seed)),
        "EstimatorConfig.p_extra": (small, lambda v: v >= 0, lambda p, v: EstimatorConfig("PUMA", p)),
    }


_INTEGER_INPUTS = _integer_inputs()


@pytest.mark.parametrize("name", list(_INTEGER_INPUTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["int", "numpy", "float", "half", "bool", "str"]))
def test_every_size_degree_and_seed_is_an_integer_in_range(name, data, kind):
    # An in-range integer, numpy's included, gives the plain int's bits;
    # anything else is a ValidationError (DimensionError included) and
    # never another exception.  A batch fails each config on a bad r.
    ints, in_range, call = _INTEGER_INPUTS[name]
    v = data.draw(ints, label="v")
    if kind == "numpy":
        value = np.int64(v) if -(2**63) <= v < 2**63 else np.uint64(v) if 0 <= v < 2**64 else v
    else:
        value = {"int": v, "float": float(v), "half": v + 0.5, "bool": bool(v % 2), "str": str(v)}[kind]
    if kind in ("int", "numpy") and in_range(v):
        assert _bits(call(value, v)) == _bits(call(v, v))
        return
    if name == "estimate.r":
        outcomes, alone = call(value, v)
        assert len(outcomes) == 4 and all(isinstance(o, ValidationError) for o in outcomes)
        assert isinstance(alone, ValidationError)
        return
    with pytest.raises(ValidationError):
        call(value, v)


@st.composite
def gauge_instances(draw):
    """A signal subspace U (m x r), weights g >= 0, a degree q and a
    coefficient vector c whose roots are clustered or spread, on the unit
    circle or off it.  Many clustered roots on the circle, at m of 20 to
    36, make T T* near singular or past COND_LIMIT.  q runs up to m - 1, so
    r (m - q) < q, where S_11 is singular, is drawn too."""
    m = draw(st.one_of(st.integers(4, 12), st.sampled_from([20, 28, 36])))
    r = draw(st.integers(1, min(4, m - 1)))
    q = draw(st.integers(r, m - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, _ = np.linalg.qr(rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))
    g = rng.random(r) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    phi = rng.uniform(-np.pi, np.pi, q)
    if draw(st.booleans()):
        phi = phi[0] + draw(st.sampled_from([1e-5, 1e-3, 0.1])) * rng.standard_normal(q)
    radius = 1.0 + draw(st.sampled_from([0.0, -0.3, -0.01, 0.01, 0.3])) * rng.random(q)
    c = np.poly(radius * np.exp(1j * phi))[::-1]
    return SubspaceDecomposition(U, np.ones(r), 0.0), g, q, c


def _uncertified_inverse(T, what):
    """``guarded_inverse`` with no bound on cond(T T*): every block is checked."""
    return guarded_inverse(T, what)[0], np.inf


class TestGaugeCertificate:
    # PUMA's c_0 = 1 step reads cond(Q_11) <= cond(Omega) * cond(S_11) in
    # place of an eigenvalue solve where that is within COND_LIMIT / 100.
    @settings(max_examples=300, deadline=None)
    @given(gauge_instances())
    def test_a_certified_block_is_within_the_limit(self, drawn):
        decomp, g, q, c = drawn
        m, r = decomp.m, decomp.r
        S = quadratic_form_matrix(decomp, g, np.eye(m - q), q)
        base = condition_number(S[1:, 1:])
        if r * (m - q) < q:
            # S_11 = sum_l g_l Phi'_l* Phi'_l has rank at most r (m - q).
            assert base > COND_LIMIT
        try:
            omega, bound = guarded_inverse(toeplitz_annihilator(c, m), "T T*")
        except SingularityError:
            return
        assert bound >= condition_number(hermitian_gram(toeplitz_annihilator(c, m))) * (1 - 1e-3)
        if base * bound <= COND_LIMIT / 100:
            exact = condition_number(quadratic_form_matrix(decomp, g, omega, q)[1:, 1:])
            assert exact <= COND_LIMIT
            assert exact <= base * bound * (1 + 1e-6)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_the_certificate_changes_no_bit_of_the_solve(self, data):
        m = data.draw(st.integers(4, 12))
        r = data.draw(st.integers(1, min(3, m - 1)))
        if data.draw(st.booleans()):
            angles = 0.2 + 0.08 * np.arange(r)
        else:
            angles = np.linspace(-2.0, 2.0, r) if r > 1 else np.array([0.4])
        snr = data.draw(st.sampled_from([0.0, 10.0, 30.0]))
        T = data.draw(st.sampled_from([20, 100]))
        _, decomp, weight = noisy_pipeline(m, r, angles, snr, T, data.draw(st.integers(0, 999)))
        if data.draw(st.booleans()):
            # A negative weight voids the Rayleigh bound: no block is certified.
            weight = weight * np.where(np.arange(r) == r - 1, -1.0, 1.0)
        q = data.draw(st.integers(r, m - 1))
        for base in ("MODE", "PUMA"):
            solver = estimators._SOLVERS[base]
            got = estimators._reweighted_solve(decomp, weight, q, *solver)
            with mock.patch.object(estimators, "guarded_inverse", _uncertified_inverse):
                ref = estimators._reweighted_solve(decomp, weight, q, *solver)
            for got_bits, ref_bits in ((got[0], ref[0]), (np.array(got[3]), np.array(ref[3]))):
                assert np.array_equal(got_bits.view(np.uint64), ref_bits.view(np.uint64)), base
            assert got[1:3] == ref[1:3], base

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_the_certificate_changes_no_bit_of_a_started_solve(self, data):
        # The extended solve of Enhanced PUMA, from the plain fixed point padded with zeros.
        m = data.draw(st.integers(5, 12))
        r = data.draw(st.integers(1, min(3, m - 2)))
        angles = np.linspace(-2.0, 2.0, r) if r > 1 else np.array([0.4])
        snr = data.draw(st.sampled_from([0.0, 10.0, 30.0]))
        _, decomp, weight = noisy_pipeline(m, r, angles, snr, 50, data.draw(st.integers(0, 999)))
        q = data.draw(st.integers(r + 1, m - 1))
        c, *_ = estimators._reweighted_solve(decomp, weight, r, *estimators._SOLVERS["PUMA"])
        start = np.concatenate([c, np.zeros(q - r)])
        for tolerance in (np.inf, estimators._RELATIVE_TOLERANCE):
            got = estimators._reweighted_solve(decomp, weight, q, _gauge_step, tolerance, start=start)
            with mock.patch.object(estimators, "guarded_inverse", _uncertified_inverse):
                ref = estimators._reweighted_solve(
                    decomp, weight, q, _gauge_step, tolerance, start=start
                )
            assert np.array_equal(got[0].view(np.uint64), ref[0].view(np.uint64))
            assert got[1:] == ref[1:]

    def test_the_start_weight_enters_the_bound(self, monkeypatch):
        # A first weight reported at COND_LIMIT leaves the next block to its check.
        _, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], 10.0, 100, seed=0)
        c, *_ = estimators._reweighted_solve(decomp, weight, 2, *estimators._SOLVERS["PUMA"])
        start = np.concatenate([c, np.zeros(2)])
        start_t = toeplitz_annihilator(start, 6)
        checked = []
        condition_number = array_model.condition_number

        def counted(gram):
            checked.append(np.shape(gram))
            return condition_number(gram)

        def reported(T, what):
            omega, bound = guarded_inverse(T, what)
            return omega, COND_LIMIT if inflated and np.array_equal(T, start_t) else bound

        monkeypatch.setattr(estimators, "condition_number", counted)
        monkeypatch.setattr(estimators, "guarded_inverse", reported)
        for inflated, checks in ((False, 1), (True, 2)):
            checked.clear()
            estimators._reweighted_solve(decomp, weight, 4, _gauge_step, np.inf, start=start)
            assert checked == [(4, 4)] * checks, inflated

    def test_every_later_block_of_the_paper_solve_is_certified(self, monkeypatch):
        # Paper scenario at 0 and 10 dB: one eigenvalue check per loop, at
        # Omega = I, however many reweights follow.
        checked = []
        condition_number = array_model.condition_number

        def counted(gram):
            checked.append(np.shape(gram))
            return condition_number(gram)

        monkeypatch.setattr(estimators, "condition_number", counted)
        for seed in range(10):
            for snr in (0.0, 10.0):
                _, decomp, weight = noisy_pipeline(6, 2, [-0.4, 0.7], snr, 100, seed=seed)
                checked.clear()
                estimators._reweighted_solve(decomp, weight, 4, *estimators._SOLVERS["PUMA"])
                assert checked == [(4, 4)], (seed, snr)

    def test_every_block_of_the_wide_started_solve_is_certified(self, monkeypatch):
        # Enhanced PUMA's extended two-step on the wide scenario (m=16, r=4,
        # p=6), from the plain solve's c padded with zeros: S_11 is checked
        # once, and certifies the started block and the one after it.
        condition_number = array_model.condition_number
        checked = []

        def counted(gram):
            checked.append(np.shape(gram))
            return condition_number(gram)

        for seed in range(20):
            for snr in (0.0, 10.0):
                _, decomp, weight = noisy_pipeline(16, 4, [-1.2, -0.3, 0.5, 1.4], snr, 200, seed)
                c, *_ = estimators._reweighted_solve(decomp, weight, 4, *estimators._SOLVERS["PUMA"])
                start = np.concatenate([c, np.zeros(6)])
                checked.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(estimators, "condition_number", counted)
                    estimators._reweighted_solve(decomp, weight, 10, _gauge_step, np.inf, start=start)
                assert checked == [(10, 10)], (seed, snr)


def _live_rows_score_subsets(candidates, cov, r):
    """``_score_subsets`` as it walked before the cached plans: the live rows
    only, in blocks of live rows, each block's tree derived from its rows in
    the call; also the mask of the subsets sent down the QR route."""
    R = np.asarray(cov)
    m = R.shape[0]
    A = np.exp(1j * np.outer(np.arange(m), candidates))
    G = hermitian_gram(A.conj().T)
    subsets = _subset_table(len(candidates), r)
    live = np.all(np.diff(candidates[subsets], axis=1) >= 1e-12, axis=1)
    scores = np.full(len(subsets), np.inf)
    trace_r = np.real(np.trace(R))
    rest = np.flatnonzero(live)
    if rest.size >= estimators._GRAM_MIN_SUBSETS:
        G_B, M_B, spread2 = _gram_basis(A, candidates, R)
        block = max(1, estimators._TREE_BLOCK // (r * r))
        uncertified = []
        for start in range(0, rest.size, block):
            rows = rest[start : start + block]
            plan = _tree_plan(subsets[rows], len(G_B))
            score, certified = _tree_scores(G_B, M_B, spread2, plan, trace_r)
            scores[rows[certified]] = score[certified]
            uncertified.append(rows[~certified])
        rest = np.concatenate(uncertified)
    for start in range(0, rest.size, _SUBSET_BLOCK):
        rows = rest[start : start + _SUBSET_BLOCK]
        sets = np.zeros(rows.size, dtype=np.intp)
        scores[rows] = estimators._qr_scores(A[None], G[None], R, sets, subsets[rows], trace_r)
    qr = np.zeros(len(subsets), dtype=bool)
    qr[rest] = True
    return subsets, scores, qr


def _assert_walks_agree(candidates, cov, r, min_subsets=1):
    """The same subsets and score bits as the walk over live rows, and the
    same routes on the live rows, the rows it scored: a dead row may reach
    the QR route's guard, and scores +inf there."""
    with mock.patch.object(estimators, "_GRAM_MIN_SUBSETS", min_subsets):
        reference = _live_rows_score_subsets(candidates, cov, r)
    routed = _score_subsets_and_route(candidates, cov, r, min_subsets)
    subsets, scores, qr = routed
    live = np.all(np.diff(candidates[subsets], axis=1) >= 1e-12, axis=1)
    assert np.array_equal(subsets, reference[0])
    assert np.array_equal(scores.view(np.uint64), reference[1].view(np.uint64))
    assert np.array_equal(qr[live], reference[2][live])
    return routed


class TestTreePlan:
    # The cached plans walk every row of fixed blocks of the subset table,
    # dead rows included; a live row's bits and route, and a dead row's
    # +inf, must be those of the walk over live rows alone.
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(near_limit_candidates(), clustered_candidates(), twin_candidate_sets()))
    def test_matches_the_walk_over_live_rows(self, drawn):
        _assert_walks_agree(*drawn)

    def test_coincident_candidates_leave_dead_rows(self):
        cov = _CLUSTERED_COVS[0]
        candidates = np.array([-2.0, -0.5, -0.5, 0.1, 0.1 + 1e-13, 0.1 + 3e-4, 1.2, 2.4])
        subsets, scores, _ = _assert_walks_agree(candidates, cov, 3)
        dead = np.any(np.diff(candidates[subsets], axis=1) < 1e-12, axis=1)
        assert 0 < np.sum(dead) < len(subsets)
        assert np.all(np.isinf(scores[dead])) and np.all(np.isfinite(scores[~dead]))

    def test_a_table_of_several_blocks(self):
        # r = 8, K = 13: 1287 rows in blocks of 512, with a dead pair and two twins.
        rng = np.random.default_rng(3)
        X = rng.standard_normal((16, 18)) + 1j * rng.standard_normal((16, 18))
        cov = X @ X.conj().T / 18
        pairs = [0.5, 0.5, 1.5, 1.5 + 1e-3, -1.0, -1.0 + 2e-5]
        candidates = np.sort(np.concatenate([rng.uniform(-3.0, 3.0, 7), pairs]))
        assert len(_subset_table(13, 8)) == 1287 and estimators._TREE_BLOCK // 64 == 512
        _, scores, qr = _assert_walks_agree(
            candidates, cov, 8, min_subsets=estimators._GRAM_MIN_SUBSETS
        )
        gram = np.isfinite(scores) & ~qr
        assert np.any(np.isinf(scores)) and np.any(gram) and np.any(qr)

    @pytest.mark.parametrize("seed", range(3))
    def test_the_recorded_file_shape(self, seed):
        # K = 9, r = 3: the 84 subsets of each estimate-file scoring, with
        # the default route limit.
        cov, decomp, weight = noisy_pipeline(10, 3, [-0.9, 0.15, 1.2], 10.0, 2000, seed=seed)
        for base in ("MODE", "PUMA"):
            solver = estimators._SOLVERS[base]
            plain = estimators._roots(estimators._reweighted_solve(decomp, weight, 3, *solver)[0])
            extra = estimators._roots(estimators._reweighted_solve(decomp, weight, 6, *solver)[0])
            candidates = np.sort(np.concatenate([plain, extra]))
            _assert_walks_agree(candidates, cov, 3, min_subsets=estimators._GRAM_MIN_SUBSETS)

    def test_cached_plans_are_read_only_and_equal_to_a_fresh_build(self):
        assert _block_plan.cache_info().maxsize is not None
        for K, r, start, stop in [(14, 4, 0, 1001), (13, 8, 512, 1024), (9, 3, 0, 84)]:
            plan = _block_plan(K, r, start, stop)
            assert _block_plan(K, r, start, stop) is plan
            pair, twin, levels = plan
            fresh = _tree_plan(_subset_table(K, r)[start:stop], 2 * K - 1)
            arrays = [pair, twin, *itertools.chain.from_iterable(levels)]
            fresh_arrays = [fresh[0], fresh[1], *itertools.chain.from_iterable(fresh[2])]
            assert len(levels) == r and len(arrays) == len(fresh_arrays)
            for got, built in zip(arrays, fresh_arrays):
                assert got.tobytes() == built.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    got[(0,) * got.ndim] = 0
