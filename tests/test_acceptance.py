"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``)."""

import subprocess
import sys
import time

import numpy as np
import pytest

import modepuma as mp
from modepuma.bench import (
    _random_instance,
    noise_power_for_snr,
    random_angle_set,
    trial_seed,
)
from modepuma.criteria import (
    trace_vec_identity_residual,
    vec_matrix_identity_residual,
)

TRUTH = np.array([-0.4, 0.7])


def report(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def noisy_pipeline(m, r, angles, snr_db, T, seed):
    sc = mp.Scenario(
        m=m, r=r, angles=angles, source_cov=np.eye(r),
        noise_power=noise_power_for_snr(np.eye(r), r, snr_db),
        n_snapshots=T, seed=seed,
    )
    cov = mp.sample_covariance(mp.simulate_snapshots(sc))
    decomp = mp.subspace_decomposition(cov, r)
    return cov, decomp, mp.signal_weight(decomp)


def test_1_criterion_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    checked = 0
    while checked < 1000:
        m, r, c, decomp, weight = _random_instance(rng, max_m=12, max_r=4)
        try:
            vm = mp.v_mode(c, decomp, weight).value
            vp = mp.v_puma(c, decomp, weight).value
        except mp.SingularityError:
            continue
        checked += 1
        worst = max(worst, abs(vp - vm) / max(1.0, vm))
    elapsed = time.time() - t0
    report(
        "1 equivalence V_PUMA = V_MODE",
        worst <= 1e-10 and elapsed <= 30.0,
        f"max relative deviation {worst:.3e} over 1000 instances in {elapsed:.1f}s",
    )


def test_2_projector_identity_and_annihilation():
    rng = np.random.default_rng(2)
    worst_proj = 0.0
    worst_annih = 0.0
    for _ in range(200):
        m = int(rng.integers(3, 11))
        r = int(rng.integers(1, min(4, m - 1) + 1))
        phi = random_angle_set(rng, r, min_separation=0.05)
        A = mp.steering_matrix(phi, m)
        T = mp.toeplitz_annihilator(mp.coefs_from_angles(phi), m)
        worst_annih = max(worst_annih, float(np.max(np.abs(T @ A))))
        diff = mp.projector_from_steering(A) - mp.projector_from_annihilator(T)
        worst_proj = max(worst_proj, float(np.linalg.norm(diff)))
    report(
        "2 projector identity",
        worst_proj <= 1e-10 and worst_annih <= 1e-12,
        f"max ||P_A - P_T||_F {worst_proj:.3e}, max |T A| {worst_annih:.3e}",
    )


def test_3_vec_trace_lemmas():
    rng = np.random.default_rng(3)
    worst_vec = 0.0
    worst_trace = 0.0
    for _ in range(200):
        dims = rng.integers(2, 7, size=4)
        mats = [
            rng.standard_normal((dims[i], dims[i + 1]))
            + 1j * rng.standard_normal((dims[i], dims[i + 1]))
            for i in range(3)
        ]
        worst_vec = max(worst_vec, vec_matrix_identity_residual(*mats))
        X = rng.standard_normal((dims[0], dims[1])) + 1j * rng.standard_normal(
            (dims[0], dims[1])
        )
        Y = rng.standard_normal((dims[0], dims[1])) + 1j * rng.standard_normal(
            (dims[0], dims[1])
        )
        worst_trace = max(worst_trace, trace_vec_identity_residual(X, Y))
    report(
        "3 vec/trace lemmas",
        worst_vec <= 1e-12 and worst_trace <= 1e-12,
        f"vec residual {worst_vec:.3e}, trace residual {worst_trace:.3e}",
    )


def test_4_gauge_invariance():
    rng = np.random.default_rng(4)
    worst = 0.0
    checked = 0
    while checked < 100:
        m, r, c, decomp, weight = _random_instance(rng, max_m=10, max_r=3)
        alpha = rng.standard_normal() + 1j * rng.standard_normal()
        if abs(alpha) < 1e-3:
            continue
        cov = np.eye(m, dtype=complex) * 2.0
        try:
            pairs = [
                (mp.v_ml_coefs(c, cov).value, mp.v_ml_coefs(alpha * c, cov).value),
                (
                    mp.v_mode(c, decomp, weight).value,
                    mp.v_mode(alpha * c, decomp, weight).value,
                ),
                (
                    mp.v_puma(c, decomp, weight).value,
                    mp.v_puma(alpha * c, decomp, weight).value,
                ),
            ]
        except mp.SingularityError:
            continue
        checked += 1
        for base, scaled in pairs:
            worst = max(worst, abs(scaled - base) / max(1.0, abs(base)))
    report(
        "4 gauge invariance",
        worst <= 1e-10,
        f"max relative change {worst:.3e} over 100 scalings",
    )


@pytest.mark.parametrize("m,angles", [(6, (-0.4, 0.7)), (8, (-0.9, 0.3, 1.4))])
def test_5_exact_recovery(m, angles):
    r = len(angles)
    sc = mp.Scenario(
        m=m, r=r, angles=angles, source_cov=np.eye(r),
        noise_power=0.0, n_snapshots=1, seed=0,
    )
    cov = mp.true_covariance(sc)
    decomp = mp.subspace_decomposition(cov, r)
    weight = mp.signal_weight(decomp)
    results = {
        "MODE": mp.estimate(cov, decomp, weight, r, mp.EstimatorConfig("MODE")),
        "PUMA": mp.estimate(cov, decomp, weight, r, mp.EstimatorConfig("PUMA")),
        "MODEX": mp.estimate(
            cov, decomp, weight, r, mp.EstimatorConfig("MODE", 2)
        ),
    }
    worst_angle = max(
        float(np.max(np.abs(res.angles - np.asarray(angles)))) for res in results.values()
    )
    worst_crit = max(abs(res.criterion_value) for res in results.values())
    report(
        f"5 exact recovery (m={m}, r={r})",
        worst_angle <= 1e-6 and worst_crit <= 1e-10,
        f"max angle error {worst_angle:.3e} rad, max criterion {worst_crit:.3e}",
    )


def test_6_statistical_consistency():
    t0 = time.time()
    rmse = {}
    mode, puma = mp.EstimatorConfig("MODE"), mp.EstimatorConfig("PUMA")
    for T in (100, 400):
        se = {"mode": [], "puma": []}
        for trial in range(500):
            cov, decomp, weight = noisy_pipeline(
                6, 2, TRUTH, 10.0, T, trial_seed(2026, 0, T, trial)
            )
            _, a = mp.match_angles(mp.estimate(cov, decomp, weight, 2, mode).angles, TRUTH)
            _, b = mp.match_angles(mp.estimate(cov, decomp, weight, 2, puma).angles, TRUTH)
            se["mode"].append(a**2)
            se["puma"].append(b**2)
        rmse[T] = {k: float(np.sqrt(np.mean(v))) for k, v in se.items()}
    ratio = rmse[100]["mode"] / rmse[400]["mode"]
    puma_gap = abs(rmse[400]["puma"] - rmse[400]["mode"]) / rmse[400]["mode"]
    puma_gap = max(puma_gap, abs(rmse[100]["puma"] - rmse[100]["mode"]) / rmse[100]["mode"])
    elapsed = time.time() - t0
    report(
        "6 statistical consistency",
        1.6 <= ratio <= 2.6 and puma_gap <= 0.10 and elapsed <= 300.0,
        f"RMSE(T=100)/RMSE(T=400) = {ratio:.2f}, max |PUMA-MODE| gap "
        f"{puma_gap:.3f}, {elapsed:.0f}s",
    )


def test_7_modex_threshold_behavior():
    cfg = mp.EstimatorConfig("MODE", 2)
    mode = mp.EstimatorConfig("MODE")
    succ_mode = 0
    succ_modex = 0
    for trial in range(500):
        cov, decomp, weight = noisy_pipeline(
            6, 2, TRUTH, 0.0, 50, trial_seed(777, 0, 0, trial)
        )
        e, _ = mp.match_angles(mp.estimate(cov, decomp, weight, 2, mode).angles, TRUTH)
        succ_mode += bool(np.all(np.abs(e) <= 0.1))
        try:
            e, _ = mp.match_angles(mp.estimate(cov, decomp, weight, 2, cfg).angles, TRUTH)
            succ_modex += bool(np.all(np.abs(e) <= 0.1))
        except (mp.SingularityError, mp.NumericalError):
            pass
    report(
        "7 MODEX threshold behavior",
        succ_modex >= succ_mode,
        f"success MODEX {succ_modex}/500 vs MODE {succ_mode}/500 at 0.1 rad",
    )


def test_8_identity_covariance_constant():
    rng = np.random.default_rng(8)
    worst = 0.0
    checked = 0
    while checked < 100:
        m = int(rng.integers(3, 13))
        q = int(rng.integers(1, m))
        c = rng.standard_normal(q + 1) + 1j * rng.standard_normal(q + 1)
        cov = np.eye(m, dtype=complex)
        try:
            val = mp.v_ml_coefs(c, cov).value
        except mp.SingularityError:
            continue
        checked += 1
        worst = max(worst, abs(val - (m - q)))
    report(
        "8 identity-covariance constant",
        worst <= 1e-12,
        f"max |V - (m - q)| = {worst:.3e} over 100 instances",
    )


def test_9_mc_determinism(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "m = 6\nr = 2\nangles = -0.4, 0.7\nn_snapshots = 50\n"
        "snr_db_list = 0, 10\nsnapshots_list = 50\nmethods = mode, modex:2\n"
        "n_trials = 20\nbase_seed = 5\n"
    )
    bodies = []
    for name, jobs in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "8")):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "modepuma.cli", "mc",
                "--config", str(cfg), "--out", str(out), "--jobs", jobs,
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        bodies.append(out.read_bytes())
    report(
        "9 Monte Carlo determinism",
        bodies[0] == bodies[1] == bodies[2],
        "byte-identical CSV across repeated runs and --jobs 1 vs 8",
    )
