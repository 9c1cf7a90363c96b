"""
Monte Carlo sweeps and numerical property verification.

The sweep runner drives the full pipeline (simulate -> covariance ->
eigendecomposition -> estimate -> angle matching) over a grid of SNR and
snapshot-count cells, writing one CSV row per (method, trial) plus one
aggregate row per (cell, method).  Each trial is simulated once, from a
seed derived deterministically from the base seed, and every method is
fitted to that one sample covariance, so method comparisons are paired.

SNR convention: SNR_dB = 10 log10( tr(P) / (r sigma^2) ), i.e. average
per-source power over noise power.
"""

import itertools
import numbers
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .array_model import (
    as_angles,
    coefs_from_angles,
    projector_from_annihilator,
    projector_from_steering,
    steering_matrix,
    toeplitz_annihilator,
)
from .criteria import (
    trace_vec_identity_residual,
    v_ml_coefs,
    v_mode,
    v_puma,
    vec_matrix_identity_residual,
)
from .errors import SingularityError, ValidationError, check_count, read_text_lines
from .estimators import (
    _TOKENS,
    _TYPED_ERRORS,
    EstimatorConfig,
    check_modex_size,
    estimate_many,
    match_angles,
)
from .sample_stats import (
    Scenario,
    SubspaceDecomposition,
    check_covariance_size,
    check_draw_size,
    check_source_cov,
    sample_covariance,
    signal_weight,
    simulate_snapshots,
    subspace_decomposition,
)

CSV_COLUMNS = (
    "method",
    "m",
    "r",
    "snr_db",
    "n_snapshots",
    "trial_index",
    "rmse_rad",
    "criterion_value",
    "converged",
    "success",
    "wall_time_ms",
)

DEFAULT_SUCCESS_THRESHOLD = 0.1


@dataclass(frozen=True)
class SweepSpec:
    base: Scenario
    snr_db_list: tuple
    snapshots_list: tuple
    methods: tuple  # EstimatorConfig instances
    n_trials: int
    base_seed: int

    def __post_init__(self):
        if not self.snr_db_list or not self.snapshots_list or not self.methods:
            raise ValidationError("sweep lists must be non-empty")
        check_count("n_trials", self.n_trials, 1)
        check_count("base_seed", self.base_seed, 0)
        for key in ("snr_db_list", "snapshots_list", "methods"):
            try:
                _check_list(key, getattr(self, key), (self.base.m, self.base.r))
            except ValueError as exc:
                raise ValidationError(f"bad {key}: {exc}") from None
        check_covariance_size(self.base.m)


def noise_power_for_snr(source_cov, r, snr_db):
    """sigma^2 = tr(P) / (r * 10^(SNR/10)).

    An SNR past float range, or a sigma^2 that overflows (a huge tr(P) at a
    low SNR), is a ValidationError naming the SNR.
    """
    with np.errstate(over="ignore"):  # an infinite tr(P) gives an infinite sigma^2
        total = float(np.real(np.trace(np.asarray(source_cov))))
    try:
        sigma2 = total / (r * 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(f"SNR {snr_db} dB is out of float range") from exc
    if not np.isfinite(sigma2):
        raise ValidationError(
            f"SNR {snr_db} dB with source_cov trace {total:g} gives a noise power "
            "out of float range"
        )
    return sigma2


def trial_seed(base_seed, snr_index, snapshots_index, trial_index):
    """Per-trial scenario seed, independent of the estimation method."""
    ss = np.random.SeedSequence([int(base_seed), snr_index, snapshots_index, trial_index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def method_label(config):
    """The config's ``_TOKENS`` name, with ``:<p>`` for MODEX: ``parse_method_token``'s inverse."""
    tag = _TOKENS[config.solver, config.p_extra is not None]
    return tag if config.p_extra is None else f"{tag}:{config.p_extra}"


# Tasks a worker takes per hand-out under ``run_sweep(jobs > 1)``.
_TASKS_PER_CHUNK = 8


def _run_trial(args):
    """Simulate one trial and run every method on it.

    Returns one ``(rmse, criterion, converged, success, wall_ms)`` outcome
    per method; ``wall_ms`` is the shared simulate, covariance,
    decomposition and signal-weight time plus that method's own estimate
    and angle matching, measured always and written by ``run_sweep`` only
    with timing on.  The methods run in one ``estimate_many`` call, so a
    MODEX method's own estimate counts the whole stacked subset scoring it
    shared and the degree-r solve it shared with its base method, as every
    row counts the shared simulation.  A typed error in
    the shared step fails every method's row of the trial; one in a
    method's estimate fails that method's row.  Neither stops the sweep.
    """
    scenario, methods, threshold = args
    failed = (float("nan"), float("nan"), False, False)
    t0 = time.perf_counter()
    try:
        cov = sample_covariance(simulate_snapshots(scenario))
        decomp = subspace_decomposition(cov, scenario.r)
        weight = signal_weight(decomp)
    except _TYPED_ERRORS:
        wall_ms = (time.perf_counter() - t0) * 1e3
        return [failed + (wall_ms,)] * len(methods)
    shared = time.perf_counter() - t0
    own = []
    results = estimate_many(cov, decomp, weight, scenario.r, methods, timings=own)
    outcomes = []
    for result, seconds in zip(results, own):
        t1 = time.perf_counter()
        row = failed
        if not isinstance(result, Exception):
            # Every result holds r angles, so match_angles cannot fail.
            errors, rmse = match_angles(result.angles, scenario.angles)
            success = bool(np.all(np.abs(errors) <= threshold))
            row = (rmse, result.criterion_value, result.converged, success)
        wall_ms = (shared + seconds + time.perf_counter() - t1) * 1e3
        outcomes.append(row + (wall_ms,))
    return outcomes


def run_sweep(sweep, success_threshold=DEFAULT_SUCCESS_THRESHOLD, jobs=1, timing=False):
    """Execute the full sweep; returns a list of CSV rows (tuples of str).

    One task per (cell, trial) simulates the snapshots once and runs every
    method on them, so methods are paired by construction.  Rows are
    ordered by (snr, snapshot count, method, trial); each (cell, method)
    is followed by one aggregate row with trial_index = -1 carrying the
    RMSE, mean criterion value, convergence rate, and success rate.
    ``timing`` fills each trial row's wall_time_ms; without it, and on
    every aggregate row, that column is empty.  ``jobs > 1`` runs the
    tasks in a pool of at most ``jobs`` processes, and no more than there
    are chunks of 8 tasks or usable CPUs; the rows are the same whatever
    ``jobs``.  A ``success_threshold`` that is not a real number, or is
    NaN or negative, is a ValidationError; so is a ``jobs`` that fails
    ``check_count`` at 1, and an SNR whose noise power is past float range
    (``noise_power_for_snr``), for a spec built in code.
    """
    if not isinstance(success_threshold, numbers.Real):
        raise ValidationError(
            f"success threshold must be a real number, got {success_threshold!r}"
        )
    if not success_threshold >= 0:
        raise ValidationError(f"success threshold must be >= 0, got {success_threshold}")
    check_count("jobs", jobs, 1)
    base = sweep.base
    cells = list(
        itertools.product(enumerate(sweep.snr_db_list), enumerate(sweep.snapshots_list))
    )
    tasks = []
    for (si, snr), (ti, T) in cells:
        sigma2 = noise_power_for_snr(base.source_cov, base.r, snr)
        for trial in range(sweep.n_trials):
            scenario = replace(
                base,
                noise_power=sigma2,
                n_snapshots=T,
                seed=trial_seed(sweep.base_seed, si, ti, trial),
            )
            tasks.append((scenario, sweep.methods, success_threshold))

    # A process pool starts all of its workers at once, so it is sized to the
    # chunks there are and the CPUs this process may run on; with one worker
    # the sweep runs here, and concurrent.futures is never imported.
    workers = 1
    if jobs > 1:
        workers = min(jobs, -(-len(tasks) // _TASKS_PER_CHUNK), _usable_cpus())
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial, tasks, chunksize=_TASKS_PER_CHUNK))
    else:
        outcomes = [_run_trial(t) for t in tasks]

    rows = []
    # Each repeated column is formatted once, so the rows share its string,
    # and each trial value passes through ``shared``, so equal ones (a MODEX
    # row that picked its base's roots has that row's RMSE) are one string.
    labels = [method_label(config) for config in sweep.methods]
    trial_ids = [str(trial) for trial in range(sweep.n_trials)]
    flags = ("0", "1")
    shared = {}
    # Consecutive runs of n_trials outcomes belong to one cell.
    per_cell = zip(*[iter(outcomes)] * sweep.n_trials)
    for ((_, snr), (_, T)), cell in zip(cells, per_cell):
        cell_columns = (str(base.m), str(base.r), _fmt(snr), str(T))
        for label, trials in zip(labels, zip(*cell)):
            prefix = (label,) + cell_columns
            for trial_id, (rmse, crit, conv, succ, wall) in zip(trial_ids, trials):
                values = (_fmt(rmse), _fmt(crit), f"{wall:.3f}" if timing else "")
                rmse_s, crit_s, wall_s = (shared.setdefault(v, v) for v in values)
                rows.append(
                    prefix + (trial_id, rmse_s, crit_s, flags[int(conv)], flags[int(succ)], wall_s)
                )
            rows.append(prefix + ("-1",) + _aggregate(trials))
    return rows


def _usable_cpus():
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _aggregate(trials):
    """RMSE, mean criterion, convergence and success rates of one (cell, method)."""
    rmses = np.array([t[0] for t in trials])
    crits = np.array([t[1] for t in trials])
    finite = np.isfinite(rmses)
    cell_rmse = float(np.sqrt(np.mean(rmses[finite] ** 2))) if finite.any() else float("nan")
    cell_crit = float(np.mean(crits[np.isfinite(crits)])) if np.isfinite(crits).any() else float("nan")
    return (
        _fmt(cell_rmse),
        _fmt(cell_crit),
        _fmt(np.mean([t[2] for t in trials])),
        _fmt(np.mean([t[3] for t in trials])),
        "",
    )


def _fmt(x):
    # repr of a float is the shortest exact round-trip form, so aggregate
    # rows can be recomputed exactly from the per-trial rows.
    return repr(float(x))


def write_csv(path, rows, sweep, success_threshold):
    """Write sweep rows with a deterministic metadata header."""
    base = sweep.base
    with open(path, "w") as fh:
        fh.write("# snr_db = 10*log10(tr(P)/(r*sigma^2)); aggregate rows have trial_index=-1\n")
        fh.write(
            f"# m={base.m} r={base.r} n_trials={sweep.n_trials} "
            f"base_seed={sweep.base_seed} success_threshold={success_threshold}\n"
        )
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# Sweep configuration file: "key = value" lines, '#' comments.
# ---------------------------------------------------------------------------

_KNOWN_KEYS = {
    "m",
    "r",
    "angles",
    "source_cov",
    "n_snapshots",
    "snr_db_list",
    "snapshots_list",
    "methods",
    "n_trials",
    "base_seed",
}


def parse_method_token(token):
    """mode | puma | modex:<p> | epuma:<p>  ->  EstimatorConfig, through ``_TOKENS``."""
    token = token.strip().lower()
    tag, sep, p = token.partition(":")
    for (solver, extended), name in _TOKENS.items():
        if name == tag and extended == bool(sep):
            if not extended:
                return EstimatorConfig(solver)
            try:
                p_extra = int(p)
            except ValueError:
                raise ValidationError(f"bad method token {token!r}")
            return EstimatorConfig(solver, p_extra)
    raise ValidationError(f"unknown method {token!r}")


def _finite_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {text.strip()!r}")
    return value


def _check_list(key, values, shape=None):
    """The non-empty sweep list ``key``'s ``values``, or a ValueError naming its first bad entry.

    A repeated entry would write two sets of rows under one key.  A
    snapshot count must pass ``check_count`` at 1, and a count and a
    method must fit the scenario's ``shape``, its (m, r): every trial of a
    simulation that ``check_draw_size`` rejects, or of a MODEX size that
    ``check_modex_size`` rejects, would fail.
    """
    label = method_label if key == "methods" else repr
    for k, value in enumerate(values):
        if value in values[:k]:
            raise ValueError(f"repeated entry {label(value)}")
    if key == "snapshots_list":
        for T in values:
            check_count("a snapshot count", T, 1)
        check_draw_size(*shape, max(values))
    if key == "methods":
        for config in values:
            if config.p_extra is not None:
                check_modex_size(*shape, config.p_extra)
    return values


def parse_sweep_config(path):
    """Parse a sweep config file into a SweepSpec.

    A value that the spec, its scenario or ``run_sweep`` would reject is a
    ValidationError naming its ``path:line``: the counts (``check_count``),
    the scenario's rules, the list entries (``_check_list``) and an SNR
    whose noise power is past float range (``noise_power_for_snr``).
    """
    raw = {}
    lines = {}
    for lineno, line in enumerate(read_text_lines(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
        lines[key] = lineno
    missing = _KNOWN_KEYS - {"source_cov"} - set(raw)
    if missing:
        raise ValidationError(f"{path}: missing keys: {sorted(missing)}")

    def parsed(key, parse):
        try:
            return parse(raw[key])
        except ValueError as exc:  # ValidationError included
            raise ValidationError(f"{path}:{lines[key]}: bad {key} value: {exc}") from exc

    floats = lambda s: tuple(_finite_float(v) for v in s.split(","))

    m = parsed("m", lambda s: check_count("m", int(s), 2))
    r = parsed("r", lambda s: check_count("r", int(s), 1, m))
    if raw.get("source_cov", "identity").strip().lower() == "identity":
        P = np.eye(r, dtype=complex)
    else:
        diag = parsed("source_cov", floats)
        if len(diag) != r:
            raise ValidationError(
                f"{path}:{lines['source_cov']}: source_cov needs {r} diagonal entries"
            )
        P = parsed("source_cov", lambda s: check_source_cov(np.diag(diag), r))
    snapshots_list = parsed(
        "snapshots_list",
        lambda s: _check_list("snapshots_list", tuple(int(v) for v in s.split(",")), (m, r)),
    )
    # After the draw cap, whose messages name the snapshots_list line.
    parsed("m", lambda s: check_covariance_size(m))
    angles = parsed("angles", lambda s: as_angles(floats(s)))
    if angles.size != r:
        raise ValidationError(f"{path}:{lines['angles']}: angles needs {r} entries, got {angles.size}")
    snr_db_list = parsed("snr_db_list", lambda s: _check_list("snr_db_list", floats(s)))
    parsed("snr_db_list", lambda s: [noise_power_for_snr(P, r, snr) for snr in snr_db_list])
    # run_sweep sets each trial's noise power, snapshot count and seed: placeholders.
    base = Scenario(
        m=m,
        r=r,
        angles=angles,
        source_cov=P,
        noise_power=1.0,
        n_snapshots=snapshots_list[0],
        seed=0,
    )

    return SweepSpec(
        base=base,
        snr_db_list=snr_db_list,
        snapshots_list=snapshots_list,
        methods=parsed(
            "methods",
            lambda s: _check_list("methods", tuple(map(parse_method_token, s.split(","))), (m, r)),
        ),
        n_trials=parsed("n_trials", lambda s: check_count("n_trials", int(s), 1)),
        base_seed=parsed("base_seed", lambda s: check_count("base_seed", int(s), 0)),
    )


# ---------------------------------------------------------------------------
# Property verification suites.
# ---------------------------------------------------------------------------

@dataclass
class PropertyReport:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def ok(self):
        return self.max_deviation <= self.tolerance


_MAX_ANGLE_DRAWS = 10_000

# Most entries of the Kronecker weight that ``v_puma`` builds for one
# ``verify`` instance, (r (m - r))^2 complex numbers: 2**22 is 64 MiB.
_MAX_KRON_ENTRIES = 2**22


def random_angle_set(rng, r, min_separation=0.05):
    """Uniform random ascending angles with a circular minimum separation.

    Drawn by rejection; ``_MAX_ANGLE_DRAWS`` rejections is a ValidationError.
    """
    for _ in range(_MAX_ANGLE_DRAWS):
        phi = np.sort(rng.uniform(-np.pi + 1e-9, np.pi, size=r))
        gaps = np.diff(phi)
        wrap = 2 * np.pi - (phi[-1] - phi[0]) if r > 1 else np.inf
        if r == 1 or (np.all(gaps >= min_separation) and wrap >= min_separation):
            return phi
    raise ValidationError(
        f"no set of r={r} angles {min_separation} rad apart in {_MAX_ANGLE_DRAWS} draws"
    )


def _random_instance(rng, max_m=12, max_r=4):
    m = int(rng.integers(3, max_m + 1))
    r = int(rng.integers(1, min(max_r, m - 1) + 1))
    Z = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    U, _ = np.linalg.qr(Z)
    g = rng.uniform(0.1, 5.0, size=r)
    c = rng.standard_normal(r + 1) + 1j * rng.standard_normal(r + 1)
    while abs(c[0]) < 1e-3:
        c[0] = rng.standard_normal() + 1j * rng.standard_normal()
    decomp = SubspaceDecomposition(u_signal=U, lambdas=np.sort(g)[::-1] + 1.0, sigma2=0.5)
    return m, r, c, decomp, g


def verify_properties(n_instances=1000, seed=0, max_m=12, max_r=4, fault_scale=1.0):
    """Run all numerical property suites; returns a list of PropertyReport.

    Instances draw m from 3 ... max_m and r from 1 ... min(max_r, m - 1).
    ``n_instances`` and ``seed`` must pass ``check_count`` at 0, ``max_m``
    at 3 and ``max_r`` at 1, in that order; zero instances run none.  A
    ``max_m`` / ``max_r`` at which an instance's V_PUMA Kronecker weight
    could exceed ``_MAX_KRON_ENTRIES`` entries is a ValidationError too,
    checked before any instance.  ``fault_scale`` scales G in the V_PUMA
    path alone, so a value other than 1 must fail
    ``criterion_equivalence``.
    """
    check_count("n_instances", n_instances, 0)
    check_count("seed", seed, 0)
    check_count("max_m", max_m, 3)
    check_count("max_r", max_r, 1)
    # r (m - r) is largest at m = max_m, r = max_m / 2, within r <= max_r.
    r = min(max_r, max_m // 2)
    kron_entries = (r * (max_m - r)) ** 2
    if kron_entries > _MAX_KRON_ENTRIES:
        raise ValidationError(
            f"max_m={max_m}, max_r={max_r} would build a V_PUMA Kronecker weight of "
            f"{kron_entries} entries, over the limit of {_MAX_KRON_ENTRIES}"
        )
    rng = np.random.default_rng(seed)
    dev_equiv = 0.0
    dev_gauge = 0.0
    for _ in range(n_instances):
        m, r, c, decomp, weight = _random_instance(rng, max_m, max_r)
        try:
            vm = v_mode(c, decomp, weight).value
            vp = v_puma(c, decomp, weight * fault_scale).value
        except SingularityError:
            continue
        dev_equiv = max(dev_equiv, abs(vp - vm) / max(1.0, vm))
        alpha = (rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
        vm2 = v_mode(alpha * c, decomp, weight).value
        vp2 = v_puma(alpha * c, decomp, weight * fault_scale).value
        # V_ML is checked at the instance's model covariance: at I it is m - r for every c.
        U = decomp.u_signal
        cov = (U * decomp.lambdas) @ U.conj().T + decomp.sigma2 * np.eye(m)
        vl = v_ml_coefs(c, cov).value
        vl2 = v_ml_coefs(alpha * c, cov).value
        dev_gauge = max(
            dev_gauge,
            abs(vm2 - vm) / max(1.0, abs(vm)),
            abs(vp2 - vp) / max(1.0, abs(vp)),
            abs(vl2 - vl) / max(1.0, abs(vl)),
        )

    dev_proj = 0.0
    dev_annih = 0.0
    for _ in range(n_instances):
        m = int(rng.integers(3, max_m + 1))
        r = int(rng.integers(1, min(max_r, m - 1) + 1))
        phi = random_angle_set(rng, r)
        A = steering_matrix(phi, m)
        c = coefs_from_angles(phi)
        T = toeplitz_annihilator(c, m)
        dev_annih = max(dev_annih, float(np.max(np.abs(T @ A))))
        diff = projector_from_steering(A) - projector_from_annihilator(T)
        dev_proj = max(dev_proj, float(np.linalg.norm(diff)))

    dev_vec = 0.0
    dev_trace = 0.0
    for _ in range(n_instances):
        dims = rng.integers(2, 6, size=4)
        X = rng.standard_normal((dims[0], dims[1])) + 1j * rng.standard_normal((dims[0], dims[1]))
        Y = rng.standard_normal((dims[1], dims[2])) + 1j * rng.standard_normal((dims[1], dims[2]))
        Z = rng.standard_normal((dims[2], dims[3])) + 1j * rng.standard_normal((dims[2], dims[3]))
        dev_vec = max(dev_vec, vec_matrix_identity_residual(X, Y, Z))
        P = rng.standard_normal((dims[0], dims[1])) + 1j * rng.standard_normal((dims[0], dims[1]))
        Q = rng.standard_normal((dims[0], dims[1])) + 1j * rng.standard_normal((dims[0], dims[1]))
        dev_trace = max(dev_trace, trace_vec_identity_residual(P, Q))

    return [
        PropertyReport("criterion_equivalence", dev_equiv, 1e-10),
        PropertyReport("projector_identity", dev_proj, 1e-10),
        PropertyReport("annihilation", dev_annih, 1e-12),
        PropertyReport("gauge_invariance", dev_gauge, 1e-10),
        PropertyReport("vec_of_product", dev_vec, 1e-12),
        PropertyReport("trace_as_inner_product", dev_trace, 1e-12),
    ]
