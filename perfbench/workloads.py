"""
The benchmark workloads and their output checks.

Each workload is a closed loop with one caller.  ``build`` turns the seed
into a pool of public calls into modepuma (``bench.run_sweep``,
``bench.verify_properties`` or ``cli.main``); one pass runs the pool once,
in order, and a run repeats passes.  A pass is the same work every time,
so its outputs repeat byte for byte and every count per op is exact for a
given seed.  The package sees only the generated sweep configs and
snapshot files, never the seed.
"""

import contextlib
import dataclasses
import functools
import io
import math
import os
import time
from collections import defaultdict

import numpy as np

from modepuma import bench, cli, snapshot_io

# Output gates for the 10 dB cells of the sweeps, per method over one pass:
# (success-rate floor, cell-RMSE ceiling in rad).  Both sweeps sit far above
# the threshold SNR, where every method resolves the sources.
MC_GATES = {
    "mc-paper": (0.9, 0.03),
    "mc-modex-wide": (0.75, 0.01),
}
# Largest error in rad between an `estimate` angle and the true angle.
ESTIMATE_TOLERANCE = 0.02

_PAPER_CONFIG = """\
m = 6
r = 2
angles = -0.4, 0.7
source_cov = identity
n_snapshots = 100
snr_db_list = 0, 10
snapshots_list = 100
methods = mode, puma, modex:2, epuma:2
n_trials = 1
base_seed = 0
"""

_WIDE_CONFIG = """\
m = 16
r = 4
angles = -1.2, -0.3, 0.5, 1.4
source_cov = identity
n_snapshots = 200
snr_db_list = 0, 10
snapshots_list = 200
methods = modex:6, epuma:6
n_trials = 1
base_seed = 0
"""

# estimate-file: a pool of recorded snapshot files, each read by every method.
ESTIMATE_M = 10
ESTIMATE_T = 2000
ESTIMATE_ANGLES = (-0.9, 0.15, 1.2)
ESTIMATE_SNR_DB = 10.0
ESTIMATE_FILES = 6
ESTIMATE_METHODS = ("mode", "puma", "modex", "epuma")
ESTIMATE_P_EXTRA = 3

VERIFY_CALLS = 16
VERIFY_INSTANCES = 25
FAULT_SCALE = 1.0 + 1e-6  # the perturbation `modepuma verify --inject-fault` uses


@dataclasses.dataclass
class Outcome:
    """One public call: its output text, ops done, ops failed, wall time."""

    text: str
    ops: int
    failed: int
    seconds: float
    data: object = None


@dataclasses.dataclass
class Plan:
    calls: list  # zero-argument callables returning an Outcome, in pass order
    check: object  # list of Outcome (one pass) -> list of failure messages
    op_unit: str  # what one op is: "trials", "instances" or "estimates"


def _seeds(seed, n):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=n)]


# ---------------------------------------------------------------------------
# mc-paper and mc-modex-wide: run_sweep over a pool of base seeds.
# ---------------------------------------------------------------------------

_METHOD, _SNR, _TRIAL, _RMSE, _SUCCESS = 0, 3, 5, 6, 9


def _sweep_call(spec):
    t0 = time.perf_counter()
    rows = bench.run_sweep(spec)
    seconds = time.perf_counter() - t0
    trials = [row for row in rows if int(row[_TRIAL]) >= 0]
    failed = sum(1 for row in trials if not math.isfinite(float(row[_RMSE])))
    text = "".join(",".join(row) + "\n" for row in rows)
    return Outcome(text, len(trials), failed, seconds, trials)


def check_sweep(outcomes, floor, ceiling, expected_methods):
    """Every trial row has a finite RMSE (no trial failed), and the 10 dB
    cells meet their gates: success rate >= floor, RMSE <= ceiling."""
    cells = defaultdict(list)
    failures = []
    for k, outcome in enumerate(outcomes):
        for row in outcome.data:
            if not math.isfinite(float(row[_RMSE])):
                failures.append(
                    f"call {k}: {row[_METHOD]} trial {row[_TRIAL]} at {row[_SNR]} dB failed (rmse_rad {row[_RMSE]})"
                )
            if float(row[_SNR]) == 10.0:
                cells[row[_METHOD]].append(row)
    for method in expected_methods:
        rows = cells.get(method)
        if not rows:
            failures.append(f"{method}: no 10 dB rows")
            continue
        success = sum(int(row[_SUCCESS]) for row in rows) / len(rows)
        rmse = math.sqrt(sum(float(row[_RMSE]) ** 2 for row in rows) / len(rows))
        if success < floor:
            failures.append(f"{method} at 10 dB: success rate {success:.3f} < {floor}")
        if not rmse <= ceiling:
            failures.append(f"{method} at 10 dB: cell RMSE {rmse:.3g} rad > {ceiling}")
    return failures


def _build_sweep(name, config_text, n_calls, seed, workdir):
    path = os.path.join(workdir, "sweep.cfg")
    with open(path, "w") as fh:
        fh.write(config_text)
    spec = bench.parse_sweep_config(path)
    calls = [
        functools.partial(_sweep_call, dataclasses.replace(spec, base_seed=s))
        for s in _seeds(seed, n_calls)
    ]
    methods = [bench.method_label(config) for config in spec.methods]
    floor, ceiling = MC_GATES[name]
    check = functools.partial(
        check_sweep, floor=floor, ceiling=ceiling, expected_methods=methods
    )
    return Plan(calls, check, "trials")


# ---------------------------------------------------------------------------
# verify: verify_properties over a pool of instance seeds.
# ---------------------------------------------------------------------------


def _verify_call(seed, fault_scale):
    t0 = time.perf_counter()
    reports = bench.verify_properties(
        n_instances=VERIFY_INSTANCES, seed=seed, max_m=12, max_r=4, fault_scale=fault_scale
    )
    seconds = time.perf_counter() - t0
    text = "".join(f"{r.name} {r.max_deviation!r} {r.tolerance!r}\n" for r in reports)
    return Outcome(text, VERIFY_INSTANCES, 0, seconds, reports)


def check_verify(outcomes):
    """Every call must return six PropertyReports, all ok."""
    failures = []
    for k, outcome in enumerate(outcomes):
        if len(outcome.data) != 6:
            failures.append(f"call {k}: {len(outcome.data)} property reports, expected 6")
        failures += [
            f"call {k}: {r.name} deviation {r.max_deviation:.3e} > {r.tolerance:.0e}"
            for r in outcome.data
            if not r.ok
        ]
    return failures


def _build_verify(seed, inject_fault):
    fault_scale = FAULT_SCALE if inject_fault else 1.0
    calls = [functools.partial(_verify_call, s, fault_scale) for s in _seeds(seed, VERIFY_CALLS)]
    return Plan(calls, check_verify, "instances")


# ---------------------------------------------------------------------------
# estimate-file: `modepuma estimate` on recorded snapshot files, in process.
# ---------------------------------------------------------------------------


def _write_snapshot_file(path, seed):
    rng = np.random.default_rng(seed)
    r = len(ESTIMATE_ANGLES)
    noise_power = 10.0 ** (-ESTIMATE_SNR_DB / 10.0)
    A = np.exp(1j * np.outer(np.arange(ESTIMATE_M), ESTIMATE_ANGLES))
    S = (rng.standard_normal((r, ESTIMATE_T)) + 1j * rng.standard_normal((r, ESTIMATE_T))) / math.sqrt(2)
    N = rng.standard_normal((ESTIMATE_M, ESTIMATE_T)) + 1j * rng.standard_normal((ESTIMATE_M, ESTIMATE_T))
    snapshot_io.write_snapshots(path, A @ S + N * math.sqrt(noise_power / 2))


def _estimate_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    text = out.getvalue() + err.getvalue() + f"exit {code}\n"
    return Outcome(text, 1, int(code != 0), seconds, (code, out.getvalue()))


def check_estimate(outcomes):
    """Every call exits 0 and prints angles within tolerance of the truth."""
    truth = sorted(ESTIMATE_ANGLES)
    failures = []
    for k, outcome in enumerate(outcomes):
        code, stdout = outcome.data
        if code != 0:
            failures.append(f"call {k}: exit {code}")
            continue
        lines = [line for line in stdout.splitlines() if line.startswith("angles_rad:")]
        if len(lines) != 1:
            failures.append(f"call {k}: no 'angles_rad:' line in the output")
            continue
        angles = sorted(float(tok) for tok in lines[0].split()[1:])
        if len(angles) != len(truth):
            failures.append(f"call {k}: {len(angles)} angles, expected {len(truth)}")
            continue
        errors = [abs(math.remainder(a - t, 2 * math.pi)) for a, t in zip(angles, truth)]
        if max(errors) > ESTIMATE_TOLERANCE:
            failures.append(f"call {k}: angle error {max(errors):.3g} rad > {ESTIMATE_TOLERANCE}")
    return failures


def _build_estimate(seed, workdir):
    calls = []
    for k, file_seed in enumerate(_seeds(seed, ESTIMATE_FILES)):
        path = os.path.join(workdir, f"snapshots-{k}.txt")
        _write_snapshot_file(path, file_seed)
        for method in ESTIMATE_METHODS:
            argv = ["estimate", path, "--r", str(len(ESTIMATE_ANGLES)), "--method", method]
            if method in ("modex", "epuma"):
                argv += ["--p-extra", str(ESTIMATE_P_EXTRA)]
            calls.append(functools.partial(_estimate_call, argv))
    return Plan(calls, check_estimate, "estimates")


# Calls per pass are sized so that a pass takes about a second or two on
# one core: mc-paper 16 x 8 trial rows, mc-modex-wide 4 x 4 rows (each row
# scores C(14, 4) = 1001 subsets), verify 16 x 25 instances, estimate-file
# 6 files x 4 methods.
_SWEEPS = {"mc-paper": (_PAPER_CONFIG, 16), "mc-modex-wide": (_WIDE_CONFIG, 4)}


def build(name, seed, workdir, inject_fault=False):
    """Plan of one workload, generated from ``seed`` into ``workdir``."""
    if name == "verify":
        return _build_verify(seed, inject_fault)
    if name == "estimate-file":
        return _build_estimate(seed, workdir)
    config_text, n_calls = _SWEEPS[name]
    return _build_sweep(name, config_text, n_calls, seed, workdir)
