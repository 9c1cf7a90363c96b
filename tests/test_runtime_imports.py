"""The runtime needs numpy only; every other package the tests import is
declared in the ``test`` extra of pyproject.toml."""

import ast
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUN_EVERY_PATH = textwrap.dedent(
    """
    import sys

    import numpy as np

    import modepuma
    import modepuma.bench
    import modepuma.cli
    import modepuma.snapshot_io
    from modepuma import EstimatorConfig, Scenario, estimate
    from modepuma.bench import SweepSpec, run_sweep, verify_properties

    scenario = Scenario(
        m=6, r=2, angles=[-0.4, 0.7], source_cov=np.eye(2),
        noise_power=0.1, n_snapshots=100, seed=1,
    )
    cov = modepuma.sample_covariance(modepuma.simulate_snapshots(scenario))
    decomp = modepuma.subspace_decomposition(cov, 2)
    weight = modepuma.signal_weight(decomp)
    methods = (
        EstimatorConfig("MODE"),
        EstimatorConfig("PUMA"),
        EstimatorConfig("MODEX", p_extra=2),
        EstimatorConfig("MODEX", p_extra=2, modex_base="PUMA"),
    )
    for config in methods:
        estimate(cov, decomp, weight, 2, config)
    sweep = SweepSpec(
        base=scenario, snr_db_list=(10.0,), snapshots_list=(100,),
        methods=methods, n_trials=1, base_seed=3,
    )
    run_sweep(sweep)
    assert all(report.ok for report in verify_properties(n_instances=5))
    print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """
)


def test_no_scipy_module_loaded():
    proc = subprocess.run(
        [sys.executable, "-c", RUN_EVERY_PATH], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_one_job_run_loads_no_process_pool():
    # run_sweep imports concurrent.futures only when it starts a pool, so the
    # jobs = 1 path loads neither it nor multiprocessing.
    script = RUN_EVERY_PATH + textwrap.dedent(
        """
        pools = ("concurrent", "multiprocessing")
        print(sorted(name for name in sys.modules if name.split(".")[0] in pools))
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_test_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}
    tests = sorted((ROOT / "tests").glob("*.py"))
    imported = set()
    for path in tests:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {"modepuma"} | {path.stem for path in tests}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert "numpy" in third_party
    assert third_party - declared == set()
