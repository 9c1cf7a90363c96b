"""The functions and results that ``perfbench/layers.py`` traces must stay
importable and readable through refactors of the package.

``layers.py`` is imported as it is, from the perfbench directory; nothing
there is changed.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import modepuma as mp
from modepuma.bench import parse_method_token

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_target_resolves_to_a_callable(layers):
    assert layers.TARGETS
    for target in layers.TARGETS:
        home = importlib.import_module(target.module)
        assert callable(getattr(home, target.attr, None)), target.name


@pytest.mark.parametrize("token", ["mode", "puma", "modex:2", "epuma:2"])
def test_estimate_record_reads_a_real_result(layers, token):
    scenario = mp.Scenario(
        m=6, r=2, angles=[-0.4, 0.7], source_cov=np.eye(2),
        noise_power=0.1, n_snapshots=100, seed=1,
    )
    cov = mp.sample_covariance(mp.simulate_snapshots(scenario))
    decomp = mp.subspace_decomposition(cov, 2)
    args = (cov, decomp, mp.signal_weight(decomp), 2, parse_method_token(token))
    result = mp.estimate(*args)
    iterations, converged, logged, finite = layers._estimate_record(args, result)
    assert layers._method_span(args) == "estimators." + token.split(":")[0]
    assert iterations == result.iterations_used >= 1
    assert converged == result.converged
    if ":" in token:
        assert logged == len(result.candidate_log) == 15  # C(2 + 4, 2)
        assert 0 < finite <= logged
    else:
        assert logged is None and finite is None
