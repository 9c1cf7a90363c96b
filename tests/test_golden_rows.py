"""
Golden rows: three small sweeps through ``run_sweep`` against rows recorded
from an earlier tree.

Optimisations of the estimators must leave every sweep output the same.
Key and flag columns match exactly; the RMSE and criterion columns to
1e-12 relative, so a change in summation order that moves the last bits
is told apart from one that changes a result.
"""

import math

import numpy as np
import pytest

from modepuma import Scenario
from modepuma.bench import CSV_COLUMNS, SweepSpec, parse_method_token, run_sweep

_FLOAT_COLUMNS = {CSV_COLUMNS.index("rmse_rad"), CSV_COLUMNS.index("criterion_value")}


def _sweep(m, angles, n_snapshots, methods, n_trials, snr_db_list=(0.0, 10.0)):
    r = len(angles)
    base = Scenario(
        m=m, r=r, angles=angles, source_cov=np.eye(r),
        noise_power=1.0, n_snapshots=n_snapshots, seed=0,
    )
    return SweepSpec(
        base=base,
        snr_db_list=snr_db_list,
        snapshots_list=(n_snapshots,),
        methods=tuple(parse_method_token(t) for t in methods),
        n_trials=n_trials,
        base_seed=0,
    )


# The paper scenario: m=6, r=2, T=100, every method, 2 trials per cell.
PAPER_ROWS = [
    ('mode', '6', '2', '0.0', '100', '0', '0.03277424770593267', '0.07755347479016736', '1', '1', ''),
    ('mode', '6', '2', '0.0', '100', '1', '0.016380175467806454', '0.11187801300039435', '1', '1', ''),
    ('mode', '6', '2', '0.0', '100', '-1', '0.025908120937709486', '0.09471574389528085', '1.0', '1.0', ''),
    ('puma', '6', '2', '0.0', '100', '0', '0.03387550429157381', '0.07506579298613533', '1', '1', ''),
    ('puma', '6', '2', '0.0', '100', '1', '0.018669402398528354', '0.10060911828830116', '1', '1', ''),
    ('puma', '6', '2', '0.0', '100', '-1', '0.02735046962052582', '0.08783745563721825', '1.0', '1.0', ''),
    ('modex:2', '6', '2', '0.0', '100', '0', '0.03277424770593267', '4.188720404941561', '1', '1', ''),
    ('modex:2', '6', '2', '0.0', '100', '1', '0.016380175467806454', '4.110161837489525', '1', '1', ''),
    ('modex:2', '6', '2', '0.0', '100', '-1', '0.025908120937709486', '4.149441121215543', '1.0', '1.0', ''),
    ('epuma:2', '6', '2', '0.0', '100', '0', '0.03387550429157381', '4.188894114872692', '1', '1', ''),
    ('epuma:2', '6', '2', '0.0', '100', '1', '0.018669402398528354', '4.110410094392359', '1', '1', ''),
    ('epuma:2', '6', '2', '0.0', '100', '-1', '0.02735046962052582', '4.149652104632525', '1.0', '1.0', ''),
    ('mode', '6', '2', '10.0', '100', '0', '0.010034772206908018', '0.008319249125562578', '1', '1', ''),
    ('mode', '6', '2', '10.0', '100', '1', '0.003031433132202296', '0.004844689469574203', '1', '1', ''),
    ('mode', '6', '2', '10.0', '100', '-1', '0.007412362648965154', '0.006581969297568391', '1.0', '1.0', ''),
    ('puma', '6', '2', '10.0', '100', '0', '0.00996794115998708', '0.007616408754185535', '1', '1', ''),
    ('puma', '6', '2', '10.0', '100', '1', '0.003041037120202798', '0.004339178704933387', '1', '1', ''),
    ('puma', '6', '2', '10.0', '100', '-1', '0.007369116559514305', '0.005977793729559461', '1.0', '1.0', ''),
    ('modex:2', '6', '2', '10.0', '100', '0', '0.010034772206908018', '0.40519577807252993', '1', '1', ''),
    ('modex:2', '6', '2', '10.0', '100', '1', '0.003031433132202296', '0.4033853987315368', '1', '1', ''),
    ('modex:2', '6', '2', '10.0', '100', '-1', '0.007412362648965154', '0.40429058840203336', '1.0', '1.0', ''),
    ('epuma:2', '6', '2', '10.0', '100', '0', '0.00996794115998708', '0.40519656745915356', '1', '1', ''),
    ('epuma:2', '6', '2', '10.0', '100', '1', '0.003041037120202798', '0.40338663468204317', '1', '1', ''),
    ('epuma:2', '6', '2', '10.0', '100', '-1', '0.007369116559514305', '0.40429160107059836', '1.0', '1.0', ''),
]

# The wide scenario: m=16, r=4, T=200, MODEX and Enhanced PUMA at p=6.  The
# epuma:6 rows are recorded with the extended solve run as a two-step from
# the plain solve's c.
WIDE_ROWS = [
    ('modex:6', '16', '4', '0.0', '200', '0', '0.003163184372948193', '12.236373460831146', '1', '1', ''),
    ('modex:6', '16', '4', '0.0', '200', '-1', '0.003163184372948193', '12.236373460831146', '1.0', '1.0', ''),
    ('epuma:6', '16', '4', '0.0', '200', '0', '0.00315212295359497', '12.23641315534725', '1', '1', ''),
    ('epuma:6', '16', '4', '0.0', '200', '-1', '0.00315212295359497', '12.23641315534725', '1.0', '1.0', ''),
    ('modex:6', '16', '4', '10.0', '200', '0', '0.0009595335258156335', '1.202081829714345', '1', '1', ''),
    ('modex:6', '16', '4', '10.0', '200', '-1', '0.0009595335258156335', '1.202081829714345', '1.0', '1.0', ''),
    ('epuma:6', '16', '4', '10.0', '200', '0', '0.0009523731078772704', '1.2020815088298988', '1', '1', ''),
    ('epuma:6', '16', '4', '10.0', '200', '-1', '0.0009523731078772704', '1.2020815088298988', '1.0', '1.0', ''),
]

# The low-SNR threshold: m=10, r=2, angles 0 and 0.25, T=20, -4 dB, every
# method, 3 trials.  PUMA's loop and Enhanced PUMA's plain solve stop at
# the iteration cap (converged 0) in trials 1 and 2, an exit the paper and
# wide rows never reach, and reach their fixed point on the cap's last
# solve in trial 0.
THRESHOLD_ROWS = [
    ('mode', '10', '2', '-4.0', '20', '0', '0.10913783720390831', '2.203906846917498', '1', '0', ''),
    ('mode', '10', '2', '-4.0', '20', '1', '0.8951184505601261', '2.8204160200299246', '1', '0', ''),
    ('mode', '10', '2', '-4.0', '20', '2', '0.5579598585194311', '5.277580724043843', '1', '0', ''),
    ('mode', '10', '2', '-4.0', '20', '-1', '0.6122274391546906', '3.433967863663755', '1.0', '0.0', ''),
    ('puma', '10', '2', '-4.0', '20', '0', '0.08231998628328802', '2.113136196779434', '1', '0', ''),
    ('puma', '10', '2', '-4.0', '20', '1', '0.9629905424460382', '2.2152794577844888', '0', '0', ''),
    ('puma', '10', '2', '-4.0', '20', '2', '0.08484238750280575', '3.5727793132392662', '0', '0', ''),
    ('puma', '10', '2', '-4.0', '20', '-1', '0.5601564054498148', '2.633731655934396', '0.3333333333333333', '0.0', ''),
    ('modex:2', '10', '2', '-4.0', '20', '0', '0.072625655469233', '19.57891600088022', '1', '0', ''),
    ('modex:2', '10', '2', '-4.0', '20', '1', '0.11963924971810366', '20.203791232445493', '1', '0', ''),
    ('modex:2', '10', '2', '-4.0', '20', '2', '0.08766828174691733', '22.039659670002735', '1', '1', ''),
    ('modex:2', '10', '2', '-4.0', '20', '-1', '0.09534807030017856', '20.607455634442815', '1.0', '0.3333333333333333', ''),
    ('epuma:2', '10', '2', '-4.0', '20', '0', '0.07441748573346695', '19.561688773152902', '1', '0', ''),
    ('epuma:2', '10', '2', '-4.0', '20', '1', '0.13627987544585618', '20.159930258546186', '0', '0', ''),
    ('epuma:2', '10', '2', '-4.0', '20', '2', '0.09370079178766684', '22.08021121671207', '0', '0', ''),
    ('epuma:2', '10', '2', '-4.0', '20', '-1', '0.10470594541550561', '20.600610082803723', '0.3333333333333333', '0.0', ''),
]

SWEEPS = {
    "paper": (_sweep(6, [-0.4, 0.7], 100, ["mode", "puma", "modex:2", "epuma:2"], 2), PAPER_ROWS),
    "wide": (_sweep(16, [-1.2, -0.3, 0.5, 1.4], 200, ["modex:6", "epuma:6"], 1), WIDE_ROWS),
    "threshold": (
        _sweep(10, [0.0, 0.25], 20, ["mode", "puma", "modex:2", "epuma:2"], 3, (-4.0,)),
        THRESHOLD_ROWS,
    ),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_rows_match_the_recorded_rows(name):
    sweep, golden = SWEEPS[name]
    rows = run_sweep(sweep)
    assert len(rows) == len(golden)
    for row, want in zip(rows, golden):
        assert len(row) == len(want) == len(CSV_COLUMNS)
        for k, (got, ref) in enumerate(zip(row, want)):
            if k in _FLOAT_COLUMNS:
                assert math.isclose(float(got), float(ref), rel_tol=1e-12, abs_tol=0.0), (
                    CSV_COLUMNS[k], row, want,
                )
            else:
                assert got == ref, (CSV_COLUMNS[k], row, want)


def test_equal_trial_values_of_one_sweep_are_one_string():
    # A MODEX row that picked its base's roots repeats that row's RMSE; one
    # sweep holds each such value once, and its rows are still the recorded
    # bytes.
    sweep, golden = SWEEPS["paper"]
    rows = run_sweep(sweep)
    assert rows == golden
    trials = [row for row in rows if row[CSV_COLUMNS.index("trial_index")] != "-1"]
    repeats = 0
    for k in _FLOAT_COLUMNS:
        held = {}
        for row in trials:
            repeats += row[k] in held
            assert held.setdefault(row[k], row[k]) is row[k]
    assert repeats >= 4
