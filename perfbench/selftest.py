#!/usr/bin/env python3
"""
Self-test of the benchmark's output gates.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A verify run with ``--inject-fault`` (the perturbation that
   ``modepuma verify --inject-fault`` applies) must exit 1 and report
   correct = false.
2. The sweep and estimate gates must pass on real outputs and trip on the
   same outputs doctored to be wrong: a wrong 10 dB cell, a failed trial,
   a wrong angle, a nonzero exit.
3. BENCHMARK.json must list exactly the metrics run.py and layers.py report.

Exits 0 when every test passes.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, run.SRC)

import layers  # noqa: E402
import workloads  # noqa: E402


def check_fault_injection():
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--inject-fault"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1, f"fault-injected run exited {proc.returncode}"
    assert result["correct"] is False, result
    assert "criterion_equivalence" in proc.stderr, proc.stderr


def _doctor_sweep(outcomes, method):
    doctored = []
    for outcome in outcomes:
        rows = [
            row[:6] + ("0.5",) + row[7:9] + ("0",) + row[10:]
            if row[0] == method and float(row[3]) == 10.0 else row
            for row in outcome.data
        ]
        doctored.append(dataclasses.replace(outcome, data=rows))
    return doctored


def check_sweep_gate(workdir):
    plan = workloads.build("mc-paper", 1, workdir)
    outcomes = run._run_pass(plan)
    assert plan.check(outcomes) == []
    failures = plan.check(_doctor_sweep(outcomes, "puma"))
    assert len(failures) == 2 and all(f.startswith("puma at 10 dB") for f in failures), failures
    # One failed trial at 0 dB (run_sweep writes its rmse_rad as nan).
    first = outcomes[0]
    k = next(i for i, row in enumerate(first.data) if float(row[3]) == 0.0)
    rows = list(first.data)
    rows[k] = rows[k][:6] + ("nan",) + rows[k][7:]
    failures = plan.check([dataclasses.replace(first, data=rows)] + outcomes[1:])
    assert len(failures) == 1 and "failed (rmse_rad nan)" in failures[0], failures


def check_estimate_gate(workdir):
    plan = workloads.build("estimate-file", 1, workdir)
    outcome = plan.calls[0]()
    assert plan.check([outcome]) == []
    code, stdout = outcome.data
    line = next(line for line in stdout.splitlines() if line.startswith("angles_rad:"))
    shifted = "angles_rad: " + " ".join(str(float(a) + 0.05) for a in line.split()[1:])
    doctored = dataclasses.replace(outcome, data=(code, stdout.replace(line, shifted)))
    assert len(plan.check([doctored])) == 1
    # A call that exits nonzero fails the check, whatever it printed.
    doctored = dataclasses.replace(outcome, data=(2, stdout))
    assert plan.check([doctored]) == ["call 0: exit 2"]


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def main():
    workdir = os.path.join(run.OUT, "work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for test in (check_fault_injection, check_benchmark_json):
            test()
            print(f"ok  {test.__name__}")
        for test in (check_sweep_gate, check_estimate_gate):
            test(workdir)
            print(f"ok  {test.__name__}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
