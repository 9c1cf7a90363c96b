#!/usr/bin/env python3
"""
modepuma benchmark: one workload per process, one caller, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-paper --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): mc-paper, mc-modex-wide, verify,
estimate-file.  The run imports the package from ``src/``, sets the
workload up (an import in a fresh interpreter, config and file
generation, one warm-up call), then repeats whole passes over the
workload's call pool until ``--seconds`` of passes have run.  Four more
set-ups are spread over the run, outside the pass clock, and
``setup_s`` is the fastest of the five.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced passes, reports the
per-layer metrics from the traced ones (layers.py), prints the per-layer
table and writes the spans to ``.perfbench_out/``.

Every pass is checked: the workload's output gates, and the same output
bytes as the first pass.  The fingerprint of a pass is also compared with
the one stored by earlier runs of the same seed and source tree.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status: 0 ok, 1 an output check failed,
2 the package source is missing or the arguments are bad.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Pinned before numpy is imported, so BLAS starts with one thread.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("mc-paper", "mc-modex-wide", "verify", "estimate-file")
SETUP_REPEATS = 5

# (name, unit, better); BENCHMARK.json lists the same.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_cost_ref", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# The reference loop: fixed small dense linear algebra through numpy, the
# kind of call modepuma's layers make (about 20 ms on one vCPU of a shared
# Xeon host).  An untraced pass times it before its first call and again
# before the next call once REFERENCE_EVERY_S of calls have run.
REFERENCE_LOOP_N = 400
REFERENCE_EVERY_S = 0.25


def _reference_seconds():
    import numpy as np

    steering = np.exp(1j * np.outer(np.arange(16), np.linspace(-1.0, 1.0, 16)))
    t0 = time.perf_counter()
    for k in range(REFERENCE_LOOP_N):
        gram = steering.conj().T @ steering + k * np.eye(16)
        np.linalg.eigvalsh(gram)
        np.linalg.solve(gram, steering[:, 0])
    return time.perf_counter() - t0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-fault",
        action="store_true",
        help="verify only: perturb v_puma as `modepuma verify --inject-fault` does; "
        "the run must then fail its output check",
    )
    args = parser.parse_args(argv)
    if args.inject_fault and args.workload != "verify":
        parser.error("--inject-fault applies to the verify workload only")
    return args


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import modepuma.bench, modepuma.cli, modepuma.snapshot_io; "
    "print(time.perf_counter() - t)"
)


def _import_seconds():
    """Time to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def _set_up(workloads, args, workdir):
    """One set-up: import probe, fresh workdir, plan, one warm-up call.

    Returns the plan and the seconds taken (the probe's import time plus
    the wall time of the rest).  Every set-up writes the same files.
    """
    import_s = _import_seconds()
    t0 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    plan = workloads.build(args.workload, args.seed, workdir, args.inject_fault)
    plan.calls[0]()  # warm-up
    return plan, import_s + time.perf_counter() - t0


def _run_pass(plan, tracer=None, references=None):
    """Run every call of the plan once, in order.

    With a ``references`` list, time the reference loop as REFERENCE_EVERY_S
    says and append, for each call, the reference time in effect for it.
    """
    outcomes = []
    since = math.inf
    for call in plan.calls:
        if references is not None and since >= REFERENCE_EVERY_S:
            reference, since = _reference_seconds(), 0.0
        if tracer is not None:
            tracer.op += 1
        outcomes.append(call())
        if references is not None:
            references.append(reference)
            since += outcomes[-1].seconds
    return outcomes


def _pass_seconds(outcomes):
    return sum(o.seconds for o in outcomes)


def _pass_ops(outcomes):
    return sum(o.ops for o in outcomes)


def _fingerprint(outcomes):
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(outcome.text.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _check_passes(plan, passes):
    """Output gates on the first pass; every later pass must repeat its bytes."""
    first = passes[0]
    failures = plan.check(first)
    for p, outcomes in enumerate(passes[1:], 2):
        for k, (outcome, reference) in enumerate(zip(outcomes, first)):
            if outcome.text != reference.text:
                failures.append(f"pass {p}, call {k}: output differs from pass 1")
    return failures


def _source_digest():
    """sha256 of the package sources and of the benchmark modules a run executes."""
    digest = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    files += [os.path.join(HERE, f"{name}.py") for name in ("layers", "run", "spans", "workloads")]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _check_fingerprint_store(key, fingerprint):
    """Compare with, or record, the fingerprint of earlier runs of this key."""
    path = os.path.join(OUT, "fingerprints.json")
    store = {}
    if os.path.exists(path):
        with open(path) as fh:
            store = json.load(fh)
    known = store.get(key)
    if known is not None:
        return [] if known == fingerprint else [f"fingerprint {fingerprint} differs from {known} of an earlier run"]
    store[key] = fingerprint
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


def environment(source_digest):
    import numpy as np
    import scipy

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: build.get(key) for key in ("name", "version", "openblas configuration")}
    except TypeError:  # numpy < 1.25 only prints its config
        blas = None
    cpu_model = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_model": cpu_model,
        "git_commit": commit,
        "source_sha256": source_digest,
    }


def end_to_end_metrics(passes, reference_s, setup_s, attempted, failed):
    """Gated metrics, and figures that are printed only.

    An op is a trial row, an instance or an estimate.  On a shared
    machine the speed of the core drifts by up to 2x within seconds and
    can stay slow for a minute, longer than a run.  ``op_cost_ref`` is an
    op's time in units of the reference loop timed at most
    REFERENCE_EVERY_S of calls before it: per pass, the sum over its calls
    of call time / reference time, over the ops of the pass; the median
    over passes.  A drift that slows both cancels, and as the loop is
    fixed, only the program's own cost moves the ratio.
    ``ops_per_s`` is the rate in seconds, with each call's time taken as
    its fastest over the passes; it is printed, not gated.
    """
    import numpy as np

    call_s = [min(p[k].seconds for p in passes) for k in range(len(passes[0]))]
    call_ops = [o.ops for o in passes[0]]
    every_op_ms = [o.seconds / o.ops * 1e3 for p in passes for o in p]
    op_cost = statistics.median(
        sum(o.seconds / ref for o, ref in zip(p, refs)) / _pass_ops(p)
        for p, refs in zip(passes, reference_s)
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_cost_ref": (op_cost, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    printed = {
        "ops_per_s": (sum(call_ops) / sum(call_s), "1/s"),
        "reference_ms": (statistics.median(r for refs in reference_s for r in refs) * 1e3, "ms"),
        "op_ms_p50": (statistics.median(t / n * 1e3 for t, n in zip(call_s, call_ops)), "ms"),
        "op_ms_p90": (float(np.percentile(every_op_ms, 90)), "ms"),
        "failed_frac": (failed / attempted, "frac"),
    }
    return metrics, printed


def _print_end_to_end(workload, plan, metrics, printed, passes, setup_times, reference_s):
    unit = plan.op_unit
    n_calls = len(passes) * len(plan.calls)
    estimates = unit == "estimates"
    names = {
        "ops_per_s": f"{unit}_per_s",
        "op_ms_p50": "estimate_ms_p50" if estimates else "op_ms_p50",
        "op_ms_p90": "estimate_ms_p90" if estimates else "op_ms_p90",
    }
    notes = {
        "setup_s": f"fastest of {len(setup_times)} set-ups (slowest {max(setup_times):.3f} s)",
        "op_cost_ref": f"op time / reference loop time, median of {len(passes)} passes",
        "ops_per_s": f"ops_per_s; each call's fastest of {len(passes)} passes",
        "reference_ms": f"median over the calls of the reference loop in effect ({REFERENCE_LOOP_N} iterations)",
        "op_ms_p50": f"median over the {len(plan.calls)} calls of a pass, each its fastest",
        "op_ms_p90": f"over all {n_calls} calls",
        "failed_frac": f"of the {unit} attempted",
    }
    print(f"end-to-end, {workload}: {len(passes)} passes, {n_calls} calls")
    for section, values in (("", metrics), ("  (not gated)", printed)):
        for name, (value, unit_name) in values.items():
            print(f"  {names.get(name, name):16s} {value:14.6g} {unit_name:5s} {notes.get(name, '')}{section}")


def _print_layers(table, wall_s, ops, op_unit):
    import layers

    print(f"per-layer self time, traced wall {wall_s:.3f} s over {ops} {op_unit}")
    print(f"  {'span':42s} {'calls/op':>10s} {'self_us_p50':>12s} {'self_share':>10s} {'cap':>8s}")
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_share"]):
        cap = 1.0 / (1.0 - row["self_share"]) if row["self_share"] < 1 else float("inf")
        print(
            f"  {name:42s} {row['calls_per_op']:10.4g} {row['self_us_p50']:12.2f} "
            f"{row['self_share']:10.4f} {cap:7.3f}x"
        )
    shares = layers.layer_shares(table)
    print(f"  {'layer':42s} {'':>10s} {'':>12s} {'self_share':>10s} {'cap':>8s}")
    for layer, share in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"  {layer:42s} {'':>10s} {'':>12s} {share:10.4f} {1.0 / (1.0 - share):7.3f}x")
    print(f"  {'(outside every span)':42s} {'':>10s} {'':>12s} {1.0 - sum(shares.values()):10.4f}")


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "modepuma", "__init__.py")):
        print(f"error: no modepuma package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import spans
    import workloads

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    workdir = os.path.join(OUT, "work", run_id)
    try:
        plan, first_setup_s = _set_up(workloads, args, workdir)
        setup_times = [first_setup_s]

        # The pass clock stops while a later set-up runs.
        start = time.perf_counter()
        paused = 0.0
        tracer = spans.Tracer()
        untraced, traced, reference_s = [], [], []
        while not untraced or time.perf_counter() - start - paused < args.seconds:
            reference_s.append([])
            untraced.append(_run_pass(plan, references=reference_s[-1]))
            if args.trace:
                tracer.install(layers.TARGETS)
                try:
                    traced.append(_run_pass(plan, tracer))
                finally:
                    tracer.uninstall()
            elif (
                len(setup_times) < SETUP_REPEATS
                and time.perf_counter() - start - paused >= len(setup_times) * args.seconds / SETUP_REPEATS
            ):
                t0 = time.perf_counter()
                setup_times.append(_set_up(workloads, args, workdir)[1])
                paused += time.perf_counter() - t0
        passes = untraced + traced
        setup_s = min(setup_times)

        failures = _check_passes(plan, passes)
        fingerprint = _fingerprint(passes[0])
        source_digest = _source_digest()
        if not failures:
            key = f"{args.workload}|seed={args.seed}|fault={int(args.inject_fault)}|source={source_digest}"
            failures = _check_fingerprint_store(key, fingerprint)
        attempted = sum(_pass_ops(p) for p in passes)
        failed = sum(o.failed for p in passes for o in p)

        printed = {}
        if args.trace:
            wall_s = sum(_pass_seconds(p) for p in traced)
            traced_ops = sum(_pass_ops(p) for p in traced)
            overhead = wall_s / sum(_pass_seconds(p) for p in untraced) - 1.0
            table = layers.span_table(tracer, traced_ops, wall_s)
            metrics = layers.per_layer_metrics(tracer, table, overhead)
            _print_layers(table, wall_s, traced_ops, plan.op_unit)
            print(f"  trace.overhead_frac {overhead:.4f} ({len(traced)} traced, {len(untraced)} untraced passes)")
            trace_path = os.path.join(OUT, f"trace-{run_id}.npz")
            tracer.export(trace_path)
            print(f"spans: {trace_path}")
        else:
            metrics, printed = end_to_end_metrics(passes, reference_s, setup_s, attempted, failed)
            _print_end_to_end(args.workload, plan, metrics, printed, passes, setup_times, reference_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"fingerprint sha256:{fingerprint}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        inject_fault=args.inject_fault,
        fingerprint=fingerprint,
        check_failures=failures,
        not_gated={name: {"value": value, "unit": unit} for name, (value, unit) in printed.items()},
        environment=environment(source_digest),
    )
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    results_path = os.path.join(results_dir, f"{run_id}.json")
    with open(results_path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"results: {results_path}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
