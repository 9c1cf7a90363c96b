"""
Which modepuma functions the traced run wraps, and the per-layer metrics
computed from their spans.

A layer is a module of ``src/modepuma``, plus ``linalg`` for
``numpy.linalg.eigvalsh``, which carries the conditioning guards.  The
targets are the functions through which one layer calls another, plus
``estimators.quadratic_form_matrix`` and the three public entry points the
benchmark calls.  ``estimators.estimate`` is recorded under the method it
dispatches to (``estimators.mode``, ``.puma``, ``.modex``, ``.epuma``).

Stats, for a span name ``<layer>.<function>``:

* ``calls_per_op``: spans per op (trial row, instance or estimate call);
* ``self_us_p50``: median self time, the span minus its direct child spans;
* ``self_share``: summed self time over the traced wall time of the calls.

With nothing contending, making a layer faster saves at most its
``self_share``, so the cap on the speed-up of the whole call is
1 / (1 - self_share).
"""

import math
import os

import numpy as np

from spans import Target

LAYERS = (
    "array_model",
    "sample_stats",
    "criteria",
    "estimators",
    "bench",
    "snapshot_io",
    "cli",
    "linalg",
)

METHODS = ("mode", "puma", "modex", "epuma")


def _method_span(args):
    config = args[4]  # estimate(cov, decomp, weight, r, config)
    if config.method != "MODEX":
        return "estimators." + config.method.lower()
    return "estimators." + ("epuma" if config.modex_base == "PUMA" else "modex")


def _estimate_record(args, result):
    log = result.candidate_log
    finite = None if log is None else sum(1 for _, value in log if math.isfinite(value))
    return (
        result.iterations_used,
        result.converged,
        None if log is None else len(log),
        finite,
    )


def _first_arg(args, result):
    return args[0]


TARGETS = (
    Target("modepuma.sample_stats", "simulate_snapshots"),
    Target("modepuma.sample_stats", "sample_covariance"),
    Target("modepuma.sample_stats", "subspace_decomposition"),
    Target("modepuma.sample_stats", "signal_weight"),
    Target("modepuma.estimators", "estimate", namer=_method_span, observe=_estimate_record),
    Target("modepuma.estimators", "quadratic_form_matrix"),
    Target("modepuma.estimators", "match_angles"),
    Target("modepuma.criteria", "v_ml_angles"),
    Target("modepuma.criteria", "v_ml_coefs"),
    Target("modepuma.criteria", "v_mode"),
    Target("modepuma.criteria", "v_puma"),
    Target("modepuma.array_model", "steering_matrix"),
    Target("modepuma.array_model", "coefs_from_angles"),
    Target("modepuma.array_model", "angles_from_coefs"),
    Target("modepuma.array_model", "toeplitz_annihilator"),
    Target("modepuma.array_model", "projector_from_annihilator"),
    Target("modepuma.array_model", "projector_from_steering"),
    Target("modepuma.bench", "run_sweep"),
    Target("modepuma.bench", "verify_properties"),
    Target("modepuma.snapshot_io", "read_snapshots", observe=_first_arg),
    Target("modepuma.cli", "main"),
    Target("numpy.linalg", "eigvalsh"),
)

_STAT_UNITS = {
    "calls_per_op": ("calls/op", "lower"),
    "self_us_p50": ("us", "lower"),
    "self_share": ("frac", "lower"),
}


def _stats(span, *stats):
    return [(f"{span}.{stat}",) + _STAT_UNITS[stat] for stat in stats]


# (name, unit, better), in report order; BENCHMARK.json lists the same.
PER_LAYER = (
    _stats("sample_stats.simulate_snapshots", "calls_per_op", "self_us_p50", "self_share")
    + _stats("sample_stats.sample_covariance", "self_us_p50")
    + _stats("sample_stats.subspace_decomposition", "self_us_p50")
    + [row for m in METHODS for row in _stats(f"estimators.{m}", "self_us_p50")]
    + [
        ("estimators.puma.iterations_mean", "iterations", "lower"),
        ("estimators.epuma.iterations_mean", "iterations", "lower"),
        ("estimators.puma.converged_frac", "frac", "higher"),
    ]
    + _stats("estimators.quadratic_form_matrix", "calls_per_op", "self_us_p50")
    + _stats("criteria.v_ml_angles", "calls_per_op", "self_share")
    + [
        ("estimators.modex.subsets_per_call", "subsets/call", "lower"),
        ("estimators.modex.finite_subset_frac", "frac", "higher"),
    ]
    + _stats("criteria.v_mode", "calls_per_op", "self_us_p50")
    + _stats("criteria.v_puma", "self_us_p50")
    + _stats("criteria.v_ml_coefs", "self_us_p50")
    + [
        row
        for fn in (
            "steering_matrix",
            "projector_from_steering",
            "projector_from_annihilator",
            "toeplitz_annihilator",
            "angles_from_coefs",
        )
        for row in _stats(f"array_model.{fn}", "calls_per_op", "self_us_p50")
    ]
    + _stats("linalg.eigvalsh", "calls_per_op")
    + _stats("bench.run_sweep", "self_share")
    + _stats("bench.verify_properties", "self_share")
    + _stats("snapshot_io.read_snapshots", "self_us_p50")
    + [("snapshot_io.read_snapshots.MB_per_s", "MB/s", "higher")]
    + _stats("cli.main", "self_us_p50")
    + [(f"layer.{layer}.self_share", "frac", "lower") for layer in LAYERS]
    + [("trace.overhead_frac", "frac", "lower")]
)


def span_table(tracer, ops, wall_s):
    """Per span name: calls_per_op, self_us_p50, self_share (0 if never called)."""
    spans = tracer.spans()
    table = {}
    for name_id, name in enumerate(tracer.names):
        mask = spans["name_id"] == name_id
        selfs = spans["self"][mask]
        table[name] = {
            "calls_per_op": selfs.size / ops,
            "self_us_p50": float(np.median(selfs)) * 1e6 if selfs.size else 0.0,
            "self_share": float(selfs.sum()) / wall_s,
            "seconds": float((spans["end"][mask] - spans["start"][mask]).sum()),
        }
    return table


def layer_shares(table):
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, row in table.items():
        shares[name.split(".", 1)[0]] += row["self_share"]
    return shares


def per_layer_metrics(tracer, table, overhead_frac):
    """Values of every PER_LAYER metric, from the spans and observed results."""
    values = {}
    for name, row in table.items():
        for stat in _STAT_UNITS:
            values[f"{name}.{stat}"] = row[stat]
    for layer, share in layer_shares(table).items():
        values[f"layer.{layer}.self_share"] = share

    results = {m: [] for m in METHODS}
    read_paths = []
    for name, record in tracer.observed:
        if name == "snapshot_io.read_snapshots":
            read_paths.append(record)
        else:
            results[name.split(".", 1)[1]].append(record)
    for method in ("puma", "epuma"):
        iterations = [rec[0] for rec in results[method]]
        values[f"estimators.{method}.iterations_mean"] = float(np.mean(iterations)) if iterations else 0.0
    converged = [rec[1] for rec in results["puma"]]
    values["estimators.puma.converged_frac"] = float(np.mean(converged)) if converged else 0.0
    logged = [rec for m in ("modex", "epuma") for rec in results[m] if rec[2] is not None]
    subsets = sum(rec[2] for rec in logged)
    values["estimators.modex.subsets_per_call"] = subsets / len(logged) if logged else 0.0
    values["estimators.modex.finite_subset_frac"] = (
        sum(rec[3] for rec in logged) / subsets if subsets else 0.0
    )
    read = table.get("snapshot_io.read_snapshots")
    read_bytes = sum(os.path.getsize(path) for path in read_paths)
    values["snapshot_io.read_snapshots.MB_per_s"] = (
        read_bytes / read["seconds"] / 1e6 if read and read["seconds"] > 0 else 0.0
    )
    values["trace.overhead_frac"] = overhead_frac
    return {name: (values.get(name, 0.0), unit) for name, unit, _ in PER_LAYER}
