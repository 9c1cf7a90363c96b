#!/usr/bin/env python3
"""
Summarize benchmark runs into one point of the trajectory.

    python3 perfbench/summarize.py --label "<commit or change>" \\
        [--out perfbench/trajectory/BENCH_<n>.json]

Reads the ``.perfbench_out/results/*.json`` that run.py wrote, keeping
only runs of the current source tree (their ``source_sha256``) and no
fault-injected runs.  Per workload, it gives each end-to-end metric and
printed-only figure (``--trace 0`` runs) and each per-layer metric
(``--trace 1`` runs) as median, quartiles and spread: the interquartile
range over the median, with quartiles as ``statistics.quantiles(values,
n=4)`` gives them.  It lists every run's seed, fingerprint and counts and
keeps the environment of the newest run.
"""

import argparse
import glob
import json
import os
import statistics
import sys

import run


def _summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "n": len(values),
    }


def summarize(records, label):
    out = {"label": label, "end_to_end": {}, "per_layer": {}, "runs": {}}
    newest = max(records, key=lambda r: os.path.getmtime(r["_path"]))
    out["environment"] = newest["environment"]
    for workload in run.WORKLOADS:
        mine = sorted(
            (r for r in records if r["workload"] == workload), key=lambda r: (r["trace"], r["seed"])
        )
        if not mine:
            continue
        out["runs"][workload] = [
            {key: r[key] for key in ("seed", "trace", "seconds", "correct", "attempted", "failed", "fingerprint")}
            for r in mine
        ]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            values, units = {}, {}
            for r in mine:
                if r["trace"] != trace:
                    continue
                for name, metric in dict(r["metrics"], **r["not_gated"]).items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
            if values:
                out[section][workload] = {
                    name: dict(_summary(v), unit=units[name]) for name, v in values.items()
                }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", help="trajectory file to write (JSON)")
    args = parser.parse_args(argv)
    source = run._source_digest()

    records, skipped = [], 0
    for path in sorted(glob.glob(os.path.join(run.OUT, "results", "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        if record["inject_fault"]:
            continue
        if record["environment"]["source_sha256"] != source:
            skipped += 1
            continue
        record["_path"] = path
        records.append(record)
    print(f"{len(records)} runs of source {source[:12]}; {skipped} runs of other sources left out")
    if not records:
        print(f"no results of this source tree under {run.OUT}", file=sys.stderr)
        return 1
    summary = summarize(records, args.label)
    for workload, metrics in summary["end_to_end"].items():
        for name, s in metrics.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:14s} {name:14s} median {s['median']:12.6g} {s['unit']:4s} "
                  f"spread {spread}  n={s['n']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
