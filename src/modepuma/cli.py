"""
Command-line harness.

Subcommands:
  verify    numerical property suites (criterion equivalence, projector
            identity, annihilation, gauge invariance, vec/trace lemmas)
  mc        Monte Carlo sweep over SNR / snapshot count, CSV output
  estimate  run one estimator on a snapshot file
  simulate  write a snapshot file for a synthetic scenario

Exit codes: 0 success, 1 validation error, 2 numerical or property
failure, 3 I/O error.
"""

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import bench, snapshot_io
from .errors import NumericalError, SingularityError, ValidationError
from .estimators import _TOKENS, estimate as run_estimator
from .sample_stats import (
    Scenario,
    sample_covariance,
    signal_weight,
    simulate_snapshots,
    subspace_decomposition,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse, with a bad command line exiting EXIT_VALIDATION instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args leaves the parser unchanged, so every call can share one
def _build_parser():
    parser = _Parser(
        prog="modepuma",
        description="Subspace-fitting DOA estimation for uniform linear arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the numerical property suites")
    p.add_argument("--instances", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-m", type=int, default=12)
    p.add_argument("--max-r", type=int, default=4)
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="self-test: perturb one code path so the checks must fail",
    )

    p = sub.add_parser("mc", help="Monte Carlo sweep to CSV")
    p.add_argument("--config", required=True, help="sweep config file (key = value lines)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--trials", type=int, default=None, help="override n_trials")
    p.add_argument("--seed", type=int, default=None, help="override base_seed")
    p.add_argument("--success-threshold", type=float, default=bench.DEFAULT_SUCCESS_THRESHOLD)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument(
        "--timing",
        action="store_true",
        help=(
            "fill wall_time_ms: the trial's shared simulation time plus the method's estimate; "
            "a MODEX row counts the whole subset scoring it shared"
        ),
    )

    p = sub.add_parser("estimate", help="estimate angles from a snapshot file")
    p.add_argument("input", help="snapshot file ('# m=<m> T=<T>' header)")
    p.add_argument("--r", type=int, required=True, help="number of sources")
    p.add_argument("--method", default="mode", help="mode | puma | modex | epuma")
    p.add_argument("--p-extra", type=int, default=0)

    p = sub.add_parser("simulate", help="write a synthetic snapshot file")
    p.add_argument("--out", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--angles",
        required=True,
        help="comma-separated radians; write a leading minus as --angles=-0.4,0.7",
    )
    p.add_argument("--snapshots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    noise = p.add_mutually_exclusive_group()
    noise.add_argument("--noise-power", type=float, default=1.0, help="sigma^2 (default 1.0)")
    noise.add_argument("--snr-db", type=float, default=None, help="SNR in dB with P = I")
    return parser


def _cmd_verify(args):
    fault = 1.0 + 1e-6 if args.inject_fault else 1.0
    reports = bench.verify_properties(
        n_instances=args.instances,
        seed=args.seed,
        max_m=args.max_m,
        max_r=args.max_r,
        fault_scale=fault,
    )
    failed = False
    for rep in reports:
        status = "ok" if rep.ok else "FAIL"
        print(f"{rep.name:26s} max deviation {rep.max_deviation:.3e} "
              f"(tolerance {rep.tolerance:.0e})  {status}")
        failed = failed or not rep.ok
    return EXIT_NUMERICAL if failed else EXIT_OK


def _cmd_mc(args):
    sweep = bench.parse_sweep_config(args.config)
    if args.trials is not None:
        sweep = replace(sweep, n_trials=args.trials)
    if args.seed is not None:
        sweep = replace(sweep, base_seed=args.seed)
    _check_writable(args.out)
    rows = bench.run_sweep(
        sweep,
        success_threshold=args.success_threshold,
        jobs=args.jobs,
        timing=args.timing,
    )
    bench.write_csv(args.out, rows, sweep, args.success_threshold)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _check_writable(path):
    """Raise OSError now, not after the sweep, if ``path`` cannot be written.

    Opens it for appending, which changes no existing content, and removes
    the file again if this call created it.
    """
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _method_config(method, p_extra):
    """--method's tag, a name of ``_TOKENS``; a MODEX tag takes its p from --p-extra alone."""
    tag = method.strip().lower()
    if ":" in tag:
        raise ValidationError(f"bad --method {method!r}: give MODEX's p by --p-extra")
    modex_tags = [name for (_, extended), name in _TOKENS.items() if extended]
    if tag in modex_tags:
        return bench.parse_method_token(f"{tag}:{p_extra}")
    if p_extra:
        raise ValidationError(f"--p-extra requires --method {' or '.join(modex_tags)}")
    return bench.parse_method_token(tag)


def _cmd_estimate(args):
    # The arguments are checked before the file is read.
    config = _method_config(args.method, args.p_extra)
    if args.r < 1:
        raise ValidationError(f"need 0 < r < m, got r={args.r}")
    Y = snapshot_io.read_snapshots(args.input)
    cov = sample_covariance(Y)
    decomp = subspace_decomposition(cov, args.r)
    weight = signal_weight(decomp)
    result = run_estimator(cov, decomp, weight, args.r, config)
    print("angles_rad: " + " ".join(f"{a:.9f}" for a in np.sort(result.angles)))
    print(f"criterion_value: {result.criterion_value:.6e}")
    print(f"iterations: {result.iterations_used}")
    print(f"converged: {result.converged}")
    return EXIT_OK


def _cmd_simulate(args):
    try:
        phi = [float(a) for a in args.angles.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad --angles value: {exc}") from exc
    r = len(phi)
    P = np.eye(r, dtype=complex)
    noise = args.noise_power
    if args.snr_db is not None:
        noise = bench.noise_power_for_snr(P, r, args.snr_db)
    scenario = Scenario(
        m=args.m,
        r=r,
        angles=phi,
        source_cov=P,
        noise_power=noise,
        n_snapshots=args.snapshots,
        seed=args.seed,
    )
    snapshot_io.write_snapshots(args.out, simulate_snapshots(scenario))
    print(f"wrote {scenario.n_snapshots} snapshots to {args.out}")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "mc": _cmd_mc,
        "estimate": _cmd_estimate,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SingularityError, NumericalError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
