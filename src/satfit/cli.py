"""Command line front end: dataset I/O, solver invocation, benchmark driving.

Subcommands
-----------
``regress``   robust regression on a CSV dataset, JSON report out.
``subspace``  robust subspace estimation on a CSV point cloud.
``gen``       synthetic regression dataset plus a ground-truth sidecar.
``bench``     method-comparison sweep, CSV rows out.

Exit codes: 0 success, 2 usage errors (bad flags or invalid problem setup),
3 I/O and parse errors, 4 solver failures, 5 budget refusals.

File conventions: dataset CSVs carry a header row (``x1,...,xd`` plus ``y``
for regression) with '.' as the decimal separator; report and sidecar files
use 1-based point indices, while the Python API is 0-based throughout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .core import LossSpec, PointDataset, RegressionDataset
from .exact import NoHyperplaneError, SearchStats, SolveReport, exact_regression, exact_subspace
from .experiments import (
    DEFAULT_EXACT_BUDGET,
    BudgetExceededError,
    GeneratorConfig,
    generate_regression,
    rows_to_csv,
    run_sweep,
)
from .sampling import SamplingConfig, ransac_regression, sampled_regression, sampled_subspace
from .subsolvers import SolverFailure

__all__ = [
    "main",
    "read_regression_csv",
    "read_points_csv",
    "write_regression_csv",
]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SOLVER = 4
EXIT_BUDGET = 5

_FIG1_PRESET = {
    "n": 200,
    "d": 4,
    "trials": 100,
    "iters": 3000,
    "p": 2,
    "epsilon": 3.0 * math.sqrt(0.1),
    "r_values": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8",
    "methods": "sampled,ransac",
}


class _UsageError(ValueError):
    """Semantically invalid flag values."""


class _DataError(OSError):
    """Unreadable or malformed input file."""


# ---------------------------------------------------------------------------
# Dataset files


def _read_rows(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise _DataError(f"{path}: empty file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise _DataError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise _DataError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise _DataError(f"{path}: ragged rows")
    return [h.strip() for h in header], rows


def read_regression_csv(path: str) -> RegressionDataset:
    """Parse a ``x1,...,xd,y`` CSV into a dataset."""
    header, rows = _read_rows(path)
    d = len(header) - 1
    if d < 1 or header != [f"x{i}" for i in range(1, d + 1)] + ["y"]:
        raise _DataError(
            f"{path}: expected header x1,...,xd,y, got {','.join(header)}"
        )
    arr = np.asarray(rows)
    return RegressionDataset(arr[:, :d], arr[:, d])


def read_points_csv(path: str, subspace_dim: int) -> PointDataset:
    """Parse a ``x1,...,xd`` CSV into a point cloud."""
    header, rows = _read_rows(path)
    d = len(header)
    if d < 2 or header != [f"x{i}" for i in range(1, d + 1)]:
        raise _DataError(f"{path}: expected header x1,...,xd, got {','.join(header)}")
    return PointDataset(np.asarray(rows), subspace_dim)


def write_regression_csv(data: RegressionDataset, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(1, data.d + 1)] + ["y"])
        for xi, yi in zip(data.x, data.y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])


# ---------------------------------------------------------------------------
# Reports


def _report_payload(report: SolveReport, command: str, context: dict) -> dict:
    model = report.model
    if hasattr(model, "w"):
        model_doc = {"w": [float(v) for v in model.w]}
    else:
        model_doc = {"basis": [[float(v) for v in row] for row in model.basis]}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        **context,
        "objective": report.objective,
        "model": model_doc,
        "inliers": [int(i) + 1 for i in report.inliers],
        "approximate": report.approximate,
        "flags": {
            "certificate_boundary": report.certificate_boundary,
            "cancelled": report.cancelled,
        },
        "counters": {f.name: getattr(report, f.name) for f in dataclasses.fields(SearchStats)},
        "wall_time_seconds": report.wall_time_seconds,
    }


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _threads(args: argparse.Namespace) -> int:
    """``--threads``, else ``SATFIT_THREADS``, else the core count; a given value must be >= 1."""
    given, source = args.threads, "--threads"
    if given is None:
        given, source = os.environ.get("SATFIT_THREADS"), "SATFIT_THREADS"
        if not given:
            return os.cpu_count() or 1
    if not str(given).strip().isdecimal() or int(given) < 1:
        raise _UsageError(f"{source} must be a positive integer, got {given!r}")
    return int(given)


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def emit(done: int, incumbent: float) -> None:
        print(f"  seeds={done} incumbent={incumbent:.6g}", file=sys.stderr)

    return emit


# ---------------------------------------------------------------------------
# Subcommands


def _positive_float(label: str, value: float) -> float:
    if not (value > 0 and math.isfinite(value)):
        raise _UsageError(f"{label} must be positive and finite, got {value}")
    return float(value)


def _write_report(report: SolveReport, command: str, args, data, spec: LossSpec, **extra) -> int:
    """Write the JSON report of a ``regress`` or ``subspace`` run to ``--output``."""
    context = {"input": args.data, "method": args.method, "p": spec.p,
               "epsilon": spec.epsilon, "n": data.n, "d": data.d, **extra}
    _write_json(_report_payload(report, command, context), args.output)
    print(f"wrote {args.output} (objective {report.objective:.9g})", file=sys.stderr)
    return EXIT_OK


def _cmd_regress(args: argparse.Namespace) -> int:
    epsilon = _positive_float("--epsilon", args.epsilon)
    threads = _threads(args)
    spec = LossSpec(args.p, epsilon)
    data = read_regression_csv(args.data)
    progress = _progress_printer(args.verbose)
    if args.method == "exact":
        report = exact_regression(data, spec, threads=threads, progress=progress)
    else:
        cfg = SamplingConfig(args.iters, args.rng_seed, args.subset_size)
        if args.method == "sampled":
            report = sampled_regression(data, spec, cfg, progress=progress)
        else:
            report = ransac_regression(data, spec, cfg, progress=progress)
    return _write_report(report, "regress", args, data, spec)


def _cmd_subspace(args: argparse.Namespace) -> int:
    epsilon = _positive_float("--epsilon", args.epsilon)
    threads = _threads(args)
    spec = LossSpec(args.p, epsilon)
    data = read_points_csv(args.data, args.ds)
    progress = _progress_printer(args.verbose)
    if args.method == "exact":
        report = exact_subspace(data, spec, threads=threads, progress=progress)
    else:
        cfg = SamplingConfig(args.iters, args.rng_seed)
        report = sampled_subspace(data, spec, cfg, progress=progress)
    return _write_report(report, "subspace", args, data, spec, subspace_dim=data.subspace_dim)


def _cmd_gen(args: argparse.Namespace) -> int:
    if not 0.0 <= args.r < 1.0:
        raise _UsageError(f"--r must lie in [0, 1), got {args.r}")
    w0 = None
    if args.w0:
        try:
            w0 = tuple(float(v) for v in args.w0.split(","))
        except ValueError:
            raise _UsageError(f"--w0 must be a comma-separated float list, got {args.w0!r}")
    cfg = GeneratorConfig(
        n=args.n,
        d=args.d,
        outlier_fraction=args.r,
        rng_seed=args.rng_seed,
        w0=w0,
        noise_std=args.noise_std,
        outlier_mean=args.outlier_mean,
        outlier_std=args.outlier_std,
        x_range=args.x_range,
    )
    data, truth = generate_regression(cfg)
    write_regression_csv(data, args.output)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "command": "gen",
        "w0": [float(v) for v in truth.w0],
        "outlier_indices": [int(i) + 1 for i in truth.outlier_indices],
        "config": dataclasses.asdict(cfg),
    }
    sidecar_path = str(Path(args.output).with_suffix(".meta.json"))
    _write_json(sidecar, sidecar_path)
    print(f"wrote {args.output} and {sidecar_path}", file=sys.stderr)
    return EXIT_OK


def _resolved(args: argparse.Namespace, key: str, fallback):
    value = getattr(args, key)
    if value is not None:
        return value
    if args.fig1 and key in _FIG1_PRESET:
        return _FIG1_PRESET[key]
    return fallback


def _cmd_bench(args: argparse.Namespace) -> int:
    methods = [m.strip() for m in _resolved(args, "methods", "sampled,ransac").split(",")]
    r_values = [float(v) for v in _resolved(args, "r_values", "0.1,0.2,0.3,0.4").split(",")]
    trials = int(_resolved(args, "trials", 10))
    n = int(_resolved(args, "n", 200))
    d = int(_resolved(args, "d", 4))
    p = int(_resolved(args, "p", 2))
    epsilon = _positive_float("--epsilon", float(_resolved(args, "epsilon", _FIG1_PRESET["epsilon"])))
    iters = int(_resolved(args, "iters", 3000))
    subset_size = args.subset_size if args.subset_size is not None else 2 * d
    if p not in (0, 1, 2):
        raise _UsageError(f"--p must be 0, 1 or 2, got {p}")
    base = GeneratorConfig(n=n, d=d, outlier_fraction=0.0, rng_seed=args.rng_seed)
    sampling = SamplingConfig(iters, args.rng_seed, subset_size)
    rows = run_sweep(
        methods,
        r_values,
        trials,
        base,
        LossSpec(p, epsilon),
        sampling,
        exact_budget=args.exact_budget,
        threads=_threads(args),
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(rows))
    print(f"wrote {args.output} ({len(rows)} rows)", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satfit",
        description="Robust regression and subspace estimation by saturated-loss minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("regress", help="robust linear regression on a CSV dataset")
    reg.add_argument("data", help="CSV file with header x1,...,xd,y")
    reg.add_argument("--method", choices=("exact", "sampled", "ransac"), default="exact")
    reg.add_argument("--p", type=int, choices=(0, 1, 2), required=True)
    reg.add_argument("--epsilon", type=float, required=True)
    reg.add_argument("--iters", type=int, default=3000)
    reg.add_argument("--rng-seed", type=int, default=0)
    reg.add_argument("--subset-size", type=int, default=None)
    reg.add_argument("--threads", type=int, default=None)
    reg.add_argument("--output", default="report.json")
    reg.add_argument("--verbose", action="store_true")
    reg.set_defaults(func=_cmd_regress)

    ssp = sub.add_parser("subspace", help="robust subspace estimation on a CSV point cloud")
    ssp.add_argument("data", help="CSV file with header x1,...,xd")
    ssp.add_argument("--method", choices=("exact", "sampled"), default="exact")
    ssp.add_argument("--p", type=int, choices=(0, 2), required=True)
    ssp.add_argument("--ds", type=int, required=True, help="target subspace dimension")
    ssp.add_argument("--epsilon", type=float, required=True)
    ssp.add_argument("--iters", type=int, default=500)
    ssp.add_argument("--rng-seed", type=int, default=0)
    ssp.add_argument("--threads", type=int, default=None)
    ssp.add_argument("--output", default="report.json")
    ssp.add_argument("--verbose", action="store_true")
    ssp.set_defaults(func=_cmd_subspace)

    gen = sub.add_parser("gen", help="generate a synthetic regression dataset")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--r", type=float, default=0.0, help="outlier fraction in [0, 1)")
    gen.add_argument("--rng-seed", type=int, default=0)
    gen.add_argument("--w0", default=None, help="comma-separated true coefficients")
    gen.add_argument("--noise-std", type=float, default=math.sqrt(0.1))
    gen.add_argument("--outlier-mean", type=float, default=100.0)
    gen.add_argument("--outlier-std", type=float, default=math.sqrt(1000.0))
    gen.add_argument("--x-range", type=float, default=5.0)
    gen.add_argument("--output", default="data.csv")
    gen.set_defaults(func=_cmd_gen)

    ben = sub.add_parser("bench", help="method comparison sweep, CSV out")
    ben.add_argument("--methods", default=None, help="comma list from exact,sampled,ransac")
    ben.add_argument("--r-values", dest="r_values", default=None)
    ben.add_argument("--trials", type=int, default=None)
    ben.add_argument("--n", type=int, default=None)
    ben.add_argument("--d", type=int, default=None)
    ben.add_argument("--p", type=int, default=None)
    ben.add_argument("--epsilon", type=float, default=None)
    ben.add_argument("--iters", type=int, default=None)
    ben.add_argument("--subset-size", type=int, default=None)
    ben.add_argument("--rng-seed", type=int, default=0)
    ben.add_argument("--threads", type=int, default=None)
    ben.add_argument("--exact-budget", type=int, default=DEFAULT_EXACT_BUDGET)
    ben.add_argument("--fig1", action="store_true", help="preset: d=4, 100 trials, 3000 iterations")
    ben.add_argument("--output", default="bench.csv")
    ben.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on flag errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SolverFailure, NoHyperplaneError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
