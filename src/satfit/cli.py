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

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SOLVER = 4
EXIT_BUDGET = 5

class _DataError(OSError):
    """Unreadable or malformed input file."""


# ---------------------------------------------------------------------------
# Dataset files


def _read_rows(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
        "flags": {"cancelled": report.cancelled},
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
        raise ValueError(f"{source} must be a positive integer, got {given!r}")
    return int(given)


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def emit(done: int, incumbent: float) -> None:
        print(f"  seeds={done} incumbent={incumbent:.6g}", file=sys.stderr)

    return emit


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_solve(args: argparse.Namespace) -> int:
    """Run ``regress`` or ``subspace``: read, solve with ``--method``, write the JSON report.

    The subcommand supplies ``read(args)``, its ``solvers`` by method name
    and ``context(data)``, its extra report fields.
    """
    spec = LossSpec(args.p, args.epsilon)
    threads = _threads(args)
    data = args.read(args)
    progress = _progress_printer(args.verbose)
    solver = args.solvers[args.method]
    if args.method == "exact":
        report = solver(data, spec, threads=threads, progress=progress)
    else:
        cfg = SamplingConfig(args.iters, args.rng_seed, args.subset_size)
        report = solver(data, spec, cfg, progress=progress)
    context = {"input": args.data, "method": args.method, "p": spec.p,
               "epsilon": spec.epsilon, "n": data.n, "d": data.d, **args.context(data)}
    _write_json(_report_payload(report, args.command, context), args.output)
    print(f"wrote {args.output} (objective {report.objective:.9g})", file=sys.stderr)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    w0 = None
    if args.w0:
        try:
            w0 = tuple(float(v) for v in args.w0.split(","))
        except ValueError:
            raise ValueError(f"--w0 must be a comma-separated float list, got {args.w0!r}")
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


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.trials is None:
        args.trials = 100 if args.fig1 else 10
    if args.r_values is None:
        args.r_values = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8" if args.fig1 else "0.1,0.2,0.3,0.4"
    rows = run_sweep(
        [m.strip() for m in args.methods.split(",")],
        [float(v) for v in args.r_values.split(",")],
        args.trials,
        GeneratorConfig(n=args.n, d=args.d, outlier_fraction=0.0, rng_seed=args.rng_seed),
        LossSpec(args.p, args.epsilon),
        SamplingConfig(args.iters, args.rng_seed, args.subset_size),
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

    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--epsilon", type=float, required=True)
    solve.add_argument("--rng-seed", type=int, default=0)
    solve.add_argument("--threads", type=int, default=None)
    solve.add_argument("--output", default="report.json")
    solve.add_argument("--verbose", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    reg = sub.add_parser("regress", parents=[solve],
                         help="robust linear regression on a CSV dataset")
    reg.add_argument("data", help="CSV file with header x1,...,xd,y")
    reg.add_argument("--method", choices=("exact", "sampled", "ransac"), default="exact")
    reg.add_argument("--p", type=int, choices=(0, 1, 2), required=True)
    reg.add_argument("--iters", type=int, default=3000)
    reg.add_argument("--subset-size", type=int, default=None)
    reg.set_defaults(
        read=lambda args: read_regression_csv(args.data),
        solvers={"exact": exact_regression, "sampled": sampled_regression,
                 "ransac": ransac_regression},
        context=lambda data: {},
    )

    ssp = sub.add_parser("subspace", parents=[solve],
                         help="robust subspace estimation on a CSV point cloud")
    ssp.add_argument("data", help="CSV file with header x1,...,xd")
    ssp.add_argument("--method", choices=("exact", "sampled"), default="exact")
    ssp.add_argument("--p", type=int, choices=(0, 2), required=True)
    ssp.add_argument("--ds", type=int, required=True, help="target subspace dimension")
    ssp.add_argument("--iters", type=int, default=500)
    ssp.set_defaults(
        read=lambda args: read_points_csv(args.data, args.ds),
        solvers={"exact": exact_subspace, "sampled": sampled_subspace},
        context=lambda data: {"subspace_dim": data.subspace_dim},
        subset_size=None,
    )

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
    ben.add_argument("--methods", default="sampled,ransac",
                     help="comma list from exact,sampled,ransac")
    ben.add_argument("--r-values", dest="r_values", default=None,
                     help="comma list of outlier fractions (default 0.1,...,0.4)")
    ben.add_argument("--trials", type=int, default=None, help="trials per r (default 10)")
    ben.add_argument("--n", type=int, default=200)
    ben.add_argument("--d", type=int, default=4)
    ben.add_argument("--p", type=int, choices=(0, 1, 2), default=2)
    ben.add_argument("--epsilon", type=float, default=3.0 * math.sqrt(0.1))
    ben.add_argument("--iters", type=int, default=3000)
    ben.add_argument("--subset-size", type=int, default=None)
    ben.add_argument("--rng-seed", type=int, default=0)
    ben.add_argument("--threads", type=int, default=None)
    ben.add_argument("--exact-budget", type=int, default=DEFAULT_EXACT_BUDGET)
    ben.add_argument("--fig1", action="store_true",
                     help="the paper's fig. 1 grid: 100 trials, r = 0.1,...,0.8, unless given")
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
