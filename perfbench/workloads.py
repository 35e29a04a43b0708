"""Benchmark workloads: seeded instance pools, solver calls and answer checks.

Every workload is a fixed pool of cases built from a data seed with the
library's own generators.  A case is one solver call on one generated
instance; the solvers receive only the generated inputs.  All workloads use
the ``satfit bench --fig1`` threshold eps = 3 * sqrt(0.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import satfit
from satfit import core, experiments

EPS = 3.0 * math.sqrt(0.1)

# Data seed of the pools the benchmark measures, and the held-out seed on
# which a claimed gain must also hold.
MAIN_DATA_SEED = 11
HELD_OUT_DATA_SEED = 23

# Objectives are compared with this relative tolerance: a solve is checked
# against values computed on the same machine type, but BLAS kernels may
# differ in the last bits elsewhere.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Case:
    key: str
    data: object
    spec: satfit.LossSpec
    planted: object  # the generator's true RegressionModel / SubspaceModel
    solve: Callable[[], satfit.SolveReport]
    exact: bool


# A workload builds its cases from (data seed, smoke); smoke means toy size.
MakeCases = Callable[[int, bool], list[Case]]


def derived_seed(*parts: int) -> int:
    """The seed derivation of the ``satfit bench`` sweep, from public numpy."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _regression_pool(tag, data_seed, count, n, d, r, ps, threads) -> list[Case]:
    cases = []
    for i in range(count):
        cfg = experiments.GeneratorConfig(
            n=n, d=d, outlier_fraction=r, rng_seed=derived_seed(data_seed, tag, i)
        )
        data, truth = experiments.generate_regression(cfg)
        for p in ps:
            spec = satfit.LossSpec(p, EPS)
            solve = partial(satfit.exact_regression, data, spec, threads=threads)
            cases.append(Case(f"i{i}.p{p}", data, spec, satfit.RegressionModel(truth.w0), solve, True))
    return cases


def _exact_lad(data_seed: int, smoke: bool) -> list[Case]:
    return _regression_pool(1, data_seed, 1 if smoke else 5, 10 if smoke else 30, 2, 0.4, (1,), 1)


def _exact_enum(data_seed: int, smoke: bool) -> list[Case]:
    # n = 20 at toy size still crosses the library's fork threshold.
    return _regression_pool(2, data_seed, 1 if smoke else 2, 20 if smoke else 60, 3, 0.4, (0, 2), 2)


def _exact_subspace(data_seed: int, smoke: bool) -> list[Case]:
    cases = []
    for i in range(1 if smoke else 2):
        cfg = experiments.SubspaceGeneratorConfig(
            n=8 if smoke else 10,
            d=3,
            subspace_dim=1,
            outlier_fraction=0.3,
            rng_seed=derived_seed(data_seed, 3, i),
        )
        data, truth = experiments.generate_subspace(cfg)
        spec = satfit.LossSpec(2, EPS)
        solve = partial(satfit.exact_subspace, data, spec, threads=1)
        cases.append(Case(f"i{i}.p2", data, spec, satfit.SubspaceModel(truth.basis), solve, True))
    return cases


_FIG1_METHODS = (("sampled", 1, satfit.sampled_regression), ("ransac", 2, satfit.ransac_regression))


def _sampled_fig1(data_seed: int, smoke: bool) -> list[Case]:
    """The (r, trial) cells of ``satfit bench --fig1 --rng-seed <data seed>``."""
    n, d, iters = (30, 4, 100) if smoke else (200, 4, 3000)
    spec = satfit.LossSpec(2, EPS)
    cases = []
    for r in (0.6, 0.7, 0.8):
        r_code = int(round(r * 1_000_000_000))
        for trial in range(1 if smoke else 2):
            cfg = experiments.GeneratorConfig(
                n=n, d=d, outlier_fraction=r, rng_seed=derived_seed(data_seed, r_code, trial)
            )
            data, truth = experiments.generate_regression(cfg)
            for method, code, fn in _FIG1_METHODS:
                sampling = satfit.SamplingConfig(iters, derived_seed(data_seed, code, r_code, trial), 2 * d)
                cases.append(
                    Case(
                        f"r{r}.t{trial}.{method}",
                        data,
                        spec,
                        satfit.RegressionModel(truth.w0),
                        partial(fn, data, spec, sampling),
                        False,
                    )
                )
    return cases


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS: dict[str, MakeCases] = {
    "exact-lad": _exact_lad,
    "exact-enum": _exact_enum,
    "exact-subspace": _exact_subspace,
    "sampled-fig1": _sampled_fig1,
}


def _objective(data, model, spec) -> float:
    if isinstance(model, satfit.SubspaceModel):
        return core.subspace_objective(data, model, spec)
    return core.regression_objective(data, model, spec)


def model_error(case: Case, report: satfit.SolveReport) -> float:
    """Regression: ||w - w0|| / ||w0||.  Subspace: sine of the largest principal angle."""
    if isinstance(case.planted, satfit.SubspaceModel):
        b, b0 = report.model.basis, case.planted.basis
        return float(np.linalg.norm(b @ b.T - b0 @ b0.T, 2))
    w0 = case.planted.w
    return float(np.linalg.norm(report.model.w - w0) / np.linalg.norm(w0))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check(case: Case, report: satfit.SolveReport, reference: float | None) -> list[str]:
    """Problems with one answer; empty when it passes every check."""
    problems = []
    if report.cancelled:
        problems.append("solve reported cancelled")
    if case.exact and report.approximate:
        problems.append("exact solver flagged its answer approximate")
    recomputed = _objective(case.data, report.model, case.spec)
    if not _close(recomputed, report.objective):
        problems.append(f"reported objective {report.objective!r} != recomputed {recomputed!r}")
    if case.exact:
        planted = _objective(case.data, case.planted, case.spec)
        if report.objective > planted and not _close(report.objective, planted):
            problems.append(f"objective {report.objective!r} above the planted model's {planted!r}")
        if reference is None:
            problems.append("no reference objective recorded")
        elif not _close(report.objective, reference):
            problems.append(f"objective {report.objective!r} != reference {reference!r}")
    return problems
