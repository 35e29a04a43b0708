"""Synthetic data generation and the benchmark sweep behind the
error-versus-outlier-fraction comparison.

Regression data follows ``y_i = x_i @ w0 + noise_i + spike_i`` with inputs
uniform in a box, small Gaussian noise everywhere, and a large positive-mean
Gaussian spike added to an exact count ``round(r * n)`` of uniformly chosen
points.  The subspace generator is the symmetric extension of the same
recipe (inliers near a random subspace, outliers uniform in the box); it is
provided for completeness even though the benchmark protocol covers
regression only.

All randomness is Philox, keyed by explicit integer seeds, so datasets and
sweeps are bit-reproducible.  Within a sweep, every method sees the same
dataset for a given (outlier fraction, trial) pair; only the solver seeds
differ per method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from .core import LossSpec, PointDataset, RegressionDataset
from .exact import SolveReport, exact_regression
from .sampling import SamplingConfig, ransac_regression, sampled_regression

__all__ = [
    "BudgetExceededError",
    "GeneratorConfig",
    "SubspaceGeneratorConfig",
    "RegressionTruth",
    "SubspaceTruth",
    "BenchRow",
    "SummaryRow",
    "generate_regression",
    "generate_subspace",
    "run_sweep",
    "summarize",
    "rows_to_csv",
    "DEFAULT_EXACT_BUDGET",
    "BENCH_CSV_HEADER",
]

DEFAULT_NOISE_STD = math.sqrt(0.1)
DEFAULT_OUTLIER_MEAN = 100.0
DEFAULT_OUTLIER_STD = math.sqrt(1000.0)

# Largest seed enumeration the sweep will accept for the exact method.
DEFAULT_EXACT_BUDGET = 5_000_000

BENCH_CSV_HEADER = "method,r,trial,error,objective,seconds"

_METHODS = ("exact", "sampled", "ransac")


class BudgetExceededError(RuntimeError):
    """The requested exact run would enumerate more seeds than the budget allows."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Regression data generator settings.

    ``w0 = None`` draws the true coefficients uniformly from the box on each
    call; pass an explicit vector to pin them.  Exactly ``round(r * n)``
    points receive the outlier spike.
    """

    n: int
    d: int
    outlier_fraction: float
    rng_seed: int = 0
    w0: tuple[float, ...] | None = None
    x_range: float = 5.0
    noise_std: float = DEFAULT_NOISE_STD
    outlier_mean: float = DEFAULT_OUTLIER_MEAN
    outlier_std: float = DEFAULT_OUTLIER_STD

    def __post_init__(self) -> None:
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must lie in [0, 1)")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if self.noise_std < 0 or self.outlier_std < 0 or self.x_range <= 0:
            raise ValueError("scales must be nonnegative (x_range positive)")
        if self.w0 is not None:
            object.__setattr__(self, "w0", tuple(float(v) for v in self.w0))


@dataclass(frozen=True)
class RegressionTruth:
    w0: np.ndarray
    outlier_indices: np.ndarray


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def generate_regression(cfg: GeneratorConfig) -> tuple[RegressionDataset, RegressionTruth]:
    """Draw a dataset and its ground truth; identical seeds give identical bits."""
    rng = _rng(cfg.rng_seed)
    if cfg.w0 is None:
        w0 = rng.uniform(-cfg.x_range, cfg.x_range, cfg.d)
    else:
        w0 = np.asarray(cfg.w0, dtype=float)
        if w0.shape != (cfg.d,):
            raise ValueError(f"w0 must have length d={cfg.d}")
    x = rng.uniform(-cfg.x_range, cfg.x_range, (cfg.n, cfg.d))
    noise = rng.normal(0.0, cfg.noise_std, cfg.n) if cfg.noise_std > 0 else np.zeros(cfg.n)
    n_out = int(np.rint(cfg.outlier_fraction * cfg.n))
    outliers = np.sort(rng.choice(cfg.n, size=n_out, replace=False))
    y = x @ w0 + noise
    if n_out:
        y[outliers] += rng.normal(cfg.outlier_mean, cfg.outlier_std, n_out)
    return RegressionDataset(x, y), RegressionTruth(w0, outliers.astype(np.intp))


@dataclass(frozen=True)
class SubspaceGeneratorConfig:
    """Point-cloud generator settings (subspace extension of the recipe above)."""

    n: int
    d: int
    subspace_dim: int
    outlier_fraction: float
    rng_seed: int = 0
    coeff_range: float = 5.0
    x_range: float = 5.0
    noise_std: float = DEFAULT_NOISE_STD

    def __post_init__(self) -> None:
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must lie in [0, 1)")
        if not 1 <= self.subspace_dim < self.d:
            raise ValueError("need 1 <= subspace_dim < d")
        if self.n < 1 or self.noise_std < 0 or self.x_range <= 0 or self.coeff_range <= 0:
            raise ValueError("need n >= 1, noise_std >= 0, x_range > 0 and coeff_range > 0")


@dataclass(frozen=True)
class SubspaceTruth:
    basis: np.ndarray
    outlier_indices: np.ndarray


def generate_subspace(cfg: SubspaceGeneratorConfig) -> tuple[PointDataset, SubspaceTruth]:
    """Inliers near a random subspace, outliers replaced by uniform box points."""
    rng = _rng(cfg.rng_seed)
    raw = rng.normal(size=(cfg.d, cfg.subspace_dim))
    q, r = np.linalg.qr(raw)
    basis = q * np.sign(np.diag(r))  # deterministic orientation
    coeffs = rng.uniform(-cfg.coeff_range, cfg.coeff_range, (cfg.n, cfg.subspace_dim))
    noise = rng.normal(0.0, cfg.noise_std, (cfg.n, cfg.d)) if cfg.noise_std > 0 else 0.0
    x = coeffs @ basis.T + noise
    n_out = int(np.rint(cfg.outlier_fraction * cfg.n))
    outliers = np.sort(rng.choice(cfg.n, size=n_out, replace=False))
    if n_out:
        x[outliers] = rng.uniform(-cfg.x_range, cfg.x_range, (n_out, cfg.d))
    return PointDataset(x, cfg.subspace_dim), SubspaceTruth(basis, outliers.astype(np.intp))


@dataclass(frozen=True)
class BenchRow:
    method: str
    r: float
    trial: int
    error: float
    objective: float
    seconds: float


@dataclass(frozen=True)
class SummaryRow:
    method: str
    r: float
    trials: int
    mean_error: float
    std_error: float
    mean_seconds: float
    std_seconds: float


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _encode_r(r: float) -> int:
    return int(round(r * 1_000_000_000))


def _run_method(
    method: str,
    data: RegressionDataset,
    spec: LossSpec,
    sampling: SamplingConfig,
    solver_seed: int,
    threads: int,
) -> SolveReport:
    if method == "exact":
        return exact_regression(data, spec, threads=threads)
    cfg = replace(sampling, rng_seed=solver_seed)
    if method == "sampled":
        return sampled_regression(data, spec, cfg)
    return ransac_regression(data, spec, cfg)


def run_sweep(
    methods,
    r_values,
    trials: int,
    base_cfg: GeneratorConfig,
    spec: LossSpec,
    sampling: SamplingConfig,
    *,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
    threads: int = 1,
) -> list[BenchRow]:
    """Run every (method, outlier fraction, trial) cell of the comparison grid.

    Each (r, trial) pair gets a fresh true parameter vector and dataset from
    a seed derived from the base config seed; all methods run on that same
    dataset.  Rows are sorted by (method, r, trial).  Requesting the exact
    method on a grid whose seed count exceeds ``exact_budget`` raises
    :class:`BudgetExceededError` instead of silently running for hours.
    """
    methods = list(methods)
    for m in methods:
        if m not in _METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {_METHODS}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if "exact" in methods:
        # d-subsets of the n data rows at p = 1, of the 2n lifted points else
        n_seeds = math.comb(base_cfg.n if spec.p == 1 else 2 * base_cfg.n, base_cfg.d)
        if n_seeds > exact_budget:
            raise BudgetExceededError(
                f"exact enumeration needs {n_seeds} seeds for n={base_cfg.n}, "
                f"d={base_cfg.d}, above the budget of {exact_budget}; raise the "
                "budget explicitly or use a sampling method"
            )
    method_code = {m: i for i, m in enumerate(_METHODS)}
    rows: list[BenchRow] = []
    for r in r_values:
        for trial in range(trials):
            data_seed = _derived_seed(base_cfg.rng_seed, _encode_r(r), trial)
            cfg = replace(base_cfg, outlier_fraction=float(r), rng_seed=data_seed, w0=None)
            data, truth = generate_regression(cfg)
            w0_norm = float(np.linalg.norm(truth.w0))
            for method in methods:
                solver_seed = _derived_seed(
                    base_cfg.rng_seed, method_code[method], _encode_r(r), trial
                )
                t0 = perf_counter()
                report = _run_method(method, data, spec, sampling, solver_seed, threads)
                seconds = perf_counter() - t0
                error = float(np.linalg.norm(truth.w0 - report.model.w)) / w0_norm
                rows.append(
                    BenchRow(method, float(r), trial, error, report.objective, seconds)
                )
    rows.sort(key=lambda row: (row.method, row.r, row.trial))
    return rows


def summarize(rows: list[BenchRow]) -> list[SummaryRow]:
    """Per-(method, r) means and population standard deviations."""
    if not rows:
        raise ValueError("nothing to summarize")
    groups: dict[tuple[str, float], list[BenchRow]] = {}
    for row in rows:
        groups.setdefault((row.method, row.r), []).append(row)
    out = []
    for (method, r), members in sorted(groups.items()):
        errors = np.array([m.error for m in members])
        seconds = np.array([m.seconds for m in members])
        out.append(
            SummaryRow(
                method=method,
                r=r,
                trials=len(members),
                mean_error=float(errors.mean()),
                std_error=float(errors.std()),
                mean_seconds=float(seconds.mean()),
                std_seconds=float(seconds.std()),
            )
        )
    return out


def rows_to_csv(rows: list[BenchRow]) -> str:
    """Benchmark rows as CSV text (9 significant digits for floats)."""
    lines = [BENCH_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.method},{row.r:.9g},{row.trial},"
            f"{row.error:.9g},{row.objective:.9g},{row.seconds:.9g}"
        )
    return "\n".join(lines) + "\n"
