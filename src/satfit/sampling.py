"""Random-sampling approximations of the exact solvers, plus a RANSAC baseline.

The sampling variants draw seed subsets uniformly instead of enumerating
them, and feed the drawn seeds, in blocks, to the same per-seed pipeline as
the exact solvers (hyperplane, sign completion, subproblem, incumbent), so
the returned objective is always an upper bound on the global minimum and is
reached whenever an optimal seed is drawn.  RANSAC instead fits a model
directly to each drawn subset and scores it by its consensus (inlier count).

Randomness comes from the counter-based Philox generator: iteration k of
every solver, RANSAC included, draws its sorted subset in :func:`_draw_seeds`
from the k-th child of ``SeedSequence(rng_seed)``, so runs are reproducible
across platforms and iterations could be processed in parallel without
changing the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .core import (
    LossSpec,
    PointDataset,
    RegressionDataset,
    RegressionModel,
    loss,
    regression_inliers,
)
from .exact import _BLOCK, ProgressFn, SolveReport, _RegressionSearch, _SubspaceSearch
from .subsolvers import _ls_fit, _regression_fit

__all__ = [
    "SamplingConfig",
    "sampled_regression",
    "sampled_subspace",
    "ransac_regression",
]


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs shared by the sampling-based solvers.

    ``subset_size`` is only used by RANSAC (default ``2 * d`` at call time);
    the sampling variants always draw seeds of the size dictated by the
    lifted geometry.
    """

    n_iters: int
    rng_seed: int = 0
    subset_size: int | None = None

    def __post_init__(self) -> None:
        if int(self.n_iters) < 1:
            raise ValueError("n_iters must be >= 1")
        object.__setattr__(self, "n_iters", int(self.n_iters))
        object.__setattr__(self, "rng_seed", int(self.rng_seed))


def _iteration_rngs(seed: int, count: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _draw_seeds(seed: int, count: int, pool: int, k: int) -> np.ndarray:
    """(count, k) seeds; row i holds k sorted distinct indices drawn by the i-th Philox child."""
    draws = [np.sort(rng.choice(pool, size=k, replace=False)) for rng in _iteration_rngs(seed, count)]
    return np.array(draws, dtype=np.intp)


def sampled_regression(
    data: RegressionDataset,
    spec: LossSpec,
    cfg: SamplingConfig,
    *,
    progress: ProgressFn | None = None,
) -> SolveReport:
    """Sampling variant of the exact regression solver.

    Each iteration draws d distinct lifted indices (without replacement
    within the draw, independently across iterations); the drawn seeds run
    through the per-seed pipeline of :func:`satfit.exact_regression` in
    blocks of 256, in iteration order.  ``progress`` receives (seeds
    processed, incumbent) after every block and after the last seed.
    """
    t0 = perf_counter()
    search = _RegressionSearch(data, spec)
    search.run_draws(_draw_seeds(cfg.rng_seed, cfg.n_iters, 2 * data.n, data.d), progress)
    return search.build_report(perf_counter() - t0, approximate=True)


def sampled_subspace(
    data: PointDataset,
    spec: LossSpec,
    cfg: SamplingConfig,
    *,
    progress: ProgressFn | None = None,
) -> SolveReport:
    """Sampling variant of the exact subspace solver (seeds of size d(d+1)/2).

    The drawn seeds run through the per-seed pipeline of
    :func:`satfit.exact_subspace` in blocks of 256, in iteration order;
    ``progress`` is called after every block and after the last seed.
    """
    t0 = perf_counter()
    search = _SubspaceSearch(data, spec)
    search.run_draws(_draw_seeds(cfg.rng_seed, cfg.n_iters, data.n, data.lifted_dim), progress)
    return search.build_report(perf_counter() - t0, approximate=True)


def ransac_regression(
    data: RegressionDataset,
    spec: LossSpec,
    cfg: SamplingConfig,
    *,
    progress: ProgressFn | None = None,
) -> SolveReport:
    """Classic consensus maximization baseline.

    Each iteration least-squares-fits a model to ``subset_size`` random data
    points and counts how many points it approximates strictly within the
    threshold; the largest consensus wins (first achiever on ties).  The
    winning consensus set is then refitted with the fit that ``spec.p``
    selects, so the reported objective is comparable with the other
    solvers.  ``progress`` receives (draws done, n - best consensus) after
    every 256 draws and after the last one.
    """
    t0 = perf_counter()
    n, d = data.n, data.d
    size = 2 * d if cfg.subset_size is None else int(cfg.subset_size)
    if size < d:
        raise ValueError(f"subset_size must be at least d={d}, got {size}")
    if size > n:
        raise ValueError(f"subset_size {size} exceeds the number of points {n}")
    eps = spec.epsilon
    best_count = -1
    best_w: np.ndarray | None = None
    degenerate = 0
    for done, idx in enumerate(_draw_seeds(cfg.rng_seed, cfg.n_iters, n, size), 1):
        w, rank = _ls_fit(data.x[idx], data.y[idx])
        if rank < d:
            degenerate += 1
        count = int(np.count_nonzero(np.abs(data.y - data.x @ w) < eps))
        if count > best_count:
            best_count = count
            best_w = w
        if progress is not None and (done % _BLOCK == 0 or done == cfg.n_iters):
            progress(done, float(n - best_count))
    solved = cfg.n_iters
    consensus = np.flatnonzero(np.abs(data.y - data.x @ best_w) < eps)
    if consensus.size:
        refit = _regression_fit(data.x[consensus], data.y[consensus], spec.p)
        solved += 1
    else:
        refit = best_w  # no consensus at all; keep the best raw sample fit
    model = RegressionModel(refit)
    objective = float(np.sum(loss(spec, data.y - data.x @ model.w)))
    return SolveReport(
        objective=objective,
        model=model,
        inliers=regression_inliers(data, model, spec),
        seeds_enumerated=cfg.n_iters,
        seeds_degenerate=degenerate,
        subproblems_solved=solved,
        approximate=True,
        cancelled=False,
        wall_time_seconds=perf_counter() - t0,
    )
