"""Random-sampling approximations of the exact solvers, plus a RANSAC baseline.

The sampling variants draw seed subsets uniformly instead of enumerating
them, but process each drawn seed exactly like the exact solvers (hyperplane,
sign completion, subproblem, incumbent), so the returned objective is always
an upper bound on the global minimum and is reached whenever an optimal seed
is drawn.  RANSAC instead fits a model directly to each drawn subset and
scores it by its consensus (inlier count).

Randomness comes from the counter-based Philox generator: iteration k uses
the k-th child of ``SeedSequence(rng_seed)``, so runs are reproducible across
platforms and iterations could be processed in parallel without changing the
result.
"""

from __future__ import annotations

import math
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
from .exact import ProgressFn, SolveReport, _RegressionSearch, _SubspaceSearch, seed_enumerator
from .subsolvers import _lad_fit, _ls_fit, _minimax_fit

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


def sampled_regression(
    data: RegressionDataset,
    spec: LossSpec,
    cfg: SamplingConfig,
    *,
    exhaustive: bool = False,
    progress: ProgressFn | None = None,
) -> SolveReport:
    """Sampling variant of the exact regression solver.

    Each iteration draws d distinct lifted indices (without replacement
    within the draw, independently across iterations) and runs the full
    per-seed pipeline.  ``exhaustive=True`` replaces the random draws with
    the complete enumeration, which reproduces the exact solver.
    ``progress`` receives (seeds processed, incumbent) after every drawn
    seed, or every 512 enumerated seeds and after the last one.
    """
    t0 = perf_counter()
    search = _RegressionSearch(data, spec)
    if exhaustive:
        total = math.comb(2 * data.n, data.d)
        for rank, subset in enumerate(seed_enumerator(2 * data.n, data.d)):
            search.process_seed(rank, subset)
            if progress is not None and (rank % 512 == 511 or rank == total - 1):
                progress(search.seeds, search.j)
    else:
        for rank, rng in enumerate(_iteration_rngs(cfg.rng_seed, cfg.n_iters)):
            subset = np.sort(rng.choice(2 * data.n, size=data.d, replace=False))
            search.process_seed(rank, subset)
            if progress is not None:
                progress(search.seeds, search.j)
    return search.build_report(perf_counter() - t0, approximate=not exhaustive)


def sampled_subspace(
    data: PointDataset,
    spec: LossSpec,
    cfg: SamplingConfig,
    *,
    exhaustive: bool = False,
    progress: ProgressFn | None = None,
) -> SolveReport:
    """Sampling variant of the exact subspace solver (seeds of size d(d+1)/2).

    ``exhaustive=True`` runs the sequential scan of
    :func:`satfit.exact_subspace`, which calls ``progress`` every 256 seeds
    and after the last one.
    """
    t0 = perf_counter()
    search = _SubspaceSearch(data, spec)
    lifted_dim = data.lifted_dim
    if exhaustive:
        search.run_range(0, math.comb(data.n, lifted_dim), progress, None)
    else:
        for rank, rng in enumerate(_iteration_rngs(cfg.rng_seed, cfg.n_iters)):
            subset = np.sort(rng.choice(data.n, size=lifted_dim, replace=False))
            search.process_seed(rank, subset)
            if progress is not None:
                progress(search.seeds, search.j)
    return search.build_report(perf_counter() - t0, approximate=not exhaustive)


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
    winning consensus set is then refitted with the loss-appropriate
    subproblem so the reported objective is comparable with the other
    solvers.
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
    solved = 0
    for rng in _iteration_rngs(cfg.rng_seed, cfg.n_iters):
        idx = np.sort(rng.choice(n, size=size, replace=False))
        w, rank = _ls_fit(data.x[idx], data.y[idx])
        solved += 1
        if rank < d:
            degenerate += 1
        count = int(np.count_nonzero(np.abs(data.y - data.x @ w) < eps))
        if count > best_count:
            best_count = count
            best_w = w
        if progress is not None:
            progress(solved, float(n - best_count))
    consensus = np.flatnonzero(np.abs(data.y - data.x @ best_w) < eps)
    if consensus.size:
        if spec.p == 0:
            refit, _ = _minimax_fit(data.x[consensus], data.y[consensus])
        elif spec.p == 1:
            refit = _lad_fit(data.x[consensus], data.y[consensus])
        else:
            refit = _ls_fit(data.x[consensus], data.y[consensus])[0]
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
        seeds_skipped=0,
        inner_loops_skipped=0,
        sign_completions=0,
        subproblems_solved=solved,
        subproblems_pruned=0,
        subproblems_reused=0,
        max_onset_size=0,
        onset_outside_seed=0,
        approximate=True,
        certificate_boundary=False,
        cancelled=False,
        wall_time_seconds=perf_counter() - t0,
    )
