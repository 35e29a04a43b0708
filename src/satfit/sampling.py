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
across platforms.  The streams of all iterations are computed at once in
numpy, and each drawn subset has the bits of one ``Generator(Philox(child))``
per iteration, except where ``Generator.choice`` would tail-shuffle (a pool
above 10,000 with more than pool // 50 draws): there the draw stays Floyd's
algorithm.  The pool must be below 2**32 and the iteration count at most
2**32.  RANSAC fits its draws in stacks of 256 with one batched Cholesky
and counts their inliers in one workspace.
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
    _counts,
    _within,
    loss,
    regression_inliers,
)
from .exact import _BLOCK, ProgressFn, SolveReport, _RegressionSearch, _SubspaceSearch
from .geometry import _Workspace
from .subsolvers import _ls_fits, _regression_fits

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


# numpy.random.SeedSequence's hash constants (a pool of four 32-bit words)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10 round multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _hashmix(value, h: int, mult: int):
    """SeedSequence's hashmix of a word (int or uint32 array); returns it and the next constant."""
    h_next = (h * mult) & _M32
    value = ((value ^ h) * h_next) & _M32
    return value ^ (value >> 16), h_next


def _mix(x, y):
    r = (((_MIX_L * x) & _M32) - ((_MIX_R * y) & _M32)) & _M32
    return r ^ (r >> 16)


def _mulhi(a: np.ndarray, m: int) -> np.ndarray:
    """High word of the 128-bit product of uint64 ``a`` and constant ``m``, in 32-bit halves."""
    a0, a1, m0, m1 = a & _M32, a >> 32, m & _M32, m >> 32
    p01, p10 = a0 * m1, a1 * m0
    mid = ((a0 * m0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _iteration_rngs(seed: int, count: int, blocks: int, first: int = 0) -> np.ndarray:
    """(count, 8 * blocks) uint32 words, as uint64, of iteration i's Philox stream.

    Row i is what ``Generator(Philox(SeedSequence(seed).spawn(count)[i]))``
    reads through its 32-bit draws from counters first + 1 .. first + blocks:
    each child's key is SeedSequence's mix of the run words and the spawn
    word i, and each 64-bit output gives its low half first.
    """
    run = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    run += [0] * (4 - len(run))
    mixer, h = [], _INIT_A
    for word in run[:4]:
        value, h = _hashmix(word, h, _MULT_A)
        mixer.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, h = _hashmix(mixer[src], h, _MULT_A)
                mixer[dst] = _mix(mixer[dst], value)
    for word in [*run[4:], np.arange(count, dtype=np.uint32)]:
        for dst in range(4):
            value, h = _hashmix(word, h, _MULT_A)
            mixer[dst] = _mix(mixer[dst], value)
    state, h = [], _INIT_B
    for word in mixer:
        value, h = _hashmix(word, h, _MULT_B)
        state.append(value.astype(np.uint64)[:, None])
    k0, k1 = state[0] | state[1] << 32, state[2] | state[3] << 32
    c0 = np.broadcast_to(np.arange(first + 1, first + blocks + 1, dtype=np.uint64), (count, blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, hi1 = _mulhi(c0, _PHILOX_M[0]), _mulhi(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, c2 * _PHILOX_M[1], hi0 ^ c3 ^ k1, c0 * _PHILOX_M[0]
    out = np.stack([c0, c1, c2, c3], axis=-1)
    return np.stack([out & _M32, out >> 32], axis=-1).reshape(count, 8 * blocks)


def _draw_seeds(seed: int, count: int, pool: int, k: int) -> np.ndarray:
    """(count, k) seeds; row i holds k sorted distinct indices drawn from iteration i's stream.

    Row i equals ``np.sort(Generator(Philox(SeedSequence(seed).spawn(count)[i]))
    .choice(pool, k, replace=False))`` bit for bit, but all rows are drawn at
    once: Lemire's bounded draws on the words of :func:`_iteration_rngs`
    (a per-row pointer skips the rejected words), then Floyd's algorithm,
    one column per step.  Where ``pool > 10_000`` and ``k > pool // 50``,
    ``Generator.choice`` tail-shuffles instead; Floyd is kept there, so those
    rows are distinct uniform draws that differ from numpy's.  Row i never
    depends on ``count``.  ``seed`` must be non-negative, ``pool`` below
    2**32 (numpy's 32-bit bounded path) and ``count`` at most 2**32 (a
    one-word spawn key).
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if pool >= 1 << 32:
        raise ValueError(f"pool must be below 2**32, got {pool}")
    if count > 1 << 32:
        raise ValueError(f"count must be at most 2**32, got {count}")
    if not 0 <= k <= pool:
        raise ValueError(f"cannot draw {k} distinct indices from {pool}")
    blocks = -(-k // 8)
    words = _iteration_rngs(seed, count, blocks)
    ptr = np.zeros(count, dtype=np.intp)
    out = np.zeros((count, k), dtype=np.intp)
    for col, j in enumerate(range(pool - k, pool)):
        val = np.empty(count, dtype=np.intp)
        todo = np.arange(count)
        while todo.size:
            if ptr[todo].max() >= words.shape[1]:
                more = _iteration_rngs(seed, count, blocks, words.shape[1] // 8)
                words = np.concatenate([words, more], axis=1)
            m = words[todo, ptr[todo]] * np.uint64(j + 1)
            ptr[todo] += 1
            val[todo] = m >> 32
            todo = todo[(m & _M32) < (1 << 32) % (j + 1)]
        out[:, col] = np.where((out[:, :col] == val[:, None]).any(axis=1), j, val)
    out.sort(axis=1)
    return out


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
    search = _SubspaceSearch(data, spec, exhaustive=False)
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
    points and counts its inliers (``|e| <= epsilon``); the largest
    consensus wins (first achiever on ties).  The draws are fitted and
    counted 256 at a time, bit for bit as one by one.
    The winning consensus set is then refitted with the fit that ``spec.p``
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
    best_count = -1
    best_w: np.ndarray | None = None
    degenerate = 0
    draws = _draw_seeds(cfg.rng_seed, cfg.n_iters, n, size)
    # Each block's errors and inlier mask live in one workspace: allocated
    # fresh, they would be faulted in block after block whenever glibc's
    # thresholds stand low (the rule is in geometry._Workspace).
    space = _Workspace()
    for start in range(0, cfg.n_iters, _BLOCK):
        idx = draws[start : start + _BLOCK]
        ws, ranks = _ls_fits(data.x[idx], data.y[idx])
        degenerate += int(np.count_nonzero(ranks < d))
        # one mat-vec per draw, as data.x @ w, so the counts keep their bits;
        # then |e| <= eps, the rule of core._within, in place
        e = np.matmul(data.x[None], ws[:, :, None], out=space.array("errors", (ws.shape[0], n, 1)))[:, :, 0]
        np.abs(np.subtract(data.y, e, out=e), out=e)
        counts = _counts(np.less_equal(e, spec.epsilon, out=space.array("within", e.shape, bool)), axis=1)
        top = int(np.argmax(counts))  # the first best draw
        if counts[top] > best_count:
            best_count, best_w = int(counts[top]), ws[top]
        if progress is not None:
            progress(start + idx.shape[0], float(n - best_count))
    solved = cfg.n_iters
    consensus = _within(spec, data.y - data.x @ best_w)
    if consensus.any():
        refit = _regression_fits(data.x, data.y, consensus[None], spec.p)[0]
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
