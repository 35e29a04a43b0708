"""Exact solvers: enumerate candidate hyperplane seeds, resolve on-hyperplane
points by sign completion, solve the fixed-classification subproblem for each
candidate inlier set, and track the incumbent.

Both solvers are exhaustive over all seeds of lifted points and are exact on
data in general position, except for p = 0 subspace estimation, whose L2
subproblem can miss the optimum (see :func:`exact_subspace`).  Seeds are
enumerated in lexicographic order, unranked a block of ranks at a time, and
ties are broken by scan order (the first best candidate wins), so repeated
runs are bit-identical.  An enumeration of 2**63 seeds or more is refused
with a ``ValueError`` before any seed is processed.

Each search has one per-seed pipeline, ``process_chunk(subsets)``: the
normals of a block of seeds come from :func:`.geometry._batched_normals`
(the signed maximal minors of the seed rows up to lifted dimension 9, a
batched SVD above that), their orientation and their below / on masks from
the lifted classification of :mod:`.geometry` (``_orient``, ``_classify``),
and only seeds that survive the incumbent bound enter the per-seed
completion step.  The exact solvers feed it lexicographic blocks of the
enumeration; the sampling variants in :mod:`.sampling` blocks of random
draws in iteration order.

A completion step builds the boolean inlier masks of a seed's completion
branches and hands them to the one branch loop, ``_Search._complete``.  In
branch order, it prunes an inlier set S that is too small or fails the count
bound eps^p (n - |S|) >= J where that applies (regression); skips a set
fitted before, keyed by its packed mask; and fits and scores the rest with
the subproblem that p selects: the SVD subspace fit, or
:func:`.subsolvers._regression_fit` (minimax, LAD or least squares for
p = 0, 1, 2).  Skipping a repeat cannot change the answer: it would
reproduce an objective already seen, and only a strictly smaller objective
replaces the incumbent.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import combinations
from time import perf_counter, sleep
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (
    LossSpec,
    PointDataset,
    RegressionDataset,
    RegressionModel,
    SubspaceModel,
    _projection_residuals,
    loss,
    regression_inliers,
    subspace_inliers,
)
from .geometry import (
    ON_HYPERPLANE_TOL,
    _batched_normals,
    _classify,
    _orient,
    lift_regression,
    lift_subspace,
)
from .subsolvers import _regression_fit, _svd_basis

__all__ = [
    "NoHyperplaneError",
    "SolveReport",
    "seed_enumerator",
    "exact_regression",
    "approx_regression_p0",
    "exact_subspace",
]

# Beyond this many on-hyperplane points the completion loop would explode;
# such inputs grossly violate the general-position assumption.
_MAX_ONSET = 20

# Regression branches per block of inlier masks: a seed with _MAX_ONSET
# on-hyperplane points must not hold 2**_MAX_ONSET masks at once.
_BRANCH_BLOCK = 1024

# Seeds per block of the subspace scan and of the sampled draws; also their
# progress period.  Regression scans blocks of _RegressionSearch.seed_block.
_BLOCK = 256

_PARENT_POLL_S = 0.25  # seconds between a worker's checks that its parent is alive

ProgressFn = Callable[[int, float], None]
StopFn = Callable[[], bool]


class NoHyperplaneError(RuntimeError):
    """No seed produced a usable hyperplane; the data violates genericity."""


@dataclass
class SearchStats:
    """Counters of a search; :class:`SolveReport` carries them under the same names.

    * ``seeds_enumerated``: hyperplane seeds examined (all of them for the
      exact solvers, the iteration count for the sampling variants);
    * ``seeds_degenerate``: rank-deficient seeds that were skipped;
    * ``seeds_skipped``: seeds whose hyperplane had first coordinate ~ 0
      (regression only, where the orientation argument needs it positive);
    * ``inner_loops_skipped``: seeds whose whole completion loop was skipped
      because no completion could beat the incumbent;
    * ``sign_completions``: completion branches examined;
    * ``subproblems_solved`` / ``subproblems_pruned`` / ``subproblems_reused``:
      branches fitted and scored, branches rejected before that (inlier set
      too small, or count bound), and branches skipped because the same
      search (or worker) had fitted their inlier set.  They add up to
      ``sign_completions``.  For p = 0 regression each solved branch is one
      minimax fit, the winner's included; none is reused on generic data,
      where every branch's set S is feasible: its fit leaves at most
      n - |S| outliers, so the incumbent drops to at most that count and S
      fails the count bound from then on;
    * ``max_onset_size``: largest number of on-hyperplane points over all
      usable seeds;
    * ``onset_outside_seed``: subspace runs only, on-hyperplane points that
      were not part of the seed (nonzero only for non-generic data).
    """

    seeds_enumerated: int = 0
    seeds_degenerate: int = 0
    seeds_skipped: int = 0
    inner_loops_skipped: int = 0
    sign_completions: int = 0
    subproblems_solved: int = 0
    subproblems_pruned: int = 0
    subproblems_reused: int = 0
    max_onset_size: int = 0
    onset_outside_seed: int = 0

    def merge(self, other: SearchStats) -> None:
        """Add the counters of a search over other seeds (the maximum for the onset size)."""
        for f in fields(SearchStats):
            a, b = getattr(self, f.name), getattr(other, f.name)
            setattr(self, f.name, max(a, b) if f.name == "max_onset_size" else a + b)


@dataclass(kw_only=True)
class SolveReport(SearchStats):
    """Outcome of a solver run: the answer plus the :class:`SearchStats` counters."""

    objective: float
    model: RegressionModel | SubspaceModel | None
    inliers: np.ndarray
    approximate: bool
    cancelled: bool
    wall_time_seconds: float


def seed_enumerator(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of range(m), in lexicographic order."""
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    return combinations(range(m), k)


@functools.lru_cache(maxsize=32)
def _rank_tables(m: int, k: int) -> tuple[int, tuple[np.ndarray, ...]]:
    """C(m, k), the seed count, and per position i = k..1 the counts C(a, i), a < m.

    C(a, i) is the cumulative count sum_{t<a} C(t, i - 1).  Ranks are int64,
    so a count of 2**63 or more raises ``ValueError``.  The tables are
    computed as Python ints and clamped to 2**63 - 1, above every rank,
    which keeps each one sorted and changes no lookup.
    """
    total = math.comb(m, k)
    if total >= 2**63:
        raise ValueError(
            f"{total:,} seeds (the {k}-subsets of {m} points) are too many to "
            "enumerate; ranks must stay below 2**63"
        )
    tables = tuple(
        np.array([min(math.comb(a, i), 2**63 - 1) for a in range(m)], dtype=np.int64)
        for i in range(k, 0, -1)
    )
    for table in tables:  # shared by every caller through the cache
        table.flags.writeable = False
    return total, tables


def _combination_block(m: int, k: int, start: int, stop: int) -> np.ndarray:
    """Seeds of ranks start..stop-1 of the lexicographic k-subsets of range(m).

    Rank r is unranked through the combinatorial number system: with
    x = C(m, k) - 1 - r, the greedy a_i = max {a : C(a, i) <= x}, then
    x -= C(a_i, i), for i = k..1, gives the seed's elements m - 1 - a_i in
    increasing order.  One ``searchsorted`` per position serves the block.
    """
    out = np.empty((stop - start, k), dtype=np.intp)
    total, tables = _rank_tables(m, k)
    x = (total - 1) - np.arange(start, stop, dtype=np.int64)
    for col, table in enumerate(tables):
        a = np.searchsorted(table, x, side="right") - 1
        x -= table[a]
        out[:, col] = (m - 1) - a
    return out


def _lex_blocks(m: int, k: int, start: int, stop: int, size: int) -> Iterator[np.ndarray]:
    """Blocks of at most ``size`` seeds of ranks start..stop-1 of the enumeration."""
    for rank in range(start, stop, size):
        yield _combination_block(m, k, rank, min(rank + size, stop))


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context()


def _exit_with_parent() -> None:
    """Pool initializer: exit once this worker is re-parented, i.e. its parent died.

    A parent killed by a signal never shuts its pool down; its workers would
    finish their range and then wait for tasks forever.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


class _Search:
    """Incumbent, counters, fit memo, scan loops and branch loop of both searches.

    The incumbent is (``j``, ``best``), the smallest objective met so far
    and its solution (``None`` while ``j`` is the trivial eps^p n); it moves
    only on a strictly smaller objective, so the first tie in scan order wins.
    A subclass declares ``seed_block``, the seeds per block of its scan, and
    implements ``process_chunk(subsets)``, its only per-seed entry point,
    which hands each seed's branch masks to :meth:`_complete`;
    ``_solve(mask)``, the (objective, solution) of one inlier set; and
    ``_winner()``, the (model, inliers) of ``best``.
    """

    def __init__(self, zset, k: int, n: int, eps_p: float, min_size: int, count_bound: bool):
        self.zset = zset
        self.k = k
        self.n = n
        self.eps_p = eps_p
        self.min_size = min_size
        self.count_bound = count_bound
        self.j = eps_p * n
        self.best = None
        self.stats = SearchStats()
        self.cancelled = False
        self.fitted: set[bytes] = set()  # packed masks of the fitted inlier sets

    def _complete(self, masks: np.ndarray) -> None:
        """Prune, reuse or solve the branches of one seed, in order.

        Each row of ``masks`` is the inlier set S of one branch.  The count
        bound tests eps^p (n - |S|) >= J with the live incumbent J.
        """
        stats = self.stats
        stats.sign_completions += masks.shape[0]
        counts = np.count_nonzero(masks, axis=1).tolist()
        packed = np.packbits(masks, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
        for i, cnt in enumerate(counts):
            if cnt < self.min_size or (self.count_bound and self.eps_p * (self.n - cnt) >= self.j):
                stats.subproblems_pruned += 1
                continue
            if keys[i] in self.fitted:
                stats.subproblems_reused += 1
                continue
            self.fitted.add(keys[i])
            candidate, solution = self._solve(masks[i])
            stats.subproblems_solved += 1
            if candidate < self.j:
                self.j = candidate
                self.best = solution

    def scan(
        self,
        blocks: Iterable[np.ndarray],
        progress: ProgressFn | None,
        should_stop: StopFn | None,
    ) -> None:
        """Process blocks of seeds in order, reporting and polling after each."""
        for block in blocks:
            self.process_chunk(block)
            if progress is not None:
                progress(self.stats.seeds_enumerated, self.j)
            if should_stop is not None and should_stop():
                self.cancelled = True
                break

    def run_range(
        self,
        start: int,
        stop: int,
        progress: ProgressFn | None = None,
        should_stop: StopFn | None = None,
    ) -> None:
        """Scan ranks start..stop-1 of the lexicographic enumeration in blocks."""
        blocks = _lex_blocks(self.zset.size, self.k, start, stop, self.seed_block)
        self.scan(blocks, progress, should_stop)

    def run_draws(self, subsets: np.ndarray, progress: ProgressFn | None) -> None:
        """Scan drawn seeds (one per row, in row order) in blocks of ``_BLOCK``."""
        blocks = (subsets[r : r + _BLOCK] for r in range(0, subsets.shape[0], _BLOCK))
        self.scan(blocks, progress, None)

    # -- aggregation across parallel tasks -----------------------------------

    def partial(self) -> dict:
        return {"j": self.j, "best": self.best, "stats": self.stats}

    def merge_partial(self, part: dict) -> None:
        """Add a range's counters; take its incumbent only if strictly better."""
        self.stats.merge(part["stats"])
        if part["j"] < self.j:
            self.j, self.best = part["j"], part["best"]

    def solve(
        self,
        task: Callable[[tuple], dict],
        payload: tuple,
        threads: int,
        progress: ProgressFn | None,
        should_stop: StopFn | None,
    ) -> None:
        """Scan the whole enumeration, alone or over w = min(``threads``, cores) workers.

        It forks only when w > 1, there are at least four blocks of seeds and
        no ``should_stop`` is given, so that a cancellable run polls after
        every block whatever ``threads`` is; ``task((*payload, start, stop))``
        scans one of w contiguous ranges and returns its ``partial()``, and
        merging those in rank order keeps the first best candidate.
        ``progress`` then runs once per range.
        """
        total, _ = _rank_tables(self.zset.size, self.k)
        workers = min(int(threads), os.cpu_count() or 1)
        if workers <= 1 or total < 4 * self.seed_block or should_stop is not None:
            self.run_range(0, total, progress, should_stop)
            return
        bounds = [(i * total) // workers for i in range(workers + 1)]
        ranges = list(zip(bounds, bounds[1:]))
        payloads = [(*payload, a, b) for a, b in ranges]
        with ProcessPoolExecutor(workers, _pool_context(), initializer=_exit_with_parent) as pool:
            for (_, stop), part in zip(ranges, pool.map(task, payloads)):
                self.merge_partial(part)
                if progress is not None:
                    progress(stop, self.j)

    def build_report(self, wall: float, approximate: bool) -> SolveReport:
        if self.best is None:
            raise NoHyperplaneError(
                "no usable hyperplane seed was found; every seed was degenerate "
                "(or, for regression, orientation-ambiguous), which signals "
                "non-generic data"
            )
        model, inliers = self._winner()
        return SolveReport(
            objective=float(self.j),
            model=model,
            inliers=inliers,
            approximate=approximate,
            cancelled=self.cancelled,
            wall_time_seconds=wall,
            **asdict(self.stats),
        )


# ---------------------------------------------------------------------------
# Regression


class _RegressionSearch(_Search):
    """Incumbent-tracking state shared by the exact and sampled regression solvers.

    For p = 0 the count bound applies even without pruning, which keeps
    pruned and unpruned runs bit-identical.  It stays exact: the minimax fit
    of a feasible set S leaves at most n - |S| outliers, so an optimal
    inlier set passes the bound until the optimum is reached.
    """

    seed_block = 2048

    def __init__(self, data: RegressionDataset, spec: LossSpec, *, prune: bool = True):
        super().__init__(
            lift_regression(data, spec), data.d, data.n, spec.saturation,
            min_size=1, count_bound=prune or spec.p == 0,
        )
        self.data = data
        self.spec = spec
        self.prune = prune
        self.p = spec.p

    def _solve(self, mask: np.ndarray) -> tuple[float, np.ndarray]:
        w = _regression_fit(self.data.x[mask], self.data.y[mask], self.p)
        return float(np.sum(loss(self.spec, self.data.y - self.data.x @ w))), w

    def _handle_seed(self, below: np.ndarray, on: np.ndarray) -> None:
        """Complete one seed from its lifted masks ``below`` and ``on`` (length 2n).

        A point is an inlier when both lifted copies lie strictly below the
        hyperplane.  Branch b puts the t-th on-hyperplane point (in lifted
        order: first half, then second) below when bit n0 - 1 - t of b is 0,
        the order of ``product((-1, 1), repeat=n0)``.
        """
        pos = np.flatnonzero(on)
        n0 = pos.size
        if n0 > _MAX_ONSET:
            raise NoHyperplaneError(
                f"{n0} points lie on one candidate hyperplane; the data is far "
                "from general position and the completion loop would not terminate"
            )
        shifts = np.arange(n0 - 1, -1, -1)
        for first in range(0, 1 << n0, _BRANCH_BLOCK):
            branches = np.arange(first, min(first + _BRANCH_BLOCK, 1 << n0))
            lifted = np.empty((branches.size, on.size), dtype=bool)
            lifted[:] = below
            lifted[:, pos] = ((branches[:, None] >> shifts) & 1) == 0
            self._complete(lifted[:, : self.n] & lifted[:, self.n :])

    def process_chunk(self, subsets: np.ndarray) -> None:
        """Process a block of seeds, in order."""
        stats = self.stats
        stats.seeds_enumerated += subsets.shape[0]
        h, degen = _batched_normals(self.zset.z[subsets])
        _orient(h)
        below, on = _classify(self.zset, h)
        h1_small = h[:, 0] <= ON_HYPERPLANE_TOL
        base = np.count_nonzero(below[:, : self.n] & below[:, self.n :], axis=1)
        n0 = np.count_nonzero(on, axis=1)
        valid = ~degen & ~h1_small
        stats.seeds_degenerate += int(np.count_nonzero(degen))
        stats.seeds_skipped += int(np.count_nonzero(h1_small & ~degen))
        if valid.any():
            stats.max_onset_size = max(stats.max_onset_size, int(n0[valid].max()))
        if self.prune:
            # The bound uses the incumbent at block start, which is never
            # smaller than the live incumbent, so everything skipped here
            # would also be skipped by a seed-by-seed scan.  Survivors are
            # re-tested against the live incumbent (cheaply, from the
            # precomputed counts) before paying for the completion loop.
            skip = self.eps_p * (self.n - base) > self.j + self.eps_p * n0
            stats.inner_loops_skipped += int(np.count_nonzero(valid & skip))
            maybe = valid & ~skip
        else:
            maybe = valid
        for i in np.flatnonzero(maybe):
            if self.prune and self.eps_p * (self.n - base[i]) > self.j + self.eps_p * n0[i]:
                stats.inner_loops_skipped += 1
                continue
            self._handle_seed(below[i], on[i])

    def _winner(self) -> tuple[RegressionModel, np.ndarray]:
        model = RegressionModel(self.best)
        return model, regression_inliers(self.data, model, self.spec)


def _regression_range_task(payload) -> dict:
    x, y, p, eps, prune, start, stop = payload
    search = _RegressionSearch(RegressionDataset(x, y), LossSpec(p, eps), prune=prune)
    search.run_range(start, stop)
    return search.partial()


def exact_regression(
    data: RegressionDataset,
    spec: LossSpec,
    *,
    threads: int = 1,
    prune: bool = True,
    progress: ProgressFn | None = None,
    should_stop: StopFn | None = None,
) -> SolveReport:
    """Globally minimize the saturated regression loss by seed enumeration.

    Every d-subset of the 2n lifted points is used to build a candidate
    hyperplane; ambiguous (on-hyperplane) points are resolved by enumerating
    both labels, and the fixed-classification subproblem is solved for each
    surviving candidate inlier set.  The returned objective is the global
    minimum for data in general position.

    Seeds are scanned in blocks of 2,048 with the answer and counters of a
    seed-by-seed scan; ties go to the first candidate in scan order.  With
    ``threads`` > 1, at least 8,192 seeds and no ``should_stop``,
    min(``threads``, cores) worker processes scan contiguous ranges; the
    answer does not depend on the schedule, the solved/reused counters do
    (each worker has its own fit memo).  ``prune=False`` disables the
    incumbent bounds (for verification; the result must not change).
    ``progress(seeds done, incumbent)`` and ``should_stop`` run after every
    block (with workers, ``progress`` once per range); a run given
    ``should_stop`` scans sequentially, so it can be cancelled at any
    thread count.
    """
    t0 = perf_counter()
    search = _RegressionSearch(data, spec, prune=prune)
    payload = (data.x, data.y, spec.p, spec.epsilon, prune)
    search.solve(_regression_range_task, payload, threads, progress, should_stop)
    return search.build_report(perf_counter() - t0, approximate=False)


def approx_regression_p0(data: RegressionDataset, spec: LossSpec) -> tuple[RegressionModel, float]:
    """Outlier-count minimization without the completion loop.

    Scans every enumerated hyperplane with strictly positive first
    coordinate and keeps the model read off the normal itself; the winner is
    within ``2 d`` outliers of the optimum.  Each hyperplane is classified
    as the searches classify it, and its objective is n minus the number of
    points whose two lifted copies both lie strictly below it.  Seed points
    lie on the hyperplane, so they count as outliers, not by the round-off
    of their computed errors.  A second scan takes the normals of the
    d-subsets of data rows ``[y_i, -x_i]``, the interpolations through d
    points, which covers noiseless data and the regime where only d points
    are approximable; there errors are counted directly.
    """
    if spec.p != 0:
        raise ValueError("this shortcut is defined for p = 0 only")
    zset = lift_regression(data, spec)
    n, d = data.n, data.d
    best_j, best_w = np.inf, None
    for points, lifted in ((zset.z, True), (np.column_stack([data.y, -data.x]), False)):
        size = points.shape[0]
        total, _ = _rank_tables(size, d)  # the lifted scan, first, has the larger count
        for block in _lex_blocks(size, d, 0, total, _RegressionSearch.seed_block):
            h, degen = _batched_normals(points[block])
            _orient(h)
            usable = ~degen & (h[:, 0] > ON_HYPERPLANE_TOL)
            w = h[:, 1:] / np.where(usable, h[:, 0], 1.0)[:, None]
            if lifted:
                below = _classify(zset, h)[0]
                inliers = below[:, :n] & below[:, n:]
            else:
                inliers = np.abs(data.y - w @ data.x.T) < spec.epsilon
            j = np.where(usable, n - np.count_nonzero(inliers, axis=1), np.inf)
            i = int(np.argmin(j))  # argmin returns the first minimizer
            if j[i] < best_j:
                best_j, best_w = float(j[i]), w[i].copy()
    if best_w is None:
        raise NoHyperplaneError("no usable hyperplane seed was found")
    return RegressionModel(best_w), float(best_j)


# ---------------------------------------------------------------------------
# Subspace estimation


class _SubspaceSearch(_Search):
    """Incumbent-tracking state shared by the exact and sampled subspace solvers."""

    seed_block = _BLOCK

    def __init__(self, data: PointDataset, spec: LossSpec):
        if spec.p == 1:
            raise ValueError(
                "p = 1 subspace estimation is unsupported: the "
                "fixed-classification subproblem has no solver here"
            )
        super().__init__(
            lift_subspace(data, spec), data.lifted_dim, data.n, spec.saturation,
            min_size=max(data.subspace_dim, 1), count_bound=False,
        )
        self.data = data
        self.spec = spec
        self.ds = data.subspace_dim
        # Seed-point selection of every completion branch, in branch order:
        # the subsets of the seed in binary counting order (bit k selects
        # seed point k), each taken with orientation -1, then +1.
        bits = np.arange(2**self.k)[:, None] >> np.arange(self.k)
        self._branch_sel = np.repeat((bits & 1).astype(bool), 2, axis=0)

    def process_chunk(self, subsets: np.ndarray) -> None:
        """Process a block of seeds, in order."""
        self.stats.seeds_enumerated += subsets.shape[0]
        h, degen = _batched_normals(self.zset.z[subsets])
        _orient(h)
        self.stats.seeds_degenerate += int(np.count_nonzero(degen))
        below, on = _classify(self.zset, h)
        for i in np.flatnonzero(~degen):
            self._handle_seed(subsets[i], below[i], on[i])

    def _handle_seed(self, idx: np.ndarray, below: np.ndarray, on: np.ndarray) -> None:
        """Complete one seed from its masks ``below``, ``on``; its branches form one block."""
        stats = self.stats
        onset = int(np.count_nonzero(on))
        stats.max_onset_size = max(stats.max_onset_size, onset)
        stats.onset_outside_seed += onset - int(np.count_nonzero(on[idx]))
        # Inlier mask of every branch: the points strictly on the branch's
        # side plus its selection of seed points.
        masks = np.empty((self._branch_sel.shape[0], self.n), dtype=bool)
        masks[0::2] = below
        masks[1::2] = ~(below | on)
        masks[:, idx] |= self._branch_sel
        self._complete(masks)

    def _solve(self, mask: np.ndarray) -> tuple[float, np.ndarray]:
        basis = np.ascontiguousarray(_svd_basis(self.data.x[mask], self.ds)[0])
        r = _projection_residuals(self.data.x, basis)
        return float(np.sum(loss(self.spec, r))), basis

    def _winner(self) -> tuple[SubspaceModel, np.ndarray]:
        model = SubspaceModel(self.best)
        return model, subspace_inliers(self.data, model, self.spec)


def _subspace_range_task(payload) -> dict:
    x, ds, p, eps, start, stop = payload
    search = _SubspaceSearch(PointDataset(x, ds), LossSpec(p, eps))
    search.run_range(start, stop)
    return search.partial()


def exact_subspace(
    data: PointDataset,
    spec: LossSpec,
    *,
    threads: int = 1,
    progress: ProgressFn | None = None,
    should_stop: StopFn | None = None,
) -> SolveReport:
    """Globally minimize the saturated subspace loss by seed enumeration.

    Every D-subset of the quadratically lifted points (D = d(d+1)/2) spawns
    a candidate hyperplane; for every sub-subset of the seed and both
    orientations, the points on the chosen side plus the selected seed
    points form a candidate inlier set, which is fitted by the
    squared-residual subspace solver and scored with the true objective.
    Supports p in {0, 2}.  The p = 2 result is the global minimum for data
    in general position; p = 0 results are flagged ``approximate``, because
    the SVD fit of a feasible inlier set can leave one of its points outside
    epsilon, so the reported outlier count may exceed the optimum.
    ``threads`` is used as in :func:`exact_regression`, from 1,024 seeds on
    and only without ``should_stop``; ``progress`` and ``should_stop`` run
    every 256 seeds and after the last.
    """
    t0 = perf_counter()
    search = _SubspaceSearch(data, spec)
    payload = (data.x, data.subspace_dim, spec.p, spec.epsilon)
    search.solve(_subspace_range_task, payload, threads, progress, should_stop)
    return search.build_report(perf_counter() - t0, approximate=spec.p == 0)
