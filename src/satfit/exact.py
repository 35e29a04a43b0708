"""Exact solvers: enumerate candidate hyperplane seeds, resolve on-hyperplane
points by sign completion, solve the fixed-classification subproblem for each
candidate inlier set, and track the incumbent.

Both solvers are exhaustive over all seeds of lifted points and are exact on
data in general position, except for p = 0 subspace estimation, whose L2
subproblem can miss the optimum (see :func:`exact_subspace`).  Seeds are
enumerated in lexicographic order and ties between equal-objective solutions
are broken by the smallest seed rank, then the smallest completion branch, so
repeated runs are bit-identical.

Each search has one per-seed pipeline, ``process_chunk(subsets, base_rank)``:
the normals of a block of seeds come from one call of
:func:`.geometry._batched_normals` (cross product for d = 2 regression,
closed-form cofactors for 3x4 seeds, batched SVD above that), their margins
from one matrix product, and only seeds that survive the incumbent bound
enter the per-seed completion loop.  The exact solvers feed it lexicographic
blocks of the enumeration; the sampling variants in :mod:`.sampling` feed it
blocks of random draws, ranked by iteration.  The subspace search builds the
inlier masks of all completion branches of a seed as one boolean array.

Each search fits a given inlier set once.  A set is keyed by its packed
bitmask; a branch whose set was fitted before is skipped without fitting or
scoring.  This cannot change the answer: the incumbent is replaced only by a
strictly smaller objective, the repeat would reproduce an objective already
seen, and the incumbent has not risen since.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import combinations, islice, product
from time import perf_counter
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
    _fix_signs_batch,
    lift_regression,
    lift_subspace,
)
from .subsolvers import _lad_fit, _ls_fit, _minimax_fit, _svd_basis

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

# Seeds per block of the subspace scan and of the sampled draws; also their
# progress period.
_BLOCK = 256

ProgressFn = Callable[[int, float], None]
StopFn = Callable[[], bool]


class NoHyperplaneError(RuntimeError):
    """No seed produced a usable hyperplane; the data violates genericity."""


def _combination_block(it: Iterator[tuple[int, ...]], count: int, k: int) -> np.ndarray:
    return np.fromiter(it, dtype=np.dtype((np.intp, k)), count=count)


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
    * ``subproblems_solved`` / ``subproblems_pruned``: fixed-classification
      fits performed, and branches rejected before solving (for p = 0 the
      objective is the outlier count, so non-improving branches are counted
      as pruned and a single final fit recovers the model);
    * ``subproblems_reused``: branches whose inlier set had already been
      fitted by the same search (or worker), skipped without a fit.  For
      p in {1, 2} regression and for subspace runs, solved + pruned + reused
      equals ``sign_completions``;
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
    """Outcome of a solver run: the answer plus the :class:`SearchStats` counters.

    ``certificate_boundary`` is set on p = 0 regression runs when the final
    minimax fit attains a maximum error within tolerance of the threshold
    (or above it), meaning the reported inlier set sits on the boundary of
    feasibility.
    """

    objective: float
    model: RegressionModel | SubspaceModel | None
    inliers: np.ndarray
    approximate: bool
    certificate_boundary: bool
    cancelled: bool
    wall_time_seconds: float


def seed_enumerator(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of range(m), in lexicographic order."""
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    return combinations(range(m), k)


def _lex_blocks(m: int, k: int, start: int, stop: int, size: int) -> Iterator[tuple[int, np.ndarray]]:
    """(rank of the first seed, seeds) blocks of ranks start..stop-1 of the enumeration."""
    it = islice(combinations(range(m), k), start, None)
    for rank in range(start, stop, size):
        yield rank, _combination_block(it, min(size, stop - rank), k)


def _split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    bounds = [(i * total) // parts for i in range(parts + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context()


class _Search:
    """Incumbent, counters, fit memo and scan loops shared by both searches.

    A subclass passes its lifted set, the seed size ``k`` and the initial
    incumbent ``j``, keeps in ``best`` a tuple that starts with (objective,
    seed rank, branch rank), and implements ``process_chunk(subsets,
    base_rank)``, its only per-seed entry point, and ``_winner()``, which
    returns (model, inliers, certificate_boundary) of ``best``.
    """

    def __init__(self, zset, k: int, j: float):
        self.zset = zset
        self.k = k
        self.j = j
        self.best: tuple | None = None
        self.stats = SearchStats()
        self.cancelled = False
        self.fitted: set[bytes] = set()  # packed masks of the fitted inlier sets

    def scan(
        self,
        blocks: Iterable[tuple[int, np.ndarray]],
        progress: ProgressFn | None,
        should_stop: StopFn | None,
    ) -> None:
        """Process (base rank, seeds) blocks in order, reporting and polling after each."""
        for rank, block in blocks:
            self.process_chunk(block, rank)
            if progress is not None:
                progress(self.stats.seeds_enumerated, self.j)
            if should_stop is not None and should_stop():
                self.cancelled = True
                break

    def run_range(
        self,
        start: int,
        stop: int,
        chunk_size: int,
        progress: ProgressFn | None = None,
        should_stop: StopFn | None = None,
    ) -> None:
        """Scan ranks start..stop-1 of the lexicographic enumeration in chunks."""
        blocks = _lex_blocks(self.zset.size, self.k, start, stop, chunk_size)
        self.scan(blocks, progress, should_stop)

    def run_draws(self, subsets: np.ndarray, progress: ProgressFn | None) -> None:
        """Scan drawn seeds (one per row, ranked by row) in blocks of ``_BLOCK``."""
        blocks = ((r, subsets[r : r + _BLOCK]) for r in range(0, subsets.shape[0], _BLOCK))
        self.scan(blocks, progress, None)

    # -- aggregation across parallel tasks -----------------------------------

    def partial(self) -> dict:
        return {"best": self.best, "stats": self.stats, "cancelled": self.cancelled}

    def merge_partial(self, part: dict) -> None:
        self.stats.merge(part["stats"])
        self.cancelled = self.cancelled or part["cancelled"]
        cand = part["best"]
        if cand is not None and (self.best is None or cand[:3] < self.best[:3]):
            self.best = cand
            self.j = cand[0]

    def solve(
        self,
        task: Callable[[tuple], dict],
        payload: tuple,
        total: int,
        threads: int,
        chunk_size: int,
        progress: ProgressFn | None,
        should_stop: StopFn | None,
    ) -> None:
        """Scan all ``total`` seeds, in contiguous ranges over ``threads`` processes if > 1.

        ``task((*payload, start, stop, chunk_size))`` scans one range in a
        worker and returns its ``partial()``.  Partials are merged by
        (objective, seed rank, branch rank), so the answer does not depend on
        the schedule; with threads, ``progress`` runs once per range and
        ``should_stop`` is not polled.
        """
        if threads <= 1:
            self.run_range(0, total, chunk_size, progress, should_stop)
            return
        ranges = _split_ranges(total, threads)
        payloads = [(*payload, a, b, chunk_size) for a, b in ranges]
        with ProcessPoolExecutor(max_workers=threads, mp_context=_pool_context()) as pool:
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
        model, inliers, boundary = self._winner()
        return SolveReport(
            objective=float(self.best[0]),
            model=model,
            inliers=inliers,
            approximate=approximate,
            certificate_boundary=boundary,
            cancelled=self.cancelled,
            wall_time_seconds=wall,
            **asdict(self.stats),
        )


# ---------------------------------------------------------------------------
# Regression


class _RegressionSearch(_Search):
    """Incumbent-tracking state shared by the exact and sampled regression solvers."""

    def __init__(self, data: RegressionDataset, spec: LossSpec, *, prune: bool = True):
        super().__init__(lift_regression(data, spec), data.d, spec.saturation * data.n)
        self.data = data
        self.spec = spec
        self.prune = prune
        self.n = data.n
        self.p = spec.p
        self.eps = spec.epsilon
        self.eps_p = spec.saturation
        self.z1t = np.ascontiguousarray(self.zset.z[: self.n].T)
        self.tol1 = ON_HYPERPLANE_TOL * self.zset.scales[: self.n]
        self.tol2 = ON_HYPERPLANE_TOL * self.zset.scales[self.n :]
        self.two_eps = 2.0 * self.eps
        # best: (objective, seed rank, branch rank, w or None, inlier indices
        # or None).  For p = 0 the model is fitted once at the end from the
        # stored inlier set.

    def _fit(self, idx: np.ndarray) -> np.ndarray:
        if self.p == 1:
            return _lad_fit(self.data.x[idx], self.data.y[idx])
        return _ls_fit(self.data.x[idx], self.data.y[idx])[0]

    def _handle_seed(self, rank: int, h: np.ndarray, g: np.ndarray) -> None:
        """Completion loop for one classified seed; ``g`` holds the first-half margins."""
        stats = self.stats
        g2 = -g - self.two_eps * h[0]
        zero1 = np.abs(g) <= self.tol1
        zero2 = np.abs(g2) <= self.tol2
        q1 = np.where(g > 0, 1, -1).astype(np.int8)
        q1[zero1] = 0
        q2 = np.where(g2 > 0, 1, -1).astype(np.int8)
        q2[zero2] = 0
        pos1 = np.flatnonzero(zero1)
        pos2 = np.flatnonzero(zero2)
        n0 = pos1.size + pos2.size
        if n0 > _MAX_ONSET:
            raise NoHyperplaneError(
                f"{n0} points lie on one candidate hyperplane; the data is far "
                "from general position and the completion loop would not terminate"
            )
        n1 = pos1.size
        for branch, signs in enumerate(product((-1, 1), repeat=n0)):
            stats.sign_completions += 1
            q1b = q1.copy()
            q2b = q2.copy()
            q1b[pos1] = signs[:n1]
            q2b[pos2] = signs[n1:]
            mask = (q1b == -1) & (q2b == -1)
            cnt = int(np.count_nonzero(mask))
            if self.p == 0:
                candidate = float(self.n - cnt)
                if candidate < self.j:
                    self.j = candidate
                    self.best = (candidate, rank, branch, None, np.flatnonzero(mask))
                else:
                    stats.subproblems_pruned += 1
                continue
            if cnt == 0 or (self.prune and self.eps_p * (self.n - cnt) >= self.j):
                stats.subproblems_pruned += 1
                continue
            key = np.packbits(mask).tobytes()
            if key in self.fitted:
                stats.subproblems_reused += 1
                continue
            self.fitted.add(key)
            idx = np.flatnonzero(mask)
            w = self._fit(idx)
            stats.subproblems_solved += 1
            candidate = float(np.sum(loss(self.spec, self.data.y - self.data.x @ w)))
            if candidate < self.j:
                self.j = candidate
                self.best = (candidate, rank, branch, w.copy(), None)

    def process_chunk(self, subsets: np.ndarray, base_rank: int) -> None:
        """Process a block of seeds; seed i has rank ``base_rank + i``."""
        stats = self.stats
        stats.seeds_enumerated += subsets.shape[0]
        h, degen = _batched_normals(self.zset.z[subsets])
        _fix_signs_batch(h)
        h[h[:, 0] < 0] *= -1.0
        h1_small = h[:, 0] <= ON_HYPERPLANE_TOL
        g = h @ self.z1t
        g2 = -g - self.two_eps * h[:, :1]
        base = np.count_nonzero((g < -self.tol1) & (g2 < -self.tol2), axis=1)
        n0 = np.count_nonzero(np.abs(g) <= self.tol1, axis=1)
        n0 += np.count_nonzero(np.abs(g2) <= self.tol2, axis=1)
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
            self._handle_seed(base_rank + int(i), h[i], g[i])

    def _winner(self) -> tuple[RegressionModel, np.ndarray, bool]:
        _, _, _, w, inlier_idx = self.best
        if self.p != 0:
            model = RegressionModel(w)
            return model, regression_inliers(self.data, model, self.spec), False
        w, value = _minimax_fit(self.data.x[inlier_idx], self.data.y[inlier_idx])
        self.stats.subproblems_solved += 1
        tau = ON_HYPERPLANE_TOL * max(1.0, self.eps)
        boundary = value >= self.eps - tau
        if value >= self.eps + tau:
            warnings.warn(
                "the best inlier set admits no model with all errors "
                "strictly inside the threshold; reporting it anyway",
                RuntimeWarning,
                stacklevel=4,
            )
        return RegressionModel(w), np.asarray(inlier_idx, dtype=np.intp), bool(boundary)


def _regression_range_task(payload) -> dict:
    x, y, p, eps, prune, start, stop, chunk_size = payload
    search = _RegressionSearch(RegressionDataset(x, y), LossSpec(p, eps), prune=prune)
    search.run_range(start, stop, chunk_size)
    return search.partial()


def exact_regression(
    data: RegressionDataset,
    spec: LossSpec,
    *,
    threads: int = 1,
    prune: bool = True,
    chunk_size: int = 2048,
    progress: ProgressFn | None = None,
    should_stop: StopFn | None = None,
) -> SolveReport:
    """Globally minimize the saturated regression loss by seed enumeration.

    Every d-subset of the 2n lifted points is used to build a candidate
    hyperplane; ambiguous (on-hyperplane) points are resolved by enumerating
    both labels, and the fixed-classification subproblem is solved for each
    surviving candidate inlier set.  The returned objective is the global
    minimum for data in general position.

    ``threads`` > 1 processes contiguous seed ranges in separate processes;
    candidates are merged by (objective, seed rank, branch rank), so the
    final model does not depend on the schedule.  ``prune=False`` disables
    the incumbent bounds (for verification; the result must not change).
    ``progress`` is invoked between chunks with (seeds processed, incumbent)
    and ``should_stop`` is polled between chunks.  ``chunk_size=1`` is the
    seed-by-seed scan with the live incumbent; every chunk size gives the
    same answer and counters.
    """
    t0 = perf_counter()
    total = math.comb(2 * data.n, data.d)
    threads = max(1, int(threads)) if total >= 4 * chunk_size else 1
    search = _RegressionSearch(data, spec, prune=prune)
    payload = (data.x, data.y, spec.p, spec.epsilon, prune)
    search.solve(_regression_range_task, payload, total, threads, chunk_size, progress, should_stop)
    return search.build_report(perf_counter() - t0, approximate=False)


def approx_regression_p0(
    data: RegressionDataset, spec: LossSpec, *, chunk_size: int = 4096
) -> tuple[RegressionModel, float]:
    """Outlier-count minimization without the completion loop.

    Scans every enumerated hyperplane with strictly positive first
    coordinate and keeps the model read off the normal itself; the winner is
    within ``2 d`` outliers of the optimum.  Models read off a hyperplane
    leave their seed points exactly on the threshold, so those d points are
    counted as outliers by index (lifted row i is data point i mod n), not by
    the round-off of their computed errors.  The scan also considers the
    exact interpolations through d data points, which covers noiseless data
    and the trivial regime where only d points are approximable.
    """
    if spec.p != 0:
        raise ValueError("this shortcut is defined for p = 0 only")
    zset = lift_regression(data, spec)
    n, d = data.n, data.d
    xt = np.ascontiguousarray(data.x.T)
    best_j = np.inf
    best_w: np.ndarray | None = None
    for _, block in _lex_blocks(zset.size, d, 0, math.comb(zset.size, d), chunk_size):
        h, degen = _batched_normals(zset.z[block])
        valid = np.flatnonzero(~degen & (np.abs(h[:, 0]) > ON_HYPERPLANE_TOL))
        if valid.size == 0:
            continue
        w = h[valid, 1:] / h[valid, :1]
        inside = np.abs(data.y[None, :] - w @ xt) < spec.epsilon
        inside[np.arange(valid.size)[:, None], block[valid] % n] = False
        j = n - np.count_nonzero(inside, axis=1)
        i = int(np.argmin(j))  # argmin returns the first minimizer
        if j[i] < best_j:
            best_j = float(j[i])
            best_w = w[i].copy()
    for subset in combinations(range(n), d):
        idx = np.asarray(subset, dtype=np.intp)
        try:
            w = np.linalg.solve(data.x[idx], data.y[idx])
        except np.linalg.LinAlgError:
            continue
        j = float(n - np.count_nonzero(np.abs(data.y - data.x @ w) < spec.epsilon))
        if j < best_j:
            best_j = j
            best_w = w
    if best_w is None:
        raise NoHyperplaneError("no usable hyperplane seed was found")
    return RegressionModel(best_w), float(best_j)


# ---------------------------------------------------------------------------
# Subspace estimation


class _SubspaceSearch(_Search):
    """Incumbent-tracking state shared by the exact and sampled subspace solvers."""

    def __init__(self, data: PointDataset, spec: LossSpec):
        if spec.p == 1:
            raise ValueError(
                "p = 1 subspace estimation is unsupported: the "
                "fixed-classification subproblem has no solver here"
            )
        super().__init__(lift_subspace(data, spec), data.lifted_dim, spec.saturation * data.n)
        self.data = data
        self.spec = spec
        self.n = data.n
        self.ds = data.subspace_dim
        self.zt = np.ascontiguousarray(self.zset.z.T)
        self.tol = ON_HYPERPLANE_TOL * self.zset.scales
        # best: (objective, seed rank, branch rank, basis).
        # Seed-point selection of every completion branch, in branch order:
        # the subsets of the seed in binary counting order (bit k selects
        # seed point k), each taken with orientation -1, then +1.
        bits = np.arange(2**self.k)[:, None] >> np.arange(self.k)
        self._branch_sel = np.repeat((bits & 1).astype(bool), 2, axis=0)

    def process_chunk(self, subsets: np.ndarray, base_rank: int) -> None:
        """Process a block of seeds; seed i has rank ``base_rank + i``."""
        self.stats.seeds_enumerated += subsets.shape[0]
        h, degen = _batched_normals(self.zset.z[subsets])
        _fix_signs_batch(h)
        self.stats.seeds_degenerate += int(np.count_nonzero(degen))
        vals = h @ self.zt
        for i in np.flatnonzero(~degen):
            self._handle_seed(base_rank + int(i), subsets[i], vals[i])

    def _handle_seed(self, rank: int, idx: np.ndarray, vals: np.ndarray) -> None:
        """Fit and score every completion branch of one seed with margins ``vals``."""
        stats = self.stats
        zero = np.abs(vals) <= self.tol
        pos = vals > 0
        onset = int(np.count_nonzero(zero))
        stats.max_onset_size = max(stats.max_onset_size, onset)
        stats.onset_outside_seed += onset - int(np.count_nonzero(zero[idx]))
        # Inlier mask of every branch: the points strictly on the branch's
        # side plus its selection of seed points.
        masks = np.empty((self._branch_sel.shape[0], self.n), dtype=bool)
        masks[0::2] = ~pos & ~zero
        masks[1::2] = pos & ~zero
        masks[:, idx] |= self._branch_sel
        stats.sign_completions += masks.shape[0]
        fittable = np.count_nonzero(masks, axis=1) >= max(self.ds, 1)
        stats.subproblems_pruned += masks.shape[0] - int(np.count_nonzero(fittable))
        packed = np.packbits(masks, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
        for branch in np.flatnonzero(fittable).tolist():
            key = keys[branch]
            if key in self.fitted:
                stats.subproblems_reused += 1
                continue
            self.fitted.add(key)
            basis = np.ascontiguousarray(_svd_basis(self.data.x[masks[branch]], self.ds)[0])
            stats.subproblems_solved += 1
            r = _projection_residuals(self.data.x, basis)
            candidate = float(np.sum(loss(self.spec, r)))
            if candidate < self.j:
                self.j = candidate
                self.best = (candidate, rank, branch, basis)

    def _winner(self) -> tuple[SubspaceModel, np.ndarray, bool]:
        model = SubspaceModel(self.best[3])
        return model, subspace_inliers(self.data, model, self.spec), False


def _subspace_range_task(payload) -> dict:
    x, ds, p, eps, start, stop, chunk_size = payload
    search = _SubspaceSearch(PointDataset(x, ds), LossSpec(p, eps))
    search.run_range(start, stop, chunk_size)
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
    ``progress`` and ``should_stop`` run every 256 seeds and after the last.
    """
    t0 = perf_counter()
    total = math.comb(data.n, data.lifted_dim)
    threads = max(1, int(threads)) if total >= 64 else 1
    search = _SubspaceSearch(data, spec)
    payload = (data.x, data.subspace_dim, spec.p, spec.epsilon)
    search.solve(_subspace_range_task, payload, total, threads, _BLOCK, progress, should_stop)
    return search.build_report(perf_counter() - t0, approximate=spec.p == 0)
