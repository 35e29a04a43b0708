"""Exact solvers: enumerate candidate hyperplane seeds, resolve on-hyperplane
points by sign completion, solve the fixed-classification subproblem for each
candidate inlier set, and track the incumbent.

Both solvers are exhaustive over all seeds of lifted points and are exact on
data in general position, except for p = 0 subspace estimation, whose L2
subproblem can miss the optimum (see :func:`exact_subspace`).  Seeds are
enumerated in lexicographic order and ties between equal-objective solutions
are broken by the smallest seed rank, then the smallest completion branch, so
repeated runs are bit-identical.

The regression enumeration is processed in vectorized chunks (batched null
spaces and classifications); only seeds that survive the incumbent bound fall
back to the scalar completion loop.  Seed normals come from the cross product
for d = 2, from the closed-form cofactors of the 3x4 seed for d = 3 and from
a batched SVD above that.  The chunked path computes exactly the same
quantities as the scalar path used by the sampling variants.  The
subspace search builds the inlier masks of all completion branches of a seed
as one boolean array.

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
from dataclasses import dataclass
from itertools import combinations, islice, product
from time import perf_counter
from typing import Callable, Iterator

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
    _cofactor_normals,
    _nullspace_direction,
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

_EPS = np.finfo(float).eps

# Beyond this many on-hyperplane points the completion loop would explode;
# such inputs grossly violate the general-position assumption.
_MAX_ONSET = 20

ProgressFn = Callable[[int, float], None]
StopFn = Callable[[], bool]


class NoHyperplaneError(RuntimeError):
    """No seed produced a usable hyperplane; the data violates genericity."""


def _batched_normals(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit null-space directions for a stack of seed matrices (B, m-1, m).

    Mirrors the scalar helper in :mod:`.geometry`: cross products for the
    two-row R^3 case (d = 2), cofactors for the three-row R^4 case (d = 3,
    see :func:`.geometry._cofactor_normals`), batched SVD above that.
    Returns the raw directions (sign not yet fixed) and the degeneracy mask.
    """
    if a.shape[1:] == (3, 4):
        return _cofactor_normals(a)
    if a.shape[1] == 2 and a.shape[2] == 3:
        h = np.cross(a[:, 0, :], a[:, 1, :])
        norms = np.linalg.norm(h, axis=1)
        bound = 3.0 * _EPS * np.linalg.norm(a[:, 0, :], axis=1)
        bound *= np.linalg.norm(a[:, 1, :], axis=1)
        degen = norms <= bound
        h /= np.where(degen, 1.0, norms)[:, None]
        return h, degen
    _, s, vh = np.linalg.svd(a)
    h = vh[:, -1, :].copy()
    rank_tol = max(a.shape[1], a.shape[2]) * _EPS
    degen = (s[:, 0] <= 0.0) | (s[:, -1] <= rank_tol * s[:, 0])
    return h, degen


def _fix_signs_batch(h: np.ndarray) -> None:
    """Vectorized version of the deterministic leading-sign fix, in place."""
    absh = np.abs(h)
    thr = 1e-12 * absh.max(axis=1)
    lead = h[np.arange(h.shape[0]), np.argmax(absh > thr[:, None], axis=1)]
    h[lead < 0] *= -1.0


def _combination_block(it: Iterator[tuple[int, ...]], count: int, k: int) -> np.ndarray:
    return np.fromiter(it, dtype=np.dtype((np.intp, k)), count=count)


@dataclass
class SolveReport:
    """Outcome of a solver run.

    Counters:

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

    ``certificate_boundary`` is set on p = 0 regression runs when the final
    minimax fit attains a maximum error within tolerance of the threshold
    (or above it), meaning the reported inlier set sits on the boundary of
    feasibility.
    """

    objective: float
    model: RegressionModel | SubspaceModel | None
    inliers: np.ndarray
    seeds_enumerated: int
    seeds_degenerate: int
    seeds_skipped: int
    inner_loops_skipped: int
    sign_completions: int
    subproblems_solved: int
    subproblems_pruned: int
    subproblems_reused: int
    max_onset_size: int
    onset_outside_seed: int
    approximate: bool
    certificate_boundary: bool
    cancelled: bool
    wall_time_seconds: float


def seed_enumerator(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of range(m), in lexicographic order."""
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    return combinations(range(m), k)


def _split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    bounds = [(i * total) // parts for i in range(parts + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context()


# ---------------------------------------------------------------------------
# Regression


class _RegressionSearch:
    """Incumbent-tracking state shared by the exact and sampled solvers."""

    def __init__(self, data: RegressionDataset, spec: LossSpec, *, prune: bool = True):
        self.data = data
        self.spec = spec
        self.prune = prune
        self.n = data.n
        self.d = data.d
        self.p = spec.p
        self.eps = spec.epsilon
        self.eps_p = spec.saturation
        self.zset = lift_regression(data, spec)
        self.z1 = self.zset.z[: self.n]
        self.z1t = np.ascontiguousarray(self.z1.T)
        self.tol1 = ON_HYPERPLANE_TOL * self.zset.scales[: self.n]
        self.tol2 = ON_HYPERPLANE_TOL * self.zset.scales[self.n :]
        self.two_eps = 2.0 * self.eps
        self.j = self.eps_p * self.n
        # Best candidate: (objective, seed rank, branch rank, w or None,
        # inlier indices or None).  For p = 0 the model is fitted once at the
        # end from the stored inlier set.
        self.best: tuple | None = None
        self.seeds = 0
        self.degenerate = 0
        self.skipped = 0
        self.inner_skipped = 0
        self.completions = 0
        self.solved = 0
        self.pruned = 0
        self.reused = 0
        self.max_onset = 0
        self.cancelled = False
        self.fitted: set[bytes] = set()  # packed masks of the fitted inlier sets

    # -- per-seed processing ------------------------------------------------

    def _fit(self, idx: np.ndarray) -> np.ndarray:
        if self.p == 1:
            return _lad_fit(self.data.x[idx], self.data.y[idx])
        return _ls_fit(self.data.x[idx], self.data.y[idx])[0]

    def _handle_seed(self, rank: int, h: np.ndarray, g: np.ndarray) -> None:
        """Completion loop for one classified seed; ``g`` holds the first-half margins."""
        g2 = -g - self.two_eps * h[0]
        zero1 = np.abs(g) <= self.tol1
        zero2 = np.abs(g2) <= self.tol2
        q1 = np.where(g > 0, 1, -1).astype(np.int8)
        q1[zero1] = 0
        q2 = np.where(g2 > 0, 1, -1).astype(np.int8)
        q2[zero2] = 0
        base = int(np.count_nonzero((q1 == -1) & (q2 == -1)))
        pos1 = np.flatnonzero(zero1)
        pos2 = np.flatnonzero(zero2)
        n0 = pos1.size + pos2.size
        self.max_onset = max(self.max_onset, n0)
        if n0 > _MAX_ONSET:
            raise NoHyperplaneError(
                f"{n0} points lie on one candidate hyperplane; the data is far "
                "from general position and the completion loop would not terminate"
            )
        if self.prune and self.eps_p * (self.n - base) > self.j + self.eps_p * n0:
            self.inner_skipped += 1
            return
        n1 = pos1.size
        for branch, signs in enumerate(product((-1, 1), repeat=n0)):
            self.completions += 1
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
                    self.pruned += 1
                continue
            if cnt == 0 or (self.prune and self.eps_p * (self.n - cnt) >= self.j):
                self.pruned += 1
                continue
            key = np.packbits(mask).tobytes()
            if key in self.fitted:
                self.reused += 1
                continue
            self.fitted.add(key)
            idx = np.flatnonzero(mask)
            w = self._fit(idx)
            self.solved += 1
            candidate = float(np.sum(loss(self.spec, self.data.y - self.data.x @ w)))
            if candidate < self.j:
                self.j = candidate
                self.best = (candidate, rank, branch, w.copy(), None)

    def process_seed(self, rank: int, subset) -> None:
        """Scalar path used by the sampling variants; matches the chunked path."""
        self.seeds += 1
        h = _nullspace_direction(self.zset.z[np.asarray(subset, dtype=np.intp)])
        if h is None:
            self.degenerate += 1
            return
        if h[0] < 0:
            np.negative(h, out=h)
        if h[0] <= ON_HYPERPLANE_TOL:
            self.skipped += 1
            return
        self._handle_seed(rank, h, self.z1 @ h)

    def process_chunk(self, subsets: np.ndarray, base_rank: int) -> None:
        """Vectorized treatment of a block of lexicographically consecutive seeds."""
        count = subsets.shape[0]
        self.seeds += count
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
        self.degenerate += int(np.count_nonzero(degen))
        self.skipped += int(np.count_nonzero(h1_small & ~degen))
        if valid.any():
            self.max_onset = max(self.max_onset, int(n0[valid].max()))
        if self.prune:
            # The bound uses the incumbent at chunk start, which is never
            # smaller than the live incumbent, so everything skipped here
            # would also be skipped by the sequential scan.  Survivors are
            # re-tested against the live incumbent (cheaply, from the
            # precomputed counts) before paying for the completion loop.
            skip = self.eps_p * (self.n - base) > self.j + self.eps_p * n0
            self.inner_skipped += int(np.count_nonzero(valid & skip))
            maybe = valid & ~skip
        else:
            maybe = valid
        for i in np.flatnonzero(maybe):
            if self.prune and self.eps_p * (self.n - base[i]) > self.j + self.eps_p * n0[i]:
                self.inner_skipped += 1
                continue
            self._handle_seed(base_rank + int(i), h[i], g[i])

    # -- driving ------------------------------------------------------------

    def run_range(
        self,
        start: int,
        stop: int,
        chunk_size: int,
        progress: ProgressFn | None,
        should_stop: StopFn | None,
    ) -> None:
        it = combinations(range(self.zset.size), self.d)
        if start:
            it = islice(it, start, None)
        rank = start
        while rank < stop:
            take = min(chunk_size, stop - rank)
            block = _combination_block(it, take, self.d)
            if block.shape[0] == 0:
                break
            self.process_chunk(block, rank)
            rank += block.shape[0]
            if progress is not None:
                progress(self.seeds, self.j)
            if should_stop is not None and should_stop():
                self.cancelled = True
                break

    # -- aggregation across parallel tasks -----------------------------------

    def export_partial(self) -> dict:
        return {
            "best": self.best,
            "seeds": self.seeds,
            "degenerate": self.degenerate,
            "skipped": self.skipped,
            "inner_skipped": self.inner_skipped,
            "completions": self.completions,
            "solved": self.solved,
            "pruned": self.pruned,
            "reused": self.reused,
            "max_onset": self.max_onset,
            "cancelled": self.cancelled,
        }

    def merge_partial(self, part: dict) -> None:
        self.seeds += part["seeds"]
        self.degenerate += part["degenerate"]
        self.skipped += part["skipped"]
        self.inner_skipped += part["inner_skipped"]
        self.completions += part["completions"]
        self.solved += part["solved"]
        self.pruned += part["pruned"]
        self.reused += part["reused"]
        self.max_onset = max(self.max_onset, part["max_onset"])
        self.cancelled = self.cancelled or part["cancelled"]
        cand = part["best"]
        if cand is None:
            return
        if self.best is None or (cand[0], cand[1], cand[2]) < (
            self.best[0],
            self.best[1],
            self.best[2],
        ):
            self.best = cand
            self.j = cand[0]

    # -- reporting ------------------------------------------------------------

    def build_report(self, wall: float, approximate: bool) -> SolveReport:
        if self.best is None:
            raise NoHyperplaneError(
                "no usable hyperplane seed was found; every seed was degenerate "
                "or orientation-ambiguous, which signals non-generic data"
            )
        objective, _, _, w, inlier_idx = self.best
        boundary = False
        if self.p == 0:
            w, value = _minimax_fit(self.data.x[inlier_idx], self.data.y[inlier_idx])
            self.solved += 1
            tau = ON_HYPERPLANE_TOL * max(1.0, self.eps)
            if value >= self.eps - tau:
                boundary = True
                if value >= self.eps + tau:
                    warnings.warn(
                        "the best inlier set admits no model with all errors "
                        "strictly inside the threshold; reporting it anyway",
                        RuntimeWarning,
                        stacklevel=3,
                    )
            model = RegressionModel(w)
            inliers = np.asarray(inlier_idx, dtype=np.intp)
        else:
            model = RegressionModel(w)
            inliers = regression_inliers(self.data, model, self.spec)
        return SolveReport(
            objective=float(objective),
            model=model,
            inliers=inliers,
            seeds_enumerated=self.seeds,
            seeds_degenerate=self.degenerate,
            seeds_skipped=self.skipped,
            inner_loops_skipped=self.inner_skipped,
            sign_completions=self.completions,
            subproblems_solved=self.solved,
            subproblems_pruned=self.pruned,
            subproblems_reused=self.reused,
            max_onset_size=self.max_onset,
            onset_outside_seed=0,
            approximate=approximate,
            certificate_boundary=boundary,
            cancelled=self.cancelled,
            wall_time_seconds=wall,
        )


def _regression_range_task(payload) -> dict:
    x, y, p, eps, start, stop, prune, chunk_size = payload
    search = _RegressionSearch(RegressionDataset(x, y), LossSpec(p, eps), prune=prune)
    search.run_range(start, stop, chunk_size, None, None)
    return search.export_partial()


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
    and ``should_stop`` is polled between chunks.
    """
    t0 = perf_counter()
    total = math.comb(2 * data.n, data.d)
    threads = max(1, int(threads))
    if threads > 1 and total >= 4 * chunk_size:
        search = _RegressionSearch(data, spec, prune=prune)
        ranges = _split_ranges(total, threads)
        payloads = [
            (data.x, data.y, spec.p, spec.epsilon, a, b, prune, chunk_size)
            for a, b in ranges
        ]
        with ProcessPoolExecutor(max_workers=threads, mp_context=_pool_context()) as pool:
            for (_, stop), part in zip(ranges, pool.map(_regression_range_task, payloads)):
                search.merge_partial(part)
                if progress is not None:
                    progress(stop, search.j)
    else:
        search = _RegressionSearch(data, spec, prune=prune)
        search.run_range(0, total, chunk_size, progress, should_stop)
    return search.build_report(perf_counter() - t0, approximate=False)


def approx_regression_p0(
    data: RegressionDataset, spec: LossSpec, *, chunk_size: int = 4096
) -> tuple[RegressionModel, float]:
    """Outlier-count minimization without the completion loop.

    Scans every enumerated hyperplane with strictly positive first
    coordinate and keeps the model read off the normal itself; the winner is
    within ``2 d`` outliers of the optimum.  Models read off a hyperplane
    leave their seed points exactly on the threshold (strict outliers), so
    the scan also considers the exact interpolations through d data points,
    which covers noiseless data and the trivial regime where only d points
    are approximable.
    """
    if spec.p != 0:
        raise ValueError("this shortcut is defined for p = 0 only")
    zset = lift_regression(data, spec)
    n, d = data.n, data.d
    xt = np.ascontiguousarray(data.x.T)
    best_j = np.inf
    best_w: np.ndarray | None = None
    total = math.comb(zset.size, d)
    it = combinations(range(zset.size), d)
    done = 0
    while done < total:
        take = min(chunk_size, total - done)
        block = _combination_block(it, take, d)
        done += take
        h, degen = _batched_normals(zset.z[block])
        valid = np.flatnonzero(~degen & (np.abs(h[:, 0]) > ON_HYPERPLANE_TOL))
        if valid.size == 0:
            continue
        w = h[valid, 1:] / h[valid, :1]
        errors = data.y[None, :] - w @ xt
        j = n - np.count_nonzero(np.abs(errors) < spec.epsilon, axis=1)
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


class _SubspaceSearch:
    """Incumbent-tracking state for the subspace solvers."""

    def __init__(self, data: PointDataset, spec: LossSpec):
        if spec.p == 1:
            raise ValueError(
                "p = 1 subspace estimation is unsupported: the "
                "fixed-classification subproblem has no solver here"
            )
        self.data = data
        self.spec = spec
        self.n = data.n
        self.ds = data.subspace_dim
        self.lifted_dim = data.lifted_dim
        self.zset = lift_subspace(data, spec)
        self.tol = ON_HYPERPLANE_TOL * self.zset.scales
        self.j = spec.saturation * self.n
        self.best: tuple | None = None  # (objective, seed rank, branch rank, basis)
        self.seeds = 0
        self.degenerate = 0
        self.completions = 0
        self.solved = 0
        self.pruned = 0
        self.reused = 0
        self.max_onset = 0
        self.onset_outside = 0
        self.cancelled = False
        self.fitted: set[bytes] = set()  # packed masks of the fitted inlier sets
        # Seed-point selection of every completion branch, in branch order:
        # the subsets of the seed in binary counting order (bit k selects
        # seed point k), each taken with orientation -1, then +1.
        bits = np.arange(2**self.lifted_dim)[:, None] >> np.arange(self.lifted_dim)
        self._branch_sel = np.repeat((bits & 1).astype(bool), 2, axis=0)

    def process_seed(self, rank: int, subset) -> None:
        self.seeds += 1
        idx = np.asarray(subset, dtype=np.intp)
        h = _nullspace_direction(self.zset.z[idx])
        if h is None:
            self.degenerate += 1
            return
        vals = self.zset.z @ h
        zero = np.abs(vals) <= self.tol
        pos = vals > 0
        onset = int(np.count_nonzero(zero))
        self.max_onset = max(self.max_onset, onset)
        outside = onset - int(np.count_nonzero(zero[idx]))
        self.onset_outside += outside
        # Inlier mask of every branch: the points strictly on the branch's
        # side plus its selection of seed points.
        masks = np.empty((self._branch_sel.shape[0], self.n), dtype=bool)
        masks[0::2] = ~pos & ~zero
        masks[1::2] = pos & ~zero
        masks[:, idx] |= self._branch_sel
        self.completions += masks.shape[0]
        fittable = np.count_nonzero(masks, axis=1) >= max(self.ds, 1)
        self.pruned += masks.shape[0] - int(np.count_nonzero(fittable))
        packed = np.packbits(masks, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
        for branch in np.flatnonzero(fittable).tolist():
            key = keys[branch]
            if key in self.fitted:
                self.reused += 1
                continue
            self.fitted.add(key)
            basis = np.ascontiguousarray(_svd_basis(self.data.x[masks[branch]], self.ds)[0])
            self.solved += 1
            r = _projection_residuals(self.data.x, basis)
            candidate = float(np.sum(loss(self.spec, r)))
            if candidate < self.j:
                self.j = candidate
                self.best = (candidate, rank, branch, basis)

    def run_range(
        self,
        start: int,
        stop: int,
        progress: ProgressFn | None,
        should_stop: StopFn | None,
    ) -> None:
        it = combinations(range(self.n), self.lifted_dim)
        if start:
            it = islice(it, start, None)
        for rank, subset in enumerate(islice(it, stop - start), start):
            self.process_seed(rank, subset)
            if rank % 256 == 255 or rank == stop - 1:
                if progress is not None:
                    progress(self.seeds, self.j)
                if should_stop is not None and should_stop():
                    self.cancelled = True
                    break

    def export_partial(self) -> dict:
        return {
            "best": self.best,
            "seeds": self.seeds,
            "degenerate": self.degenerate,
            "completions": self.completions,
            "solved": self.solved,
            "pruned": self.pruned,
            "reused": self.reused,
            "max_onset": self.max_onset,
            "onset_outside": self.onset_outside,
            "cancelled": self.cancelled,
        }

    def merge_partial(self, part: dict) -> None:
        self.seeds += part["seeds"]
        self.degenerate += part["degenerate"]
        self.completions += part["completions"]
        self.solved += part["solved"]
        self.pruned += part["pruned"]
        self.reused += part["reused"]
        self.max_onset = max(self.max_onset, part["max_onset"])
        self.onset_outside += part["onset_outside"]
        self.cancelled = self.cancelled or part["cancelled"]
        cand = part["best"]
        if cand is None:
            return
        if self.best is None or (cand[0], cand[1], cand[2]) < (
            self.best[0],
            self.best[1],
            self.best[2],
        ):
            self.best = cand
            self.j = cand[0]

    def build_report(self, wall: float, approximate: bool) -> SolveReport:
        if self.best is None:
            raise NoHyperplaneError(
                "no usable hyperplane seed was found; every seed was degenerate, "
                "which signals non-generic data"
            )
        objective, _, _, basis = self.best
        model = SubspaceModel(basis)
        return SolveReport(
            objective=float(objective),
            model=model,
            inliers=subspace_inliers(self.data, model, self.spec),
            seeds_enumerated=self.seeds,
            seeds_degenerate=self.degenerate,
            seeds_skipped=0,
            inner_loops_skipped=0,
            sign_completions=self.completions,
            subproblems_solved=self.solved,
            subproblems_pruned=self.pruned,
            subproblems_reused=self.reused,
            max_onset_size=self.max_onset,
            onset_outside_seed=self.onset_outside,
            approximate=approximate or self.spec.p == 0,  # see exact_subspace
            certificate_boundary=False,
            cancelled=self.cancelled,
            wall_time_seconds=wall,
        )


def _subspace_range_task(payload) -> dict:
    x, ds, p, eps, start, stop = payload
    search = _SubspaceSearch(PointDataset(x, ds), LossSpec(p, eps))
    search.run_range(start, stop, None, None)
    return search.export_partial()


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
    """
    t0 = perf_counter()
    total = math.comb(data.n, data.d * (data.d + 1) // 2)
    threads = max(1, int(threads))
    if threads > 1 and total >= 64:
        search = _SubspaceSearch(data, spec)
        ranges = _split_ranges(total, threads)
        payloads = [
            (data.x, data.subspace_dim, spec.p, spec.epsilon, a, b) for a, b in ranges
        ]
        with ProcessPoolExecutor(max_workers=threads, mp_context=_pool_context()) as pool:
            for (_, stop), part in zip(ranges, pool.map(_subspace_range_task, payloads)):
                search.merge_partial(part)
                if progress is not None:
                    progress(stop, search.j)
    else:
        search = _SubspaceSearch(data, spec)
        search.run_range(0, total, progress, should_stop)
    return search.build_report(perf_counter() - t0, approximate=False)
