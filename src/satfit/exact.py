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

Each search has one per-seed pipeline, ``process_chunk(subsets)``, laid
out seed-last: a block holds its B seeds as columns (k, B), and every array
down to the counts keeps the seeds on its last, contiguous axis.  The
normals (m, B) come from :func:`.geometry._batched_normals` (the signed
maximal minors of the seed rows up to lifted dimension 9, a batched SVD
above that) on seed rows (m, k, B) gathered from ``LiftedSet.columns``,
which :func:`.geometry._normal_rows` scaled once per point set, with the
row norms gathered from ``LiftedSet.norms``; their orientation and their
point-major ``below`` / ``closed`` masks (size, B) come from the lifted
classification of :mod:`.geometry` (``_orient``, ``_classify``), their
counts from :func:`.core._counts` over axis 0 (the on-points number
count(closed) - count(below)), and only seeds that survive the incumbent
bound enter the per-seed completion step, their columns turned into rows
for packing (a regression block with no survivor stops before that).  Its
block-sized arrays are views of the search's one
:class:`.geometry._Workspace`, reused block after block: ``rows``,
``terms``, ``gathered``, ``minors``, ``normals``, ``margins``, ``below``
and ``closed``.  The exact solvers feed it lexicographic blocks of the
enumeration; the sampling variants in :mod:`.sampling` blocks of random
draws in iteration order.

A completion step builds the inlier sets of its branches as rows of
W = ceil(n / 64) ``uint64`` words, point i being bit i % 64 of word i // 64.
``process_chunk`` packs the masks of a block's seeds once; the one builder,
:func:`_branch_words`, doubles a seed's words level by level: regression
clears one on-hyperplane point per level in its lifted halves, then ANDs
them; the subspace search adds one seed point per level to its sides.  The
one branch loop, ``_Search._complete``, takes at most ``_BRANCH_CELLS`` bits
per call, counts each set's size |S| off its words, prunes a set by its
search's rule (regression and the exhaustive p = 2 subspace search: the
count bound eps^p (n - |S|) >= J; subspace: also |S| < ds); skips a set
fitted before, keyed by the bytes of its words; and fits and scores the rest
with the subproblem that p selects: :func:`.subsolvers._regression_fit`
(minimax, LAD or least squares for p = 0, 1, 2) or the SVD subspace fit.
Regression fits each new set at once, since its objective can prune the
next row; the subspace search finds the first row of each set with one sort,
and unpacks and fits only the new sets, in stacks of at most
``_STACK_CELLS // n``, with one stacked SVD per set size, bit for bit the
one-set results.  Under the count bound it fits them largest first while
their size passes the bound, then the others that a row-order replay can
reach, and replays them in row order, so that its answer and counters are
those of a scan one row at a time.  Skipping a repeat cannot change the
answer: it would reproduce an objective already seen, and only a strictly
smaller objective replaces the incumbent.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import combinations, groupby
from time import perf_counter, sleep
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (
    LossSpec,
    PointDataset,
    RegressionDataset,
    RegressionModel,
    SubspaceModel,
    _counts,
    _projection_residuals,
    _within,
    loss,
    regression_inliers,
    subspace_inliers,
)
from .geometry import (
    ON_HYPERPLANE_TOL,
    _batched_normals,
    _classify,
    _orient,
    _seed_columns,
    _Workspace,
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

# Bits of branch words (rows times 64 W) per _complete call, so a call's
# words take at most 128 KiB: the subspace search hands over the branches of
# max(1, _BRANCH_CELLS // (64 W b)) seeds of b branches, or of one seed;
# regression splits a seed's 2**n0 branches on their high levels into runs
# of the largest power of two of rows that fits (at least one), never all
# 2**_MAX_ONSET at once.  At small n one call covers many subspace seeds
# (16,384 rows at n = 10), which amortizes the call's fixed cost.
_BRANCH_CELLS = 1 << 20

# Mask cells per stack of new inlier sets fitted and scored together (by the
# subspace search): a stack takes max(1, _STACK_CELLS // n) sets, so its
# (sets, n, d) float temporaries stay at most 256 KiB times d.  A stack has a
# fixed cost, which small stacks repeat; stacks of several MB run slower per
# set, since their fresh pages are faulted in on use (the glibc rule is in
# geometry._Workspace).  Stacking pays most when a call holds many new sets
# of one size, as in small-n exact enumeration; at large n, where a stack
# holds one set, it costs what one fit per set did.
_STACK_CELLS = 1 << 15

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
    """Seeds of ranks start..stop-1 of the lexicographic k-subsets of range(m), as columns (k, B).

    Rank r is unranked through the combinatorial number system: with
    x = C(m, k) - 1 - r, the greedy a_i = max {a : C(a, i) <= x}, then
    x -= C(a_i, i), for i = k..1, gives the seed's elements m - 1 - a_i in
    increasing order.  One ``searchsorted`` per position serves the block.
    """
    out = np.empty((k, stop - start), dtype=np.intp)
    total, tables = _rank_tables(m, k)
    x = (total - 1) - np.arange(start, stop, dtype=np.int64)
    for row, table in enumerate(tables):
        a = np.searchsorted(table, x, side="right") - 1
        x -= table[a]
        out[row] = (m - 1) - a
    return out


def _lex_blocks(m: int, k: int, start: int, stop: int, size: int) -> Iterator[np.ndarray]:
    """Blocks of at most ``size`` seeds of ranks start..stop-1 of the enumeration."""
    for rank in range(start, stop, size):
        yield _combination_block(m, k, rank, min(rank + size, stop))


def _pack(masks: np.ndarray) -> np.ndarray:
    """Boolean masks (..., n) as rows (..., W) of W = ceil(n / 64) little-endian words.

    Point i is bit i % 64 of word i // 64; the bits past n are 0.
    """
    *rows, n = masks.shape
    packed = np.zeros((*rows, 8 * -(-n // 64)), dtype=np.uint8)
    packed[..., : -(-n // 8)] = np.packbits(masks, axis=-1, bitorder="little")
    return packed.view("<u8")


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """The (rows, n) boolean masks of rows of :func:`_pack` words."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


def _bit_words(points: np.ndarray, n: int) -> np.ndarray:
    """The :func:`_pack` words (..., W) of the one-point sets {i} of ``points`` (...)."""
    flat = points.ravel()
    words = np.zeros((flat.size, -(-n // 64)), dtype="<u8")
    words[np.arange(flat.size), flat // 64] = np.uint64(1) << (flat % 64).astype(np.uint64)
    return words.reshape(*points.shape, words.shape[1])


def _branch_words(base: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """The packed words of every branch of ``base``, in binary counting order.

    ``base`` holds words (..., W) and ``flips`` a stack (k, ..., W) of words
    of its shape.  Row b of the (2**k, ..., W) result is ``base`` with
    ``flips[j]`` applied (XOR) for every set bit j of b: level j writes rows
    2**j to 2**(j+1) - 1 as rows 0 to 2**j - 1 with ``flips[j]`` applied.
    """
    words = np.empty((1 << flips.shape[0], *base.shape), dtype="<u8")
    words[0] = base
    for j, flip in enumerate(flips):
        np.bitwise_xor(words[: 1 << j], flip, out=words[1 << j : 2 << j])
    return words


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
    its completion rule: ``count_bound`` True prunes a set S by
    eps^p (n - |S|) >= J; ``stack``, when set, makes :meth:`_complete` fit
    the new sets in stacks, and then ``min_size`` also prunes S by
    |S| < ``min_size``.  It implements ``process_chunk(subsets)``, its only
    per-seed entry point, which builds branch words with
    :func:`_branch_words` and hands them to :meth:`_complete`, at most
    ``_BRANCH_CELLS`` bits per call; ``_solve_many(masks)``, the objectives
    and solutions of a stack of inlier sets, in row order; and
    ``_winner()``, the (model, inliers) of ``best``.  Fitted sets are
    remembered by the bytes of their packed words.
    """

    count_bound: bool
    min_size: int  # read only by the stacked path
    # New sets per _solve_many call of the stacked path, with ``hash``, the
    # odd multipliers of the row hash that sorts rows of several words; None:
    # each new set is fitted at its own row.
    stack: int | None = None
    hash: np.ndarray

    def __init__(self, zset, k: int, n: int, eps_p: float):
        self.zset = zset
        self.k = k
        self.n = n
        self.eps_p = eps_p
        self.j = eps_p * n
        self.best = None
        self.stats = SearchStats()
        self.cancelled = False
        self.fitted: set[bytes] = set()  # packed words of the fitted inlier sets
        self.workspace = _Workspace()  # the block-sized arrays of process_chunk

    def _complete(self, words: np.ndarray) -> None:
        """Prune, reuse or fit the branches in ``words``, as a row-order scan would.

        Row i holds the packed inlier set S of one branch, its set bits the
        size |S|.  A set is pruned by the rule at its row, with the live
        incumbent J; else it is reused if fitted before, else fitted.  A
        pruned set is not remembered: J only falls, so it fails again.
        Without ``stack`` (regression) the rule is the count bound, the rows
        are taken one at a time and each new set is fitted at once, as its
        objective can prune the next row.

        With ``stack``, a row is pruned at once if |S| < ``min_size`` or if
        it fails the count bound against the incumbent of the call's start,
        which it fails at its own row too.  One sort finds the first row of
        each other set; a set can only be fitted there.  Without the count
        bound the new sets among them are fitted in row order, ``stack`` at
        a time, by ``_solve_many``.  Under it they are fitted largest first,
        in calls of max(32, sets fitted before) sets, until a set fails the
        bound against the smallest objective found; then the sets are fitted
        that a row-order replay reaches when it leaves the unfitted ones
        out, since its incumbent stays at least the true one.  A replay in
        row order then moves the incumbent on the first strictly smaller
        objective of a set that passes the rule; a set fitted ahead but
        pruned at its own row counts as pruned, and each other row is pruned
        by the rule with the incumbent of its row, or reused.
        """
        stats = self.stats
        counts = np.bitwise_count(words).sum(axis=1)
        stats.sign_completions += counts.size
        if self.stack is None:
            for i, cnt in enumerate(counts.tolist()):
                if self.eps_p * (self.n - cnt) >= self.j:
                    stats.subproblems_pruned += 1
                elif (key := words[i].tobytes()) in self.fitted:
                    stats.subproblems_reused += 1
                else:
                    self.fitted.add(key)
                    self._fit(_unpack(words[i : i + 1], self.n))
            return
        # eps^p (n - |S|) of each row, which prunes S once J is at most it;
        # J only falls, so a row that fails it now is pruned at once
        if self.count_bound:
            bound = self.eps_p * (self.n - counts)
        else:
            bound = np.full(counts.size, -np.inf)
        rows = np.flatnonzero((counts >= self.min_size) & (bound < self.j))
        stats.subproblems_pruned += counts.size - rows.size
        if not rows.size:
            return
        firsts = rows[self._first_rows(words[rows])]
        keys = words[firsts].view(np.dtype((np.void, 8 * words.shape[1]))).ravel().tolist()
        new = [i for i, key in enumerate(keys) if key not in self.fitted]
        first_rows = firsts[new]
        new_bound = bound[first_rows]
        objectives = np.full(len(new), np.inf)  # inf until fitted; a fit scores at most eps^p n
        solutions: list = [None] * len(new)

        def fit(sets: np.ndarray) -> None:
            """Fit the new sets at positions ``sets``, ``stack`` at a time."""
            for at in range(0, sets.size, self.stack):
                chunk = sets[at : at + self.stack]
                masks = _unpack(words[first_rows[chunk]], self.n)
                objectives[chunk], results = self._solve_many(masks)
                for t, solution in zip(chunk.tolist(), results):
                    solutions[t] = solution

        if self.count_bound:
            order, j, done = np.argsort(new_bound), self.j, 0  # the largest sets first
            while done < order.size and new_bound[order[done]] < j:
                chunk = order[done : done + max(32, done)]  # calls grow while J settles
                chunk = chunk[new_bound[chunk] < j]
                fit(chunk)
                j, done = min(j, objectives[chunk].min()), done + chunk.size
            reached = new_bound < self._replay(new_bound, objectives)[0][:-1]
            fit(np.flatnonzero(reached & np.isinf(objectives)))
        else:
            fit(np.arange(len(new)))
        incumbents, last = self._replay(new_bound, objectives)
        solved = np.flatnonzero(new_bound < incumbents[:-1])
        self.fitted.update([keys[new[t]] for t in solved.tolist()])
        if last is not None:
            self.j, self.best = float(objectives[last]), solutions[last]
        # the incumbent of each row: of a new set's row, the one before it
        at_row = np.repeat(incumbents, np.diff(first_rows, prepend=-1, append=counts.size - 1))
        pruned = int(np.count_nonzero((bound >= at_row)[rows]))
        stats.subproblems_solved += solved.size
        stats.subproblems_pruned += pruned
        stats.subproblems_reused += rows.size - pruned - solved.size

    def _replay(self, bound: np.ndarray, objectives: np.ndarray) -> tuple[np.ndarray, int | None]:
        """A row-order replay of the new sets of a call, from the incumbent ``j``.

        Set t is pruned while J <= ``bound[t]``; else ``objectives[t]`` < J
        moves J.  Returns the incumbent before each set and after the last,
        and the position of the last move (None if J does not move); ``j``
        itself is left as it is.
        """
        incumbents = np.empty(bound.size + 1)
        j, t, last = self.j, 0, None
        while (moves := np.flatnonzero((bound[t:] < j) & (objectives[t:] < j))).size:
            incumbents[t : t + moves[0] + 1] = j
            last = t + int(moves[0])
            j, t = objectives[last], last + 1
        incumbents[t:] = j
        return incumbents, last

    def _first_rows(self, words: np.ndarray) -> np.ndarray:
        """Indices of the first row of each distinct row of ``words``, in row order.

        One sort groups equal rows.  A row of one word is its own sort key;
        longer rows sort by a hash of their words, and each row is then
        checked against its predecessor in its group; where two different
        rows share a hash, an exact sort of the rows replaces the hash.
        """
        key = words[:, 0] if words.shape[1] == 1 else (words * self.hash).sum(axis=1)
        order = np.argsort(key)
        key = key[order]
        same = key[1:] == key[:-1]  # the row is in its predecessor's group
        if words.shape[1] > 1:
            ranked = words[order]
            if (same & (ranked[1:] != ranked[:-1]).any(axis=1)).any():
                return np.sort(np.unique(words, axis=0, return_index=True)[1])
        starts = np.flatnonzero(np.concatenate(([True], ~same)))
        return np.sort(np.minimum.reduceat(order, starts))

    def _fit(self, masks: np.ndarray) -> None:
        """Fit and score the inlier sets in ``masks``; keep the first strictly better one."""
        objectives, solutions = self._solve_many(masks)
        self.stats.subproblems_solved += len(objectives)
        for candidate, solution in zip(objectives, solutions):
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
        """Scan drawn seeds (one per row, in row order) in blocks of ``_BLOCK`` columns."""
        seeds = np.ascontiguousarray(subsets.T)
        blocks = (seeds[:, r : r + _BLOCK] for r in range(0, seeds.shape[1], _BLOCK))
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

    Its completion rule is the count bound, and the bound is exact.  Let S
    be the inlier set of an optimal model, of objective J*.  Its points
    outside S each cost eps^p, so J* >= eps^p (n - |S|), and fitting S
    reaches J* (for p = 0 the minimax fit of the feasible S leaves at most
    n - |S| outliers).  So S fails the bound only once J <= J*, when the
    optimum has been reached.  The bound also prunes every empty set, as
    J <= eps^p n from the start.
    """

    seed_block = 2048
    count_bound = True

    def __init__(self, data: RegressionDataset, spec: LossSpec):
        super().__init__(lift_regression(data, spec), data.d, data.n, spec.saturation)
        self.data = data
        self.spec = spec
        self.p = spec.p

    def _solve_many(self, masks: np.ndarray) -> tuple[list[float], list[np.ndarray]]:
        """Fit and score the one inlier set that ``_complete`` hands over per call."""
        (mask,) = masks
        w = _regression_fit(self.data.x[mask], self.data.y[mask], self.p)
        return [float(np.sum(loss(self.spec, self.data.y - self.data.x @ w)))], [w]

    def _handle_seed(self, halves: np.ndarray, flips: np.ndarray) -> None:
        """Complete one seed from its packed lifted mask ``closed`` (below or on).

        ``halves`` holds the (2, W) :func:`_pack` words of the mask's first
        and second half; ``flips[j]`` the bit in them of on-hyperplane point
        n0 - 1 - j (lifted order).  Branch b puts on-point t below when bit
        n0 - 1 - t of b is 0, the order of ``product((-1, 1), repeat=n0)``; its
        set, the AND of its halves, holds the points whose two lifted copies
        both lie strictly below the hyperplane.
        """
        low = max(1, _BRANCH_CELLS // (64 * halves.shape[1])).bit_length() - 1
        for base in _branch_words(halves, flips[low:]):
            words = _branch_words(base, flips[:low])
            self._complete(words[:, 0] & words[:, 1])

    def process_chunk(self, subsets: np.ndarray) -> None:
        """Process a block of seeds (k, B), in order."""
        stats = self.stats
        stats.seeds_enumerated += subsets.shape[1]
        ws, zset = self.workspace, self.zset
        rows = ws.take("rows", zset.columns, subsets, axis=1)
        h, degen = _batched_normals(rows, zset.norms[subsets], ws)
        _orient(h)
        below, closed = _classify(zset, h, ws)
        h1_small = h[0] <= ON_HYPERPLANE_TOL
        base = _counts(below[: self.n] & below[self.n :], axis=0)
        n0 = _counts(closed, axis=0) - _counts(below, axis=0)
        valid = ~degen & ~h1_small
        stats.seeds_degenerate += int(np.count_nonzero(degen))
        stats.seeds_skipped += int(np.count_nonzero(h1_small & ~degen))
        if valid.any():
            stats.max_onset_size = max(stats.max_onset_size, int(n0[valid].max()))
        # The bound uses the incumbent at block start, which is never smaller
        # than the live incumbent, so everything skipped here would also be
        # skipped by a seed-by-seed scan.  Survivors are re-tested against
        # the live incumbent (cheaply, from the precomputed counts) before
        # paying for the completion loop.
        skip = self.eps_p * (self.n - base) > self.j + self.eps_p * n0
        stats.inner_loops_skipped += int(np.count_nonzero(valid & skip))
        seeds = np.flatnonzero(valid & ~skip)
        if not seeds.size:
            return
        # Packed once per block: the halves of closed (below | on) of the seeds
        # that may complete, their columns turned into rows, and the bit of
        # each on-point of those that _MAX_ONSET admits.
        closed_rows = np.ascontiguousarray(closed[:, seeds].T)
        onset = closed_rows & ~below[:, seeds].T
        halves = _pack(closed_rows.reshape(-1, 2, self.n))
        sizes = n0[seeds]
        kept = sizes <= _MAX_ONSET
        row, point = np.divmod(np.flatnonzero(onset & kept[:, None]), self.n)  # row 2 * seed + half
        bits = _bit_words(point, self.n)[:, None] * np.eye(2, dtype="<u8")[row % 2, :, None]
        ends = np.cumsum(sizes * kept).tolist()
        for r, (inliers, size) in enumerate(zip(base[seeds].tolist(), sizes.tolist())):
            if self.eps_p * (self.n - inliers) > self.j + self.eps_p * size:
                stats.inner_loops_skipped += 1
                continue
            if size > _MAX_ONSET:
                raise NoHyperplaneError(
                    f"{size} points lie on one candidate hyperplane; the data is far "
                    "from general position and the completion loop would not terminate"
                )
            self._handle_seed(halves[r], bits[ends[r] - size : ends[r]][::-1])

    def _winner(self) -> tuple[RegressionModel, np.ndarray]:
        model = RegressionModel(self.best)
        return model, regression_inliers(self.data, model, self.spec)


def _regression_range_task(payload) -> dict:
    x, y, p, eps, start, stop = payload
    search = _RegressionSearch(RegressionDataset(x, y), LossSpec(p, eps))
    search.run_range(start, stop)
    return search.partial()


def exact_regression(
    data: RegressionDataset,
    spec: LossSpec,
    *,
    threads: int = 1,
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
    (each worker has its own fit memo).  ``progress(seeds done,
    incumbent)`` and ``should_stop`` run after every block (with workers,
    ``progress`` once per range); a run given ``should_stop`` scans
    sequentially, so it can be cancelled at any thread count.
    """
    t0 = perf_counter()
    search = _RegressionSearch(data, spec)
    payload = (data.x, data.y, spec.p, spec.epsilon)
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
    ws = _Workspace()
    data_columns = _seed_columns(np.column_stack([data.y, -data.x]))
    for (columns, norms), lifted in (((zset.columns, zset.norms), True), (data_columns, False)):
        size = columns.shape[1]
        total, _ = _rank_tables(size, d)  # the lifted scan, first, has the larger count
        for block in _lex_blocks(size, d, 0, total, _RegressionSearch.seed_block):
            h, degen = _batched_normals(ws.take("rows", columns, block, axis=1), norms[block], ws)
            _orient(h)
            usable = ~degen & (h[0] > ON_HYPERPLANE_TOL)
            w = h[1:] / np.where(usable, h[0], 1.0)
            if lifted:
                below = _classify(zset, h, ws)[0]
                inliers = below[:n] & below[n:]
            else:
                inliers = _within(spec, data.y[:, None] - data.x @ w)
            j = np.where(usable, n - _counts(inliers, axis=0), np.inf)
            i = int(np.argmin(j))  # argmin returns the first minimizer
            if j[i] < best_j:
                best_j, best_w = float(j[i]), w[:, i].copy()
    if best_w is None:
        raise NoHyperplaneError("no usable hyperplane seed was found")
    return RegressionModel(best_w), float(best_j)


# ---------------------------------------------------------------------------
# Subspace estimation


class _SubspaceSearch(_Search):
    """Incumbent-tracking state shared by the exact and sampled subspace solvers.

    Its completion rule is the size floor, since a set of fewer than ds
    points does not determine a ds-dimensional subspace, and for an
    ``exhaustive`` search at p = 2 also the count bound, which is then
    exact.  Let S be the points within epsilon of an optimal basis, of
    objective J*.  The points outside S each cost eps^2, so
    J* >= eps^2 (n - |S|).  Under the SVD fit of S a point of S costs at
    most its squared residual, whose sum over S is at most the sum under
    the optimal basis, which is what S costs there; a point outside S costs
    at most eps^2 under any basis.  So the fit of S scores at most J*.  The
    enumeration of every seed reaches S as a branch, so S fails the bound
    only once J <= J*, when the optimum has been reached.  At p = 0 the fit
    of S is still an L2 fit, which can leave a point of S outside epsilon
    and score above J*, so the bound could prune the best set the search can
    find.  A sampled search sees only the branches of its drawn seeds, which
    need not include S; a set it prunes can score below eps^2 (n - |S|),
    since its fit can keep points outside it, and be the best drawn one.
    Both keep the floor alone.
    """

    seed_block = _BLOCK

    def __init__(self, data: PointDataset, spec: LossSpec, *, exhaustive: bool = True):
        if spec.p == 1:
            raise ValueError(
                "p = 1 subspace estimation is unsupported: the "
                "fixed-classification subproblem has no solver here"
            )
        super().__init__(lift_subspace(data, spec), data.lifted_dim, data.n, spec.saturation)
        self.data = data
        self.spec = spec
        self.ds = self.min_size = data.subspace_dim
        self.count_bound = exhaustive and spec.p == 2
        self.stack = max(1, _STACK_CELLS // data.n)
        words = -(-data.n // 64)
        self.hash = np.random.default_rng(0).integers(2**64, size=words, dtype=np.uint64) | 1

    def process_chunk(self, subsets: np.ndarray) -> None:
        """Process a block of seeds, in order.

        A seed's branches are the subsets of its k points in binary counting
        order (level j of :func:`_branch_words` adds seed point j to the
        sides that lack it), each with the points strictly below, then
        strictly above the hyperplane.  They reach :meth:`_complete` in seed
        order, then branch order.
        """
        stats = self.stats
        stats.seeds_enumerated += subsets.shape[1]
        ws, zset = self.workspace, self.zset
        rows = ws.take("rows", zset.columns, subsets, axis=1)
        h, degen = _batched_normals(rows, zset.norms[subsets], ws)
        _orient(h)
        stats.seeds_degenerate += int(np.count_nonzero(degen))
        below, closed = _classify(zset, h, ws)
        usable = ~degen
        idx, below, closed = subsets[:, usable], below[:, usable], closed[:, usable]
        on = closed & ~below
        onset = _counts(on, axis=0)
        stats.max_onset_size = max(stats.max_onset_size, int(onset.max(initial=0)))
        on_seed = np.count_nonzero(np.take_along_axis(on, idx, axis=0))
        stats.onset_outside_seed += int(onset.sum() - on_seed)
        sides = _pack(np.stack([below.T, ~closed.T], axis=1))
        width = sides.shape[2]
        flips = _bit_words(idx, self.n)[:, :, None] & ~sides  # seed point j where a side lacks it
        per_call = max(1, _BRANCH_CELLS // (64 * width << (idx.shape[0] + 1)))
        for first in range(0, idx.shape[1], per_call):
            seeds = slice(first, first + per_call)
            words = _branch_words(sides[seeds], flips[:, seeds])
            words = words.transpose(1, 0, 2, 3).reshape(-1, width)  # frees the level-major copy
            self._complete(words)

    def _solve_many(self, masks: np.ndarray) -> tuple[list[float], list[np.ndarray]]:
        """Fit and score a stack of inlier sets: one stacked SVD per set size."""
        x = self.data.x
        sizes = _counts(masks, axis=1)
        order = np.argsort(sizes, kind="stable")
        # The points of every set, the sets taken by size: each size is one
        # contiguous (count, size, d) block.
        points = x[np.flatnonzero(masks[order]) % self.n]
        bases = np.empty((masks.shape[0], x.shape[1], self.ds))
        row = cell = 0
        for size, group in groupby(sizes[order].tolist()):
            count = len(list(group))
            sets = points[cell : cell + count * size].reshape(count, size, -1)
            bases[order[row : row + count]] = _svd_basis(sets, self.ds)[0]
            row += count
            cell += count * size
        objectives = np.sum(loss(self.spec, _projection_residuals(x, bases)), axis=1)
        return objectives.tolist(), list(bases)

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
    in general position, and p = 2 prunes a candidate set S by the count
    bound eps^2 (n - |S|) >= J as well as by |S| < ds (see
    :class:`_SubspaceSearch`); p = 0 results are flagged ``approximate``,
    because the SVD fit of a feasible inlier set can leave one of its points
    outside epsilon, so the reported outlier count may exceed the optimum,
    and p = 0 prunes by size alone.  ``threads`` is used as in
    :func:`exact_regression`, from 1,024 seeds on and only without
    ``should_stop``; the answer does not depend on it, the solved and reused
    counters do, and at p = 2 the pruned counter too, as each worker bounds
    with its own incumbent.  ``progress`` and ``should_stop`` run every 256
    seeds and after the last.
    """
    t0 = perf_counter()
    search = _SubspaceSearch(data, spec)
    payload = (data.x, data.subspace_dim, spec.p, spec.epsilon)
    search.solve(_subspace_range_task, payload, threads, progress, should_stop)
    return search.build_report(perf_counter() - t0, approximate=spec.p == 0)
