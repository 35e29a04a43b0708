"""Exact solvers: enumerate candidate hyperplane seeds, resolve on-hyperplane
points by sign completion, solve the fixed-classification subproblem for each
candidate inlier set, and track the incumbent.

Both solvers are exhaustive over all seeds of lifted points and are exact on
data in general position, except for p = 0 subspace estimation, whose L2
subproblem can miss the optimum (see :func:`exact_subspace`).  Exact p = 1
regression needs neither lifting nor completion: its objective is concave
on every cell of the arrangement of the hyperplanes r_i(w) = 0, so
:class:`_VertexSearch` scans the C(n, d) fits through d data points, a
block of them scored at once, and is exact for any x of full column rank.
Seeds are enumerated in lexicographic order, unranked a block of ranks at a
time, and ties are broken by scan order (the first best candidate wins), so
repeated runs are bit-identical.  An enumeration of 2**63 seeds or more is
refused with a ``ValueError`` before any seed is processed.

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
bound enter the per-seed completion step, their columns packed into rows
(a regression block with no survivor stops before that).  Its
block-sized arrays are views of the search's one
:class:`.geometry._Workspace`, reused block after block: ``rows``,
``terms``, ``gathered``, ``minors``, ``normals``, ``margins``, ``below``
and ``closed``; it runs on a ufunc buffer one block row long
(:func:`.geometry._block_buffers`).  The p = 1 scan seeds on data rows and
stops after the orientation: it reads a model off each usable normal and
scores the block in ``residuals`` and ``products``.  The exact solvers feed the pipeline
lexicographic blocks of the enumeration; the sampling variants in
:mod:`.sampling` blocks of random draws in iteration order.

A completion step (every search but the p = 1 scan) builds the inlier
sets of its branches as rows of
W = ceil(n / 64) ``uint64`` words, point i being bit i % 64 of word i // 64.
The one builder, :func:`_branch_words`, doubles a seed's words level by
level with its search's rule: regression's rows are data-point sets from
the classification on, and each level ANDs out the point of one
on-hyperplane copy, for a run of seeds of one on-set size at once; the
subspace search XORs a seed point per level into a side lacking it.  The one
branch loop, ``_Search._complete``, takes at most ``_BRANCH_CELLS`` bits
per call, counts each set's size |S| off its words, and makes one forward
pass in row order, with the answer and counters of a scan one row at a
time: a set is pruned by its search's rule (regression and the exhaustive
p = 2 subspace search: the count bound eps^p (n - |S|) >= J; subspace:
also |S| < ds), skipped if fitted before, keyed by the bytes of its words,
or fitted and scored with the subproblem that p selects.  The pass fits
the next sets that pass the rule against the live incumbent and are new,
in chunks that grow, and replays each chunk in row order.  Both searches
fit a chunk in stacks of at most ``_STACK_CELLS // n`` sets, bit for bit
the one-set results: regression through
:func:`.subsolvers._regression_fits` (one stacked LAD at p = 1, which
only the sampled search fits, one stacked least squares per set size at
p = 2, one minimax fit per set at p = 0), the subspace search by
:func:`.subsolvers._subspace_fits`: one masked sum of the lifted rows,
its terms in the workspace's ``scatter``, gives every set's scatter, and
one batched eigh its top eigenvectors.
Skipping a repeat cannot change the answer: it would reproduce an
objective already seen, and only a strictly smaller objective replaces the
incumbent.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import combinations
from time import perf_counter, sleep
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .core import (
    LossSpec,
    PointDataset,
    RegressionDataset,
    RegressionModel,
    SubspaceModel,
    _counts,
    _projection_residuals,
    loss,
    regression_inliers,
    regression_objective,
    subspace_inliers,
)
from .geometry import (
    ON_HYPERPLANE_TOL,
    _batched_normals,
    _block_buffers,
    _classify,
    _orient,
    _seed_columns,
    _Workspace,
    lift_regression,
    lift_subspace,
)
from .subsolvers import _regression_fits, _subspace_fits

__all__ = [
    "NoHyperplaneError",
    "SolveReport",
    "seed_enumerator",
    "exact_regression",
    "approx_regression_p0",
    "exact_subspace",
]

# Beyond this many on-hyperplane points the completion loop of the lifted
# searches would explode; such inputs grossly violate the general-position
# assumption.  The exact p = 1 scan builds no branches and refuses nothing.
_MAX_ONSET = 20

# Bits of branch words (rows times 64 W) per _complete call, so a call's
# words take at most 128 KiB: the subspace search hands over the branches of
# max(1, _BRANCH_CELLS // (64 W b)) seeds of b branches, or of one seed;
# regression the branches of a run of seeds (_RUN_CELLS), and a seed of
# more than _BRANCH_CELLS bits of rows comes alone, as _RUN_CELLS <=
# _BRANCH_CELLS: its 2**n0 branches are split on their high levels into
# calls of the largest power of two of rows that fits (at least one),
# never all 2**_MAX_ONSET at once.  At small n one call covers many subspace seeds
# (16,384 rows at n = 10), which amortizes the call's fixed cost.
_BRANCH_CELLS = 1 << 20

# Mask cells per stack of new inlier sets fitted and scored together: a
# chunk of _Search._complete takes at most max(1, _STACK_CELLS // n) sets,
# so its (sets, n, d) float temporaries, and the subspace search's
# (sets, D, n) scatter terms, stay at most 256 KiB times d or D.  A stack has a
# fixed cost, which small stacks repeat; stacks of several MB run slower per
# set, since their fresh pages are faulted in on use (the glibc rule is in
# geometry._Workspace).  Stacking pays most when a call holds many new sets
# of one size, as in small-n exact enumeration; at large n, where a stack
# holds one set, it costs what one fit per set did.
_STACK_CELLS = 1 << 15

# Seeds per block of the subspace scan and of the sampled draws; also their
# progress period.  Regression scans blocks of _RegressionSearch.seed_block.
_BLOCK = 256

# Seeds per run of regression's completion: the seeds that pass the count
# bound against the live incumbent at the run's start have their branch
# words built together and reach _Search._complete in one call.  A run of
# at most _RUN seeds of one n0 takes at most _RUN_CELLS bits of rows
# (32 KiB), or is one seed, so it fits one call of _BRANCH_CELLS bits, and
# its temporaries stay under glibc's first mmap threshold (the rule is in
# geometry._Workspace): runs of 4,096 rows of four words had raised the
# peak RSS of sampled regression at n = 200 by about 1 MB.
_RUN = 256
_RUN_CELLS = 1 << 18

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
      ``sign_completions``, and are those of a scan one branch at a time: a
      set that the branch loop fits ahead in a chunk and the scan prunes at
      its own branch counts as pruned, so the fits can outnumber
      ``subproblems_solved``.  For p = 0 regression each solved branch is one
      minimax fit, the winner's included; none is reused on generic data,
      where every branch's set S is feasible: its fit leaves at most
      n - |S| outliers, so the incumbent drops to at most that count and S
      fails the count bound from then on;
    * ``max_onset_size``: largest number of on-hyperplane points over all
      usable seeds;
    * ``onset_outside_seed``: subspace runs only, on-hyperplane points that
      were not part of the seed (nonzero only for non-generic data).

    An exact p = 1 regression report counts its scan of the fits through d
    data points: ``seeds_enumerated`` is C(n, d), ``seeds_degenerate``
    counts dependent rows [y_i, -x_i] and ``seeds_skipped`` fits with
    h[0] ~ 0, which covers dependent x rows; each scored fit is one sign
    completion and one solved subproblem, so ``subproblems_solved`` equals
    ``sign_completions``, the sum above still holds, and the other counters
    are 0.
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


def _first_rows(words: np.ndarray) -> np.ndarray:
    """Indices of the first row of each distinct row of ``words`` (rows, W), in row order.

    One exact sort groups equal rows: ``argsort`` of the word for rows of
    one word, ``lexsort`` of the words for longer rows.
    """
    order = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T)
    ranked = words[order]
    starts = np.flatnonzero(np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1))))
    return np.sort(np.minimum.reduceat(order, starts))


def _bit_words(points: np.ndarray, n: int) -> np.ndarray:
    """The :func:`_pack` words (..., W) of the one-point sets {i} of ``points`` (...)."""
    flat = points.ravel()
    words = np.zeros((flat.size, -(-n // 64)), dtype="<u8")
    words[np.arange(flat.size), flat // 64] = np.uint64(1) << (flat % 64).astype(np.uint64)
    return words.reshape(*points.shape, words.shape[1])


def _branch_words(base: np.ndarray, flips: np.ndarray, op: np.ufunc) -> np.ndarray:
    """The packed words of every branch of ``base``, in binary counting order.

    ``base`` holds words (..., W) and ``flips`` a stack (k, ..., W) of words
    of its shape.  Row b of the (2**k, ..., W) result is ``base`` with
    ``flips[j]`` applied by ``op`` for every set bit j of b: level j writes
    rows 2**j to 2**(j+1) - 1 as ``op`` of rows 0 to 2**j - 1 and ``flips[j]``.
    """
    words = np.empty((1 << flips.shape[0], *base.shape), dtype="<u8")
    words[0] = base
    for j, flip in enumerate(flips):
        op(words[: 1 << j], flip, out=words[1 << j : 2 << j])
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
    """Incumbent, counters, fit memo, scan loops and branch loop of the searches.

    The incumbent is (``j``, ``best``), the smallest objective met so far
    and its solution (``None`` while ``j`` is the trivial eps^p n); it moves
    only on a strictly smaller objective, so the first tie in scan order wins.
    A subclass declares ``seed_block``, the seeds per block of its scan, and
    implements ``process_chunk(subsets)``, its only per-seed entry point,
    and ``_winner()``, the (model, inliers) of ``best``.  A search that
    completes branches also declares its completion rule: ``count_bound``
    True prunes a set S by eps^p (n - |S|) >= J, and ``min_size`` prunes S
    by |S| < ``min_size``.  Its ``process_chunk`` builds branch words with
    :func:`_branch_words` and hands them to :meth:`_complete`, at most
    ``_BRANCH_CELLS`` bits per call, and ``_solve_many(masks)`` gives the
    objectives and solutions of a chunk of inlier sets, in row order.
    Fitted sets are remembered by the bytes of their packed words.
    """

    count_bound: bool
    min_size: int

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
        self.stack = max(1, _STACK_CELLS // n)  # sets per _solve_many call at most
        self.key_type = np.dtype((np.void, 8 * -(-n // 64)))  # a packed row as one memo key
        self.settled = 0  # sets solved since the incumbent last moved

    def _normals(self, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(h, degen) of a block of seeds (k, B), counting its seeds and degenerate ones.

        The normals h (m, B) are oriented, and ``degen`` flags the
        rank-deficient seeds.
        """
        self.stats.seeds_enumerated += subsets.shape[1]
        ws, zset = self.workspace, self.zset
        rows = ws.take("rows", zset.columns, subsets, axis=1)
        h, degen = _batched_normals(rows, zset.norms[subsets], ws)
        _orient(h)
        self.stats.seeds_degenerate += int(np.count_nonzero(degen))
        return h, degen

    def _hyperplanes(self, subsets: np.ndarray) -> tuple[np.ndarray, ...]:
        """:meth:`_normals`, then the lifted masks (size, B) ``below`` and ``closed`` of :func:`_classify`."""
        h, degen = self._normals(subsets)
        return h, degen, *_classify(self.zset, h, self.workspace)

    def _complete(self, words: np.ndarray, seeds: tuple | None = None) -> None:
        """Prune, reuse or fit the branches in ``words``, as a row-order scan would.

        Row i holds the packed inlier set S of one branch, its set bits the
        size |S|.  A scan one row at a time prunes S by the search's rule
        with the live incumbent J (|S| < ``min_size``, or the count bound
        eps^p (n - |S|) >= J), else reuses it if fitted before, else fits it
        and moves J on a strictly smaller objective.  A pruned set is not
        remembered: J only falls, so it fails again.

        ``seeds``, given by regression, is (ends, reach) of the seeds whose
        rows these are (``None``: one seed, never skipped), ``reach[s]``
        being eps^p (n - base - n0) of seed s, the count bound's own float
        expression at |S| = base + n0.  The scan skips seed s, its rows up
        to ``ends[s]`` uncounted, when reach[s] >= J at its first row.  That
        only settles the counters: a point of a branch set S has both lifted
        copies strictly below or one on the hyperplane, so |S| <= base + n0,
        and as rounding is monotone, eps^p (n - |S|) >= reach[s] >= J: S
        fails the count bound there and after, as J only falls.

        One forward pass in row order does the same, a chunk of sets at a
        time.  From the current row it takes the next sets that pass the
        rule against the live J and are new to the memo, in row order: one
        :func:`_first_rows` sort over a run of the passing rows, runs that
        double until the chunk is full, finds the first row of each.
        A row failing the rule now fails it at its own row, as J only falls,
        and every set a scan could fit before the chunk's last row is in the
        chunk.  ``_solve_many`` fits the chunk, and a replay of its rows in
        row order moves J on the first strictly smaller objective of a set
        that passes the rule at its row; a set fitted ahead but pruned there
        counts as pruned.  The one chunk rule: without the count bound no
        set is fitted ahead in vain, and a chunk holds ``stack`` sets; under
        it the k-th chunk of a call (k = 0, 1, ...) holds at most
        c 2**k sets, c the sets solved since J last moved (at least 1), as a
        move can prune the sets fitted after it: a chunk starts small while
        J moves and grows as it settles.
        """
        stats = self.stats
        total = words.shape[0]
        counts = np.bitwise_count(words).sum(axis=1)
        # eps^p (n - |S|): S fails the rule once J is at most it (at every J
        # below the size floor, at none without the count bound)
        bound = self.eps_p * (self.n - counts) if self.count_bound else np.full(total, -np.inf)
        if self.min_size:
            bound[counts < self.min_size] = np.inf
        ends, reach = seeds if seeds is not None else (np.array([total]), np.array([-np.inf]))
        firsts = np.concatenate(([0], ends[:-1]))
        of = np.repeat(np.arange(ends.size), ends - firsts)  # the seed of each row
        skipped = np.zeros(ends.size, dtype=bool)
        pos = step = 0
        while pos < total:
            j = self.j
            want = min(self.stack, max(1, self.settled) << step) if self.count_bound else self.stack
            step += 1
            # the first `want` sets past pos that pass the rule now and are
            # new, from windows of rows that double
            sets, keys, seen, low, span = [], [], set(), pos, 16 * want
            while low < total and len(sets) < want:
                high = min(total, low + span)
                run = low + np.flatnonzero(bound[low:high] < j)
                low, span = high, 2 * span
                if not run.size:
                    continue
                first = _first_rows(block := words[run])
                met = block[first].view(self.key_type).ravel().tolist()
                fresh = [i for i, key in enumerate(met) if key not in self.fitted and key not in seen]
                fresh = fresh[: want - len(sets)]
                sets.extend(run[first[fresh]].tolist())
                keys.extend(fresh := [met[i] for i in fresh])
                seen.update(fresh)
            stop = sets[-1] + 1 if len(sets) == want else total
            sets = np.array(sets, dtype=np.intp)
            solved, last = sets[:0], None
            first, end = np.searchsorted(firsts, (pos, stop))  # the seeds that start in pos..stop - 1
            if sets.size:
                objectives, solutions = self._solve_many(_unpack(words[sets], self.n))
                objectives = np.asarray(objectives, dtype=float)
                # the replay: J before each set and after the last
                set_bound = bound[sets]
                incumbents = np.empty(sets.size + 1)
                t = 0
                while (moves := np.flatnonzero((set_bound[t:] < j) & (objectives[t:] < j))).size:
                    u = t + int(moves[0])
                    incumbents[t : u + 1] = j
                    j, t, last = objectives[u], u + 1, u
                incumbents[t:] = j
                # J at each row of pos..stop - 1
                at_row = np.repeat(incumbents, np.diff(sets, prepend=pos - 1, append=stop - 1))
                at_start = at_row[firsts[first:end] - pos]
            else:
                at_row = at_start = j
            # a seed is skipped by J at its first row; its rows go uncounted
            skipped[first:end] = reach[first:end] >= at_start
            counted = ~skipped[of[pos:stop]]
            pruned = int(np.count_nonzero(counted & (bound[pos:stop] >= at_row)))
            if sets.size:
                solved = np.flatnonzero(set_bound < incumbents[:-1])
                self.fitted.update([keys[i] for i in solved.tolist()])
            if last is None:
                self.settled += solved.size
            else:
                self.j, self.best = float(objectives[last]), solutions[last]
                self.settled = int(np.count_nonzero(solved > last))
            completions = int(np.count_nonzero(counted))
            stats.inner_loops_skipped += int(np.count_nonzero(skipped[first:end]))
            stats.sign_completions += completions
            stats.subproblems_solved += solved.size
            stats.subproblems_pruned += pruned
            stats.subproblems_reused += completions - pruned - solved.size
            pos = stop

    def scan(
        self,
        blocks: Iterable[np.ndarray],
        progress: ProgressFn | None,
        should_stop: StopFn | None,
    ) -> None:
        """Process blocks of seeds in order, reporting and polling after each.

        Each block runs under :func:`.geometry._block_buffers`, numpy's ufunc
        buffer one block row long: a default buffer spanning several rows of
        a (size, B) block makes numpy 2.4 copy the broadcast operands of
        ``_classify`` into it.  ``progress`` and ``should_stop`` run outside
        it, with the caller's buffer size.
        """
        for block in blocks:
            with _block_buffers(block.shape[1]):
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
            **vars(self.stats),
        )


# ---------------------------------------------------------------------------
# Regression


class _RegressionSearch(_Search):
    """The lifted search of exact regression at p = 0 and 2 and of sampled regression at every p.

    ``process_chunk`` completes a block's usable seeds in runs of seeds of
    one on-set size: at a run's start the seeds are tested against the live
    incumbent, and only those that pass have their branch words built, by
    ``_handle_seed``; ``_complete`` tests each again at its first row.
    ``_solve_many`` fits a chunk of sets in stacks.

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
    min_size = 0

    def __init__(self, data: RegressionDataset, spec: LossSpec):
        super().__init__(lift_regression(data, spec), data.d, data.n, spec.saturation)
        self.data = data
        self.spec = spec
        self.p = spec.p

    def _solve_many(self, masks: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Fit and score a chunk of inlier sets, in row order, with :func:`.subsolvers._regression_fits`."""
        x, y = self.data.x, self.data.y
        w = _regression_fits(x, y, masks, self.p)
        # one mat-vec per set, as x @ w, so the objectives keep their bits
        objectives = np.sum(loss(self.spec, y - (x[None] @ w[:, :, None])[:, :, 0]), axis=1)
        return objectives, list(w)

    def _handle_seed(self, closed: np.ndarray, below: np.ndarray, reach: np.ndarray, size: int) -> None:
        """Complete a run of seeds of ``size`` on-points each from their lifted masks ``closed`` and ``below``.

        ``closed`` (below or on) and ``below`` hold one point-major column
        (2n,) per seed, ``reach`` its skip threshold for :meth:`_complete`.
        A seed's base row holds the data points whose two lifted copies are
        both closed.  Branch b puts the seed's t-th on-copy (in lifted
        order) above when bit size - 1 - t of b is 1, the order of
        ``product((-1, 1), repeat=size)``, which clears that copy's point:
        level j of :func:`_branch_words` ANDs out the point of on-copy
        size - 1 - j.  An XOR would set a point again whose two copies are
        both on and both above, and add one whose other copy is strictly
        above.  The run's rows reach :meth:`_complete` in seed order, then
        branch order, in one call.  A seed of more than ``_BRANCH_CELLS``
        bits of rows comes alone (``_RUN_CELLS <= _BRANCH_CELLS``) and is
        split on its high levels into calls of the largest power of two of
        rows that fits.
        """
        n, count, width = self.n, closed.shape[1], -(-self.n // 64)
        base = _pack(np.ascontiguousarray((closed[:n] & closed[n:]).T))  # packbits is slow across a stride
        copy, seed = np.divmod(np.flatnonzero(closed & ~below), count)
        point = (copy % n)[np.argsort(seed, kind="stable")].reshape(count, size)  # seed-major, lifted order
        flips = ~_bit_words(point[:, ::-1].T, n)  # level j: on-copy size - 1 - j
        cap = max(1, _BRANCH_CELLS // (64 * width))
        if 1 << size > cap:  # one seed
            low = cap.bit_length() - 1
            for high in _branch_words(base[0], flips[low:, 0], np.bitwise_and):
                self._complete(_branch_words(high, flips[:low, 0], np.bitwise_and))
            return
        words = _branch_words(base, flips, np.bitwise_and).swapaxes(0, 1).reshape(-1, width)
        self._complete(words, (np.arange(1, count + 1) << size, reach))

    def process_chunk(self, subsets: np.ndarray) -> None:
        """Process a block of seeds (k, B), in order."""
        stats = self.stats
        h, degen, below, closed = self._hyperplanes(subsets)
        h1_small = h[0] <= ON_HYPERPLANE_TOL
        base = _counts(below[: self.n] & below[self.n :], axis=0)
        n0 = _counts(closed, axis=0) - _counts(below, axis=0)
        valid = ~degen & ~h1_small
        stats.seeds_skipped += int(np.count_nonzero(h1_small & ~degen))
        if valid.any():
            stats.max_onset_size = max(stats.max_onset_size, int(n0[valid].max()))
        # A seed is skipped when no set of its branches can pass the count
        # bound: its reach eps^p (n - base - n0), the bound's own expression
        # at |S| = base + n0, is at least J.  J only falls, so a seed skipped
        # against the live incumbent at a run's start is skipped at its own
        # position too; _complete tests the seeds of a run again at their
        # first row.
        seeds = np.flatnonzero(valid)
        n0 = n0[seeds]
        reach = self.eps_p * (self.n - base[seeds] - n0)
        cap = max(1, _RUN_CELLS // (64 * -(-self.n // 64)))  # rows per run
        at = 0
        while at < seeds.size:
            kept = at + np.flatnonzero(reach[at:] < self.j)
            if not kept.size:
                stats.inner_loops_skipped += seeds.size - at
                return
            size = int(n0[kept[0]])
            if size > _MAX_ONSET:
                raise NoHyperplaneError(
                    f"{size} points lie on one candidate hyperplane; the data is far "
                    "from general position and the completion loop would not terminate"
                )
            # the run: the next kept seeds, at most _RUN, up to one of another
            # n0, whose rows fit in it (a seed of more rows alone)
            other = np.flatnonzero(n0[kept[:_RUN]] != size)
            run = kept[: max(1, min(int(other[0]) if other.size else _RUN, cap >> size))]
            stats.inner_loops_skipped += int(run[-1] + 1 - at - run.size)
            columns = seeds[run]
            self._handle_seed(closed[:, columns], below[:, columns], reach[run], size)
            at = int(run[-1]) + 1

    def _winner(self) -> tuple[RegressionModel, np.ndarray]:
        model = RegressionModel(self.best)
        return model, regression_inliers(self.data, model, self.spec)


class _Rows(NamedTuple):
    """Seed points as :func:`.geometry._seed_columns` prepares them, with their count."""

    columns: np.ndarray
    norms: np.ndarray
    size: int


class _VertexSearch(_Search):
    """Exact p = 1 regression: a scan of the fits through d data points, with no subproblem solver.

    Each term min(|r_i(w)|, eps) of the objective is concave on each side of
    r_i(w) = 0, so the objective is concave on every cell of the arrangement
    of the hyperplanes r_i(w) = 0.  When x has full column rank no cell
    holds a line, so every cell is a pointed polyhedron, and a concave
    function bounded below on one reaches its minimum at a vertex: a w that
    interpolates d points whose x rows are independent, an elemental fit.
    This needs no general position.

    The seeds are the d-subsets of the data rows [y_i, -x_i].  A seed's
    oriented normal h is orthogonal to its rows, so w = h[1:] / h[0]
    interpolates its points; it is usable when it is not degenerate and
    h[0] > ``ON_HYPERPLANE_TOL`` (dependent x rows put h[0] at 0).  Each
    block's fits are scored by :meth:`_scores`, and the first strictly
    smaller score in scan order becomes the incumbent.  The report rescores
    the winner with :func:`.core.regression_objective`, so its objective is
    its model's loss to the bit.  ``approx_regression_p0`` runs the same
    scan at p = 0 for its interpolations.
    """

    seed_block = 2048

    def __init__(self, data: RegressionDataset, spec: LossSpec):
        columns, norms = _seed_columns(np.column_stack([data.y, -data.x]))
        super().__init__(_Rows(columns, norms, data.n), data.d, data.n, spec.saturation)
        self.data = data
        self.spec = spec
        self.xt = np.ascontiguousarray(data.x.T)  # the columns of x, each contiguous

    def _scores(self, w: np.ndarray) -> np.ndarray:
        """The objectives (B,) of a stack of models w (d, B), each computed in one order whatever B.

        The residuals (B, n) are summed elementwise over the d columns of x,
        and each row's losses by numpy's pairwise sum over the contiguous
        row, so a fit scores the same bits in a block of any size, at any
        thread count; a matrix product's bits can depend on its shape.
        """
        ws = self.workspace
        e = ws.array("residuals", (w.shape[1], self.n))
        term = ws.array("products", e.shape)
        np.multiply(w[0][:, None], self.xt[0], out=e)
        for c in range(1, w.shape[0]):
            e += np.multiply(w[c][:, None], self.xt[c], out=term)
        np.subtract(self.data.y, e, out=e)
        if self.spec.p == 1:  # the loss min(|e|, eps), in place
            return np.sum(np.minimum(np.abs(e, out=e), self.spec.epsilon, out=e), axis=1)
        return np.sum(loss(self.spec, e), axis=1)

    def process_chunk(self, subsets: np.ndarray) -> None:
        """Score the usable fits of a block of seeds (k, B), in order."""
        stats = self.stats
        h, degen = self._normals(subsets)
        fits = np.flatnonzero(~degen & (h[0] > ON_HYPERPLANE_TOL))
        stats.seeds_skipped += subsets.shape[1] - int(np.count_nonzero(degen)) - fits.size
        stats.sign_completions += fits.size
        stats.subproblems_solved += fits.size
        if not fits.size:
            return
        w = h[1:, fits] / h[0, fits]
        scores = self._scores(w)
        i = int(np.argmin(scores))  # argmin returns the first minimizer
        if scores[i] < self.j:
            self.j, self.best = float(scores[i]), w[:, i].copy()

    _winner = _RegressionSearch._winner

    def build_report(self, wall: float, approximate: bool) -> SolveReport:
        report = super().build_report(wall, approximate)
        report.objective = regression_objective(self.data, report.model, self.spec)
        return report


def _regression_search(data: RegressionDataset, spec: LossSpec) -> _Search:
    """The exact regression search of ``spec.p``: the vertex scan at p = 1, the lifted search else."""
    return (_VertexSearch if spec.p == 1 else _RegressionSearch)(data, spec)


def _regression_range_task(payload) -> dict:
    x, y, p, eps, start, stop = payload
    search = _regression_search(RegressionDataset(x, y), LossSpec(p, eps))
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

    At p = 0 and 2, every d-subset of the 2n lifted points is used to build
    a candidate hyperplane; ambiguous (on-hyperplane) points are resolved by
    enumerating both labels, and the fixed-classification subproblem is
    solved for each surviving candidate inlier set.  The returned objective
    is the global minimum for data in general position.  At p = 1 the
    search scans the fits through every d-subset of the n data points and
    keeps the first of least loss (:class:`_VertexSearch`): the objective is
    concave on each cell of the arrangement of the hyperplanes
    r_i(w) = 0, so it reaches its minimum at such a fit whenever x has full
    column rank, general position or not.  A rank-deficient x raises
    :class:`NoHyperplaneError`.

    Seeds are scanned in blocks of 2,048 with the answer and counters of a
    seed-by-seed scan; ties go to the first candidate in scan order.  With
    ``threads`` > 1, at least 8,192 seeds and no ``should_stop``,
    min(``threads``, cores) worker processes scan contiguous ranges; the
    answer does not depend on the schedule, the solved/reused counters of
    p = 0 and 2 do (each worker has its own fit memo).  ``progress(seeds
    done, incumbent)`` and ``should_stop`` run after every block (with
    workers, ``progress`` once per range); a run given ``should_stop`` scans
    sequentially, so it can be cancelled at any thread count.
    """
    t0 = perf_counter()
    search = _regression_search(data, spec)
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
    of their computed errors.  A second scan, that of the exact p = 1
    search (:class:`_VertexSearch`), scores the interpolations through d
    data points, which covers noiseless data and the regime where only d
    points are approximable; there errors are counted directly.  A later
    model replaces an earlier one only on a strictly smaller objective.
    """
    if spec.p != 0:
        raise ValueError("this shortcut is defined for p = 0 only")
    lifted = _RegressionSearch(data, spec)
    n, d = data.n, data.d
    best_j, best_w = np.inf, None
    total, _ = _rank_tables(lifted.zset.size, d)  # the lifted scan, first, has the larger count
    for block in _lex_blocks(lifted.zset.size, d, 0, total, lifted.seed_block):
        with _block_buffers(block.shape[1]):
            h, degen, below, _ = lifted._hyperplanes(block)
            usable = ~degen & (h[0] > ON_HYPERPLANE_TOL)
            j = np.where(usable, n - _counts(below[:n] & below[n:], axis=0), np.inf)
        i = int(np.argmin(j))  # argmin returns the first minimizer
        if j[i] < best_j:
            best_j, best_w = float(j[i]), h[1:, i] / h[0, i]
    scan = _VertexSearch(data, spec)
    scan.j, scan.best = best_j, best_w
    scan.run_range(0, _rank_tables(n, d)[0])
    if scan.best is None:
        raise NoHyperplaneError("no usable hyperplane seed was found")
    return RegressionModel(scan.best), float(scan.j)


# ---------------------------------------------------------------------------
# Subspace estimation


class _SubspaceSearch(_Search):
    """Incumbent-tracking state shared by the exact and sampled subspace solvers.

    Its completion rule is the size floor, since a set of fewer than ds
    points does not determine a ds-dimensional subspace, and for an
    ``exhaustive`` search at p = 2 also the count bound, which is then
    exact.  Let S be the points within epsilon of an optimal basis, of
    objective J*.  The points outside S each cost eps^2, so
    J* >= eps^2 (n - |S|).  The fit of S, the top eigenvectors of its
    scatter, is the same minimizer of the squared residuals over S as the
    SVD of its points.  Under it a point of S costs at most its squared
    residual, whose sum over S is at most the sum under the optimal basis,
    which is what S costs there; a point outside S costs at most eps^2
    under any basis.  So the fit of S scores at most J*.  The
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

    def process_chunk(self, subsets: np.ndarray) -> None:
        """Process a block of seeds, in order.

        A seed's branches are the subsets of its k points in binary counting
        order (level j of :func:`_branch_words` adds seed point j to the
        sides that lack it), each with the points strictly below, then
        strictly above the hyperplane.  They reach :meth:`_complete` in seed
        order, then branch order.
        """
        stats = self.stats
        _, degen, below, closed = self._hyperplanes(subsets)
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
            words = _branch_words(sides[seeds], flips[:, seeds], np.bitwise_xor)
            words = words.transpose(1, 0, 2, 3).reshape(-1, width)  # frees the level-major copy
            self._complete(words)

    def _solve_many(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fit and score a chunk of inlier sets (B, n) from their lifted rows, the Veronese rows.

        Each objective is :func:`.core.subspace_objective` of its basis, bit for bit.
        """
        v, (count, n) = self.zset.z[:, 1:], masks.shape
        terms = self.workspace.array("scatter", (count, v.shape[1], n))
        bases = _subspace_fits(v, masks, self.data.d, self.ds, terms)[0]
        objectives = np.sum(loss(self.spec, _projection_residuals(self.data.x, bases)), axis=1)
        return objectives, bases

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
    squared-residual subspace solver (the top eigenvectors of its scatter,
    as :func:`.subsolvers.solve_subspace_p2` fits it, bit for bit) and
    scored with the true objective.
    Supports p in {0, 2}.  The p = 2 result is the global minimum for data
    in general position, and p = 2 prunes a candidate set S by the count
    bound eps^2 (n - |S|) >= J as well as by |S| < ds (see
    :class:`_SubspaceSearch`); p = 0 results are flagged ``approximate``,
    because the L2 fit of a feasible inlier set can leave one of its points
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
