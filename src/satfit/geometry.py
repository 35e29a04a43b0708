"""Lifted classification sets and hyperplanes through point subsets.

Both estimation problems reduce to classifying an auxiliary point set with
hyperplanes through the origin:

* regression lifts each pair ``(x_i, y_i)`` to two points
  ``[y_i - eps, -x_i]`` and ``[-y_i - eps, x_i]`` in ``R^(d+1)``; a point is
  an inlier of ``w`` (``|e| <= eps``) exactly when neither of its lifted
  copies falls on the positive side of the hyperplane with normal ``[1, w]``;
* subspace estimation lifts each point to ``[-eps^2, nu(x_i)]`` in
  ``R^(D+1)`` where ``nu`` is the degree-2 monomial embedding and
  ``D = d(d+1)/2``; inliers of a basis ``B`` are the points on the negative
  side of a single classifier normal derived from ``B``.

Candidate hyperplanes are generated from seeds of ``m - 1`` lifted points
(``m`` the lifted dimension): the unit normal spans the null space of the
seed rows, their generalized cross product.  The one lifted classification,
which the searches, ``approx_regression_p0`` and the public helpers all run,
is :func:`_batched_normals`, :func:`_orient` and :func:`_classify`: a point
is on a hyperplane when its margin is within ``ON_HYPERPLANE_TOL`` (relative
to ``max(1, ||z||)``) of zero, and the caller must resolve it.

The pipeline is laid out seed-last: the B seeds of a block sit on the
contiguous axis of every array, so each numpy call runs a few long loops
over the block rather than B short ones.  Seeds (k, B) gather their rows
into (m, k, B) from ``LiftedSet.columns``, the rows that :func:`_normal_rows`
scaled once per point set (each by a power of two up to ``_MAX_MINORS_DIM``,
raw above it), stored component-major, and their norms from
``LiftedSet.norms``; normals come out as (m, B), and :func:`_classify`
returns two point-major masks (size, B), ``below`` (margin < -tol) and
``closed`` (margin <= tol, below or on).  A search hands them its
:class:`_Workspace`, so its blocks reuse one set of arrays: the gathered
seed ``rows``, the ``terms``, ``gathered`` and ``minors`` of the Laplace
expansion, the ``normals``, the ``margins`` and the ``below`` / ``closed``
masks.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations
from typing import Iterator, Literal

import numpy as np

from .core import LossSpec, PointDataset, RegressionDataset, SubspaceModel

__all__ = [
    "ON_HYPERPLANE_TOL",
    "LiftedSet",
    "Hyperplane",
    "lift_regression",
    "lift_subspace",
    "veronese",
    "selection_vector",
    "subspace_normal",
    "signed_values",
    "hyperplane_through",
    "classify",
    "inliers_from_signs",
]

# Relative tolerance deciding that a lifted point lies on a hyperplane.
# Seeds are solved to machine precision, so this absorbs null-space round-off
# without absorbing genuine near-inliers at realistic epsilon.
ON_HYPERPLANE_TOL = 1e-9

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

Kind = Literal["regression", "subspace"]


@dataclass
class LiftedSet:
    """Classification point set derived from a dataset.

    ``z`` holds the lifted points as rows.  For the regression kind there are
    ``2 * n_points`` rows (the two copies of point ``i`` are rows ``i`` and
    ``i + n_points``); for the subspace kind there are ``n_points`` rows.
    ``columns`` (m, size) holds the same points as :func:`_normal_rows`
    prepares them, component-major, and ``norms`` their Euclidean norms
    (:func:`_norms`): what seeds gather for :func:`_batched_normals`.
    """

    kind: Kind
    z: np.ndarray
    n_points: int
    epsilon: float
    tol: np.ndarray = field(init=False, repr=False)
    columns: np.ndarray = field(init=False, repr=False)
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.z = np.asarray(self.z, dtype=float)
        # Margin tolerances are scaled per point so huge lifted coordinates
        # (e.g. gross outliers) do not defeat the on-hyperplane test.
        self.tol = ON_HYPERPLANE_TOL * np.maximum(1.0, np.linalg.norm(self.z, axis=1))
        self.columns, self.norms = _seed_columns(self.z)

    @property
    def size(self) -> int:
        return self.z.shape[0]

    @property
    def dim(self) -> int:
        return self.z.shape[1]


def lift_regression(data: RegressionDataset, spec: LossSpec) -> LiftedSet:
    """Build the 2n-point lifted set for regression."""
    eps = spec.epsilon
    top = np.column_stack([data.y - eps, -data.x])
    bottom = np.column_stack([-data.y - eps, data.x])
    return LiftedSet("regression", np.vstack([top, bottom]), data.n, eps)


@lru_cache(maxsize=None)
def _monomial_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (k, l), k <= l, in the fixed degree-2 monomial order."""
    first = np.array([k for k in range(d) for _ in range(k, d)])
    second = np.array([l for k in range(d) for l in range(k, d)])
    return first, second


def veronese(x: np.ndarray) -> np.ndarray:
    """Degree-2 monomial embedding of a vector.

    Components are ordered ``x1^2, x1*x2, ..., x1*xd, x2^2, x2*x3, ...,
    xd^2`` and the output has length ``d(d+1)/2``.
    """
    return _veronese_rows(np.asarray(x, dtype=float).ravel()[None])[0]


def _veronese_rows(x: np.ndarray) -> np.ndarray:
    first, second = _monomial_pairs(x.shape[1])
    return x[:, first] * x[:, second]


def selection_vector(d: int) -> np.ndarray:
    """Binary vector picking the squared monomials out of the embedding.

    Satisfies ``veronese(x) @ selection_vector(d) == ||x||^2`` for every x:
    the ones sit at the pairs (k, k) of the monomial order.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    first, second = _monomial_pairs(d)
    return (first == second).astype(float)


def lift_subspace(data: PointDataset, spec: LossSpec) -> LiftedSet:
    """Build the n-point lifted set for subspace estimation."""
    eps = spec.epsilon
    v = _veronese_rows(data.x)
    z = np.column_stack([np.full(data.n, -eps * eps), v])
    return LiftedSet("subspace", z, data.n, eps)


def subspace_normal(model: SubspaceModel) -> np.ndarray:
    """Classifier normal in the lifted space for a given orthonormal basis.

    The tail encodes the quadratic form ``x^T (I - B B^T) x`` over the plain
    monomial coordinates, so cross-monomial coefficients carry a factor 2.
    With ``h`` the returned vector and ``z`` a lifted point,
    ``h @ z = ||(I - B B^T) x||^2 - eps^2``, hence strict inliers are exactly
    the points with ``h @ z < 0``.
    """
    b = model.basis
    d = b.shape[0]
    first, second = _monomial_pairs(d)
    m = b @ b.T
    coeffs = np.where(first == second, 1.0, 2.0) * m[first, second]
    return np.concatenate([[1.0], selection_vector(d) - coeffs])


@dataclass
class Hyperplane:
    """Unit normal through the origin, with bookkeeping about its seed.

    ``onset`` lists the lifted indices whose margin is within tolerance of
    zero (this always includes the seed, and with non-generic data may
    include more points).
    """

    normal: np.ndarray
    onset: np.ndarray
    seed: tuple[int, ...]


class _Workspace:
    """The block-sized arrays of one search's per-seed pipeline, reused block after block.

    glibc serves an allocation of at least its mmap threshold (128 KiB at
    start) with fresh pages and unmaps them on free; freeing such a chunk
    raises the threshold to its size and the heap's trim threshold to twice
    that, and a free that leaves more than the trim threshold at the top of
    the heap hands those pages back to the kernel.  Either way, a block's
    temporaries of 0.1-1 MB, allocated fresh, would go back to the kernel
    after the block and fault their pages in again in the next one (about
    61,000 minor faults per threads = 1 solve at d = 3, n = 60, against
    1,000 with a workspace).  Here each named array is one flat buffer,
    allocated at the first request and again only when a larger one comes,
    so a search's buffers take the size of its largest block.  A returned
    view is valid until the next request of its name, the next block:
    callers copy what they keep.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        """A view of shape ``shape`` of the buffer ``name``, its contents undefined."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def take(self, name: str, source: np.ndarray, index: np.ndarray, axis: int = 0) -> np.ndarray:
        """``np.take(source, index, axis)`` written into the buffer ``name``.

        The indices must be valid: ``mode="clip"`` writes straight into the
        buffer, where the default mode fills a temporary copy first.
        """
        shape = source.shape[:axis] + index.shape + source.shape[axis + 1 :]
        out = self.array(name, shape, source.dtype)
        return np.take(source, index, axis=axis, out=out, mode="clip")


@contextmanager
def _block_buffers(width: int) -> Iterator[None]:
    """numpy's ufunc buffer one row of a block of ``width`` seeds long, for the ``with`` body.

    numpy 2.4 copies a broadcast operand, such as the tolerance column and
    the 2 eps h[0] row of :func:`_classify`, into its buffer (8,192
    elements by default) whenever one buffer spans several rows of a
    (size, B) block.  A buffer of B elements, rounded up to the multiple
    of 16 numpy requires, spans one row, so the operand is read in place:
    a 2,048-seed d = 3 block classifies in about half the time.  The size
    changes no elementwise result and no reduction without a cast.  A
    casting float reduction sums buffer by buffer, so its bits would depend
    on the size; a block has none, its only casting sums being the integer
    counts.  ``np.errstate`` restores the caller's size on exit, an
    exception included.
    """
    with np.errstate():
        np.setbufsize(-(-width // 16) * 16)
        yield


# Largest lifted dimension m with normals from the minors (m 2^(m-1) products
# per seed): per 2,048 seeds, 28.5 ms against 35.6 ms for the SVD at m = 9,
# 60 ms against 33 ms at m = 10 (one BLAS thread).
_MAX_MINORS_DIM = 9


@lru_cache(maxsize=None)
def _laplace_tables(m: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per level t = 2 .. m-1, the t-subsets of the m columns in lexicographic
    order (C, t) and the rank of each without its p-th column (C, t)."""
    tables, prev = [], {(c,): c for c in range(m)}
    for t in range(2, m):
        subsets = list(combinations(range(m), t))
        rest = [[prev[s[:p] + s[p + 1 :]] for p in range(t)] for s in subsets]
        tables.append((np.array(subsets), np.array(rest)))
        prev = {s: i for i, s in enumerate(subsets)}
    return tuple(tables)


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the first axis, the squares added first to last."""
    sq = v[0] * v[0]
    for c in range(1, v.shape[0]):
        sq += v[c] * v[c]
    return np.sqrt(sq)


def _normal_rows(z: np.ndarray) -> np.ndarray:
    """The rows (..., m) that :func:`_batched_normals` takes, prepared once per point set.

    Up to ``_MAX_MINORS_DIM`` each row is scaled by the power of two that
    puts its largest |entry| in [0.5, 1) (an all-zero row stays zero): exact,
    so a normal keeps the direction of its raw rows to the bit, and no
    product of the minors overflows at any scale.  Above it the rows stay
    raw, as the SVD and its rank rule take them.
    """
    m = z.shape[-1]
    if m > _MAX_MINORS_DIM:
        return z
    # A loop over the short last axis, not a reduction: faster, and in one
    # order for any shape.  top >= tiny, so no scale factor overflows.
    top = np.full(z.shape[:-1], _TINY)
    for c in range(m):
        np.maximum(top, np.abs(z[..., c]), out=top)
    return z * np.ldexp(1.0, -np.frexp(top)[1])[..., None]


def _seed_columns(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`_normal_rows` of a point set (size, m), component-major (m, size), and their norms.

    Seeds (k, B) gather their rows from the first as ``np.take(columns,
    seeds, axis=1)`` and the norms those rows would have as ``norms[seeds]``.
    """
    columns = np.ascontiguousarray(_normal_rows(z).T)
    return columns, _norms(columns)


def _batched_normals(
    a: np.ndarray, norms: np.ndarray, ws: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Unit null-space directions (m, B) of a stack of seed matrices, seed-last (m, m-1, B).

    The one normal routine, run on blocks of seeds and on one-seed stacks
    alike; ``a[:, r, b]`` is row r of seed b, a :func:`_normal_rows` row, and
    ``norms`` (m-1, B) the Euclidean norms of those rows.  Returns the raw
    directions (sign not yet fixed, see :func:`_orient`) and the degeneracy
    mask (B,).  Up to ``_MAX_MINORS_DIM`` the normal is the generalized cross
    product: component j is (-1)^j times the minor of the seed without
    column j, built from the last row up by Laplace expansion (for two rows,
    the arithmetic of ``np.cross``; the exact row scaling keeps h[0] == 0 for
    the two lifted copies of one point at d = 2).  A seed is degenerate when
    ``||h|| <= m eps prod(||row||)``: the product bounds ``||h||``
    (Hadamard), and each minor carries a rounding error of a few eps times
    it; for two rows this is the cross-product rule ``||a0 x a1|| <= 3 eps
    ||a0|| ||a1||``.  Larger seeds take the last right singular vector of a
    batched SVD of the seeds as (B, m-1, m) matrices, degenerate when the
    smallest singular value is at most ``m eps`` times the largest.  A null
    space of dimension > 1 cannot pin down a hyperplane, so such seeds are
    degenerate.  The minors and normals are written into ``ws`` (a fresh one
    if None).
    """
    m, k = a.shape[:2]
    if m > _MAX_MINORS_DIM:  # the SVD's outputs are fresh arrays
        _, s, vh = np.linalg.svd(a.transpose(2, 1, 0))
        degen = (s[:, 0] <= 0.0) | (s[:, -1] <= m * _EPS * s[:, 0])
        return np.ascontiguousarray(vh[:, -1, :].T), degen
    ws = _Workspace() if ws is None else ws
    minors = a[:, -1]
    for r, (cols, rest) in zip(range(k - 2, -1, -1), _laplace_tables(m)):
        terms = ws.take("terms", a[:, r], cols)
        terms *= ws.take("gathered", minors, rest)
        minors = ws.array("minors", (cols.shape[0], a.shape[2]))  # the last level's are spent
        minors[...] = terms[:, 0]
        for p in range(1, cols.shape[1]):
            (np.subtract if p % 2 else np.add)(minors, terms[:, p], out=minors)
    # the (m-1)-subsets are listed by the column they omit, the last one first
    h = ws.array("normals", (m, a.shape[2]))
    np.multiply(minors[::-1], ((-1.0) ** np.arange(m))[:, None], out=h)
    h_norms = _norms(h)
    degen = h_norms <= reduce(np.multiply, norms, m * _EPS)
    h /= np.where(degen, 1.0, h_norms)
    return h, degen


def _orient(h: np.ndarray) -> None:
    """The one orientation rule, in place on a stack of normals (m, B): ``h[0] >= 0``.

    Regression needs this sign for its orientation argument; subspace
    search explores both sides of each hyperplane and only needs a
    deterministic one.
    """
    h *= np.where(h[0] < 0, -1.0, 1.0)  # exact; a masked negation broadcasts slowly


def _classify(
    zset: LiftedSet, h: np.ndarray, ws: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks (size, B) of the lifted points below and below-or-on each hyperplane.

    The one on-hyperplane test: a point is on the hyperplane when its margin
    is within ``ON_HYPERPLANE_TOL * max(1, ||z||)`` of zero, below it when the
    margin is smaller still.  Returns ``below`` (margin < -tol) and
    ``closed`` (margin <= tol, so the on-points are ``closed & ~below``).
    The margins are one product ``z @ h`` of the (first) lifted rows; for
    the regression kind the second copy's margin is ``-h @ z_i - 2 eps
    h[0]``, which is ``-fl(g + 2 eps h[0])`` to the bit for g the first
    copy's margin (rounding to nearest is symmetric), so ``g + 2 eps h[0]``
    is written over g and tested against the negated bounds.  The searches
    call it on blocks of oriented normals (m, B) with their workspace and
    under :func:`_block_buffers`, whose buffer of one (size, B) row lets
    numpy read the broadcast tolerance column and 2 eps h[0] row in place
    rather than copy them into a buffer spanning several rows; the public
    helpers call it on a one-column stack.
    """
    ws = _Workspace() if ws is None else ws
    head = zset.n_points if zset.kind == "regression" else zset.size
    g = np.matmul(zset.z[:head], h, out=ws.array("margins", (head, h.shape[1])))
    below = ws.array("below", (zset.size, h.shape[1]), bool)
    closed = ws.array("closed", below.shape, bool)
    tol = zset.tol[:, None]
    np.less(g, -tol[:head], out=below[:head])
    np.less_equal(g, tol[:head], out=closed[:head])
    if zset.kind == "regression":
        g += 2.0 * zset.epsilon * h[:1]
        np.greater(g, tol[head:], out=below[head:])
        np.greater_equal(g, -tol[head:], out=closed[head:])
    return below, closed


def signed_values(zset: LiftedSet, normal: np.ndarray) -> np.ndarray:
    """Margins ``normal @ z_i`` for every lifted point, by the formulas of :func:`_classify`."""
    h = np.asarray(normal, dtype=float)
    head = zset.n_points if zset.kind == "regression" else zset.size
    g = zset.z[:head] @ h
    if zset.kind != "regression":
        return g
    return np.concatenate([g, -(g + 2.0 * zset.epsilon * h[0])])


def hyperplane_through(zset: LiftedSet, subset) -> Hyperplane | None:
    """Hyperplane through the origin and the given seed of lifted points.

    The seed must contain exactly ``dim - 1`` distinct lifted indices, each
    in ``[0, size)``.  Returns None when the seed rows are rank-deficient (the
    caller skips and counts such seeds).  The normal is oriented, and its onset found, by the
    code the searches run on their blocks (:func:`_orient`, :func:`_classify`).
    """
    idx = tuple(int(i) for i in subset)
    if len(idx) != zset.dim - 1 or len({i for i in idx if 0 <= i < zset.size}) != len(idx):
        k, size = zset.dim - 1, zset.size
        raise ValueError(f"seed must hold {k} distinct indices in [0, {size}), got {subset!r}")
    seed = np.array(idx)[:, None]
    h, degen = _batched_normals(zset.columns[:, seed], zset.norms[seed])
    if degen[0]:
        return None
    _orient(h)
    below, closed = _classify(zset, h)
    return Hyperplane(h[:, 0], np.flatnonzero(closed[:, 0] & ~below[:, 0]), idx)


def classify(zset: LiftedSet, normal: np.ndarray) -> np.ndarray:
    """Sign vector in {-1, 0, +1} of every lifted point against a hyperplane.

    A point is classified 0 exactly when its margin is within
    ``ON_HYPERPLANE_TOL * max(1, ||z||)`` of zero; the normal is normalized
    internally so the tolerance is meaningful for any nonzero input.
    """
    normal = np.asarray(normal, dtype=float)
    norm = np.linalg.norm(normal)
    if norm == 0.0:
        raise ValueError("normal must be nonzero")
    below, closed = _classify(zset, (normal / norm)[:, None])
    return np.where(below[:, 0], -1, np.where(closed[:, 0], 0, 1)).astype(np.int8)


def inliers_from_signs(
    q: np.ndarray, kind: Kind, orientation: int | None = None
) -> np.ndarray:
    """Inlier indices encoded by a fully resolved sign vector.

    Regression: indices ``i`` with ``q[i] == q[i + n] == -1``.  Subspace:
    indices with ``q[i] == orientation`` for the caller-supplied orientation.
    Zeros are a contract violation; they must be resolved by the completion
    loop before calling this.
    """
    q = np.asarray(q)
    if np.any(q == 0):
        raise ValueError("sign vector contains unresolved zeros")
    if kind == "regression":
        if q.shape[0] % 2:
            raise ValueError("regression sign vector must have even length")
        n = q.shape[0] // 2
        return np.flatnonzero((q[:n] == -1) & (q[n:] == -1))
    if orientation not in (-1, 1):
        raise ValueError("subspace kind needs orientation -1 or +1")
    return np.flatnonzero(q == orientation)
