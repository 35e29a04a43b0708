"""Fixed-classification subproblems: least squares, least absolute deviations,
minimax (Chebyshev) regression, and the rank-ds subspace fit.

The least-absolute-deviations and Chebyshev fits are small-basis vertex
methods rather than a general linear program.  The LAD fit walks the
vertices of the L1 objective, each pinned by d points with zero residual,
with the long-step ratio test of Barrodale and Roberts: one d x d basis per
pivot and an exact line search to the weighted median of the residual
breakpoints, for a stack of point sets at once (one set is a stack of
one).  The Chebyshev fit is the Stiefel exchange, a simplex method on
the dual of the minimax problem with a (d + 1) x (d + 1) basis of reference
points.  Both start from a deterministic basis, compute every vertex from
its sorted basis, and return an optimality certificate with the fit, so one
point set always gives the same bits.
"""

from __future__ import annotations

import warnings
from itertools import groupby

import numpy as np

from .core import PointDataset, RegressionDataset, RegressionModel, SubspaceModel, _counts
from .geometry import _monomial_pairs, _veronese_rows

__all__ = [
    "SolverFailure",
    "RankDeficientFitWarning",
    "NonUniqueBasisWarning",
    "solve_least_squares",
    "solve_lad",
    "solve_minimax",
    "solve_subspace_p2",
]


class SolverFailure(RuntimeError):
    """A vertex solver hit its pivot guard or lost its basis."""


class RankDeficientFitWarning(RuntimeWarning):
    """A least-squares subset was rank deficient; a minimum-norm fit was used."""


class NonUniqueBasisWarning(RuntimeWarning):
    """Singular values are repeated at the cut; the fitted subspace is not unique."""


# ---------------------------------------------------------------------------
# Regression subproblems


def _subset_array(subset, n: int, smallest: int = 1) -> np.ndarray:
    idx = np.asarray(list(subset), dtype=np.intp)
    if idx.size < smallest:
        raise ValueError(f"the subset needs at least {smallest} point(s), got {idx.size}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError("subset indices out of range")
    return idx


_RANK_RATIO = 1e-8  # smallest / largest Cholesky diagonal of a full-rank Gram matrix


def _ls_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    # Normal equations are much cheaper than an SVD solve and accurate
    # enough at these tiny dimensions; the Cholesky factorization doubles as
    # the rank certificate, with an SVD fallback for (near-)deficient
    # subsets where the minimum-norm solution is wanted.
    d = x.shape[1]
    if x.shape[0] >= d:
        gram = x.T @ x
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            chol = None
        if chol is not None:
            diag = np.diag(chol)
            if diag.min() > _RANK_RATIO * diag.max():
                try:
                    return np.linalg.solve(gram, x.T @ y), d
                except np.linalg.LinAlgError:
                    pass  # exactly dependent columns can pass the Cholesky test
    w, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    return w, int(rank)


def _ls_fits(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked :func:`_ls_fit` over (B, m, d) designs with m >= d: (B, d) fits and (B,) ranks.

    One stacked Cholesky and solve cover the rows that pass the rank rule;
    the others, or the whole stack if the stacked Cholesky or solve raises,
    go through :func:`_ls_fit` one at a time.  Each row is bit for bit the
    one-set result.
    """
    d = xs.shape[2]
    xt = xs.transpose(0, 2, 1)
    gram = xt @ xs
    ws = np.empty((xs.shape[0], d))
    ranks = np.full(xs.shape[0], d)
    try:
        diag = np.diagonal(np.linalg.cholesky(gram), axis1=1, axis2=2)
        ok = diag.min(axis=1) > _RANK_RATIO * diag.max(axis=1)
        ws[ok] = np.linalg.solve(gram[ok], (xt @ ys[:, :, None])[ok])[:, :, 0]
    except np.linalg.LinAlgError:
        ok = np.zeros(xs.shape[0], dtype=bool)
    for i in np.flatnonzero(~ok):
        ws[i], ranks[i] = _ls_fit(xs[i], ys[i])
    return ws, ranks


def solve_least_squares(data: RegressionDataset, subset) -> RegressionModel:
    """Least-squares fit over the subset.

    A rank-deficient design matrix does not fail: the minimum-norm solution
    is returned and a :class:`RankDeficientFitWarning` is emitted, since
    degenerate inlier subsets can legitimately arise during sampling.
    """
    idx = _subset_array(subset, data.n)
    w, rank = _ls_fit(data.x[idx], data.y[idx])
    if rank < data.d:
        warnings.warn(
            f"least-squares subset of size {idx.size} has rank {rank} < d={data.d}; "
            "returning the minimum-norm solution",
            RankDeficientFitWarning,
            stacklevel=2,
        )
    return RegressionModel(w)


# Tolerances of the vertex solvers.  A row (or column) is independent of
# those taken before it when its part outside their span keeps more than
# _RANK_TOL of its norm.  A residual is zero, and a basic multiplier or a
# residual beyond the levelled error is infeasible, only beyond _ZERO_TOL
# (times max |y| for residuals), so round-off cannot drive endless pivots.
# An edge coefficient or ratio-test pivot below _PIVOT_TOL of its scale is
# zero: entering that point would make the basis singular.
_RANK_TOL = 1e-10
_ZERO_TOL = 1e-12
_PIVOT_TOL = 1e-11


def _independent_rows(a: np.ndarray, order, limit: int) -> list[int]:
    """The first ``limit`` rows of ``a`` in ``order`` that are independent of those taken."""
    q = np.empty((limit, a.shape[1]))
    taken: list[int] = []
    for i in order:
        if len(taken) == limit:
            break
        v = a[i]
        norm = np.sqrt(v @ v)
        if taken:
            b = q[: len(taken)]
            v = v - (b @ v) @ b
            v = v - (b @ v) @ b  # a second pass restores orthogonality
        rest = np.sqrt(v @ v)
        if rest > _RANK_TOL * norm:
            q[len(taken)] = v / rest
            taken.append(int(i))
    return taken


def _on_spanning_columns(x, rows, solve, *no_columns):
    """``solve(cols)`` on the leftmost columns ``cols`` that keep ``rows`` independent.

    ``rows`` is a basis of the row space of a rank-deficient x, so x has the
    same column space as its restriction to those columns; the other
    coefficients are 0.  ``solve`` returns the fit on ``cols`` and its
    certificate; without any column the fit is w = 0 with the certificate
    ``no_columns``.
    """
    w = np.zeros(x.shape[1])
    cols = _independent_rows(x[rows].T, range(x.shape[1]), len(rows))
    if not cols:
        return (w, *no_columns)
    w[cols], *certificate = solve(cols)
    return (w, *certificate)


def _size_stacks(masks: np.ndarray):
    """The sets of ``masks`` (B, n) by size: (positions, (count, size) point indices) per size.

    Sizes ascend, and the sets of one size keep their order.
    """
    sizes = _counts(masks, axis=1)
    order = np.argsort(sizes, kind="stable")
    points = np.flatnonzero(masks[order]) % masks.shape[1]
    row = cell = 0
    for size, group in groupby(sizes[order].tolist()):
        count = len(list(group))
        yield order[row : row + count], points[cell : cell + count * size].reshape(count, size)
        row += count
        cell += count * size


def _lad_vertices(
    x: np.ndarray, y: np.ndarray, masks: np.ndarray, max_pivots: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal vertices of min sum_S |y - x w| for a stack of point sets S.

    The points are the rows of x (n, d) and y (n,); row b of ``masks`` (B, n)
    selects set b.  Returns the (B, d) fits, their (B, d) bases (the sorted
    basis points, then -1 where a rank-deficient set has fewer) and the
    (B, n) dual certificates (0 off the set).

    A vertex is pinned by a basis B of d points with zero residual.  Its
    basic multipliers solve x_B.T lam_B = -x_N.T sign(r_N); the vertex is
    optimal when |lam_B| <= 1, and ``lam`` (lam_B on B, sign(r_i) off it)
    then satisfies x.T lam = 0 and |lam| <= 1 over the set, which certifies
    sum |r| = lam @ y as the minimum.  Otherwise basis point j with the
    largest |lam_j| > 1 leaves: w moves along the edge that keeps the other
    d - 1 residuals at zero, to the weighted median of the residual
    breakpoints, where the point that stops the descent enters (the
    long-step ratio test of Barrodale and Roberts).

    Start rule: the least-squares fit of the normal equations ranks the
    points by |residual| (stable order), and B takes the first d
    independent ones.  A point whose residual is zero off the basis keeps
    the side it was last on (+1 at first).  After a degenerate pivot (step
    length 0) the smallest violating point leaves instead of the largest
    multiplier, and ties among breakpoints go to the smallest index.  A set
    of k points taking more than ``max_pivots`` pivots (default
    50 (k + d) + 100) raises :class:`SolverFailure`.

    Every set pivots on its own rows of the stack, with elementwise
    operations and one small matrix call per set, so its fit, basis and
    certificate have the same bits in any stack, a stack of one included.
    Each vertex is computed from its sorted basis, w = inv(x_B) y_B, so
    sets sharing an optimal vertex share its bits.  A rank-deficient set
    (fewer than d independent points) is solved by
    :func:`_on_spanning_columns`, as a stack of one.
    """
    n, d = x.shape
    count = masks.shape[0]
    member = masks.astype(float)
    sizes = _counts(masks, axis=1)
    # the start: normal equations of each set, one matrix call per set
    xt = x.T * member[:, None, :]
    gram, rhs = xt @ x, (xt @ y[:, None])[:, :, 0]
    try:
        start = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # a singular set: the others keep their bits alone
        start = np.zeros((count, d))
        for b in range(count):
            try:
                start[b] = np.linalg.solve(gram[b], rhs[b][:, None])[:, 0]
            except np.linalg.LinAlgError:
                start[b] = np.linalg.lstsq(x[masks[b]], y[masks[b]], rcond=None)[0]
    residual = np.abs(y - (x @ start[:, :, None])[:, :, 0])
    order = np.argsort(np.where(masks, residual, np.inf), axis=1, kind="stable")
    # the first d independent points of each set in that order (Gram-Schmidt)
    basis = np.full((count, d), -1, dtype=np.intp)
    found = np.zeros(count, dtype=np.intp)
    q = np.zeros((count, d, d))
    for at in range(n):
        open_ = np.flatnonzero((found < d) & (at < sizes))
        if not open_.size:
            break
        i = order[open_, at]
        v = x[i]
        norm = np.sqrt(np.sum(v * v, axis=1))
        for _ in range(2):  # a second pass restores orthogonality
            v = v - ((q[open_] @ v[:, :, None]).transpose(0, 2, 1) @ q[open_])[:, 0]
        rest = np.sqrt(np.sum(v * v, axis=1))
        took = rest > _RANK_TOL * norm
        b, t = open_[took], found[open_[took]]
        q[b, t], basis[b, t] = v[took] / rest[took, None], i[took]
        found[b] += 1
    fits = np.zeros((count, d))
    certificates = np.zeros((count, n))
    done = found < d
    for b in np.flatnonzero(done).tolist():
        rows = basis[b, : found[b]]

        def solve(cols, b=b):
            w, basis_b, lam = _lad_vertices(x[:, cols], y, masks[b : b + 1], max_pivots)
            return w[0], basis_b[0], lam[0]

        fits[b], vertex, certificates[b] = _on_spanning_columns(
            x, rows, solve, np.empty(0, dtype=np.intp), np.sign(y) * masks[b]
        )
        basis[b] = -1
        basis[b, : vertex.size] = vertex
    basis[~done] = np.sort(basis[~done], axis=1)
    limit = 50 * (sizes + d) + 100 if max_pivots is None else np.full(count, max_pivots)
    row_norms = np.sqrt(np.sum(x * x, axis=1))
    zero = _ZERO_TOL * np.where(masks, np.abs(y), 0.0).max(axis=1, initial=0.0)
    side = member.copy()
    bland = np.zeros(count, dtype=bool)
    pivots = np.zeros(count, dtype=np.intp)
    while (live := np.flatnonzero(~done)).size:
        rows = np.arange(live.size)[:, None]
        at = basis[live]
        g = np.linalg.inv(x[at])
        w = (g @ y[at][:, :, None])[:, :, 0]
        r = y - (x @ w[:, :, None])[:, :, 0]
        r[rows, at] = 0.0
        moved = (np.abs(r) > zero[live, None]) & masks[live]
        s = np.where(moved, np.sign(r), side[live])
        s[rows, at] = 0.0
        lam_b = -((s[:, None, :] @ x) @ g)[:, 0]
        excess = np.abs(lam_b) - 1.0
        j = np.where(bland[live], np.argmax(excess > _ZERO_TOL, axis=1), np.argmax(excess, axis=1))
        excess_j = excess[rows[:, 0], j]
        optimal = excess_j <= _ZERO_TOL
        if optimal.any():
            b, lam = live[optimal], s[optimal]
            lam[rows[: b.size], at[optimal]] = lam_b[optimal]
            fits[b], certificates[b], done[b] = w[optimal], lam, True
            if optimal.all():
                break
            go = ~optimal
            live, rows, at, g, r, s, moved = live[go], rows[: go.sum()], at[go], g[go], r[go], s[go], moved[go]
            j, lam_b, excess_j = j[go], lam_b[go], excess_j[go]
        if (spent := pivots[live] >= limit[live]).any():
            raise SolverFailure(f"LAD fit exceeded its pivot guard ({limit[live][spent][0]} pivots)")
        pivots[live] += 1
        flat = rows[:, 0]
        sigma = np.where(lam_b[flat, j] > 0.0, -1.0, 1.0)
        delta = sigma[:, None] * g[flat, :, j]
        a = (x @ delta[:, :, None])[:, :, 0]
        # Points whose residual the step drives through zero, at t = r / a.
        scale = _PIVOT_TOL * np.sqrt(np.sum(delta * delta, axis=1))
        cand = s * a > scale[:, None] * row_norms
        t = np.full_like(r, np.inf)
        t[cand] = 0.0
        np.divide(r, a, out=t, where=cand & moved)
        order = np.argsort(t, axis=1, kind="stable")
        slope = 2.0 * np.cumsum(np.where(cand, np.abs(a), 0.0)[rows, order], axis=1) - excess_j[:, None]
        if (slope[:, -1] < 0.0).any() or not cand.any(axis=1).all():
            raise SolverFailure("LAD edge without a stopping breakpoint")
        stop = np.argmax(slope >= 0.0, axis=1)
        flip = np.ones_like(r)
        flip[rows, order] = np.where(np.arange(n) < stop[:, None], -1.0, 1.0)
        s *= flip
        s[flat, at[flat, j]] = -sigma  # the leaving point's side if the step is degenerate
        enter = order[flat, stop]
        bland[live] |= t[flat, enter] == 0.0
        at[flat, j] = enter
        at.sort(axis=1)
        side[live], basis[live] = s, at
    return fits, basis, certificates


def _lad_fit(x: np.ndarray, y: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The (B, d) least-absolute-deviations fits of the sets ``masks`` (B, n) of the rows of x, y."""
    return _lad_vertices(x, y, masks)[0]


def solve_lad(data: RegressionDataset, subset) -> RegressionModel:
    """Least-absolute-deviations fit over the subset (always feasible)."""
    idx = _subset_array(subset, data.n)
    return RegressionModel(_lad_fit(data.x[idx], data.y[idx], np.ones((1, idx.size), dtype=bool))[0])


def _chebyshev_vertex(
    x: np.ndarray, y: np.ndarray, max_pivots: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Optimal Chebyshev fit of y by x w, by the Stiefel exchange: (w, ref, sig, mu).

    A reference is d + 1 points with signs sig_i.  The levelled fit solves
    y_i - x_i w = sig_i h on it, and the dual weights mu of the exchange
    keep mu >= 0, sum mu = 1 and sum mu_i sig_i x_i = 0, which certify that
    no fit has a maximum error below h.  The fit is optimal once every
    other residual is within h; otherwise the point with the largest
    residual enters with the sign of its residual, and the ratio test
    min mu_i / alpha_i picks the point that leaves.  h never decreases.

    Start rule: the minimum-norm least-squares fit ranks the points by
    |residual|, largest first (stable order).  The reference takes the
    first d independent ones and the next point, with the signs and weights
    of their one linear relation, oriented so that h >= 0.  After a degenerate
    exchange (a zero ratio) the smallest violating point enters instead of
    the largest, and ratio ties go to the smallest index.  More than
    ``max_pivots`` exchanges (default 50 (k + d) + 100) raise
    :class:`SolverFailure`.

    Rank-deficient x is solved by :func:`_on_spanning_columns`.  When the
    points are as many as the rank, the fit interpolates them: h = 0 and
    mu = 0.
    """
    k, d = x.shape
    residual = np.abs(y - x @ np.linalg.lstsq(x, y, rcond=None)[0])
    order = np.argsort(-residual, kind="stable")
    found = _independent_rows(x, order, d)
    if len(found) < d:
        i = int(np.argmax(np.abs(y)))
        sign = np.array([-1.0 if y[i] < 0 else 1.0])
        return _on_spanning_columns(
            x,
            found,
            lambda cols: _chebyshev_vertex(x[:, cols], y, max_pivots),
            np.array([i]),
            sign,
            np.ones(1),
        )
    if k == d:
        ref = np.sort(np.asarray(found, dtype=np.intp))
        return np.linalg.solve(x[ref], y[ref]), ref, np.ones(d), np.zeros(d)
    extra = int(next(i for i in order if i not in found))
    ref = np.asarray(found + [extra], dtype=np.intp)
    relation = np.append(np.linalg.solve(x[found].T, x[extra]), -1.0)
    sig = np.where(relation < 0.0, -1.0, 1.0)
    if relation @ y[ref] < 0.0:
        sig = -sig
    order = np.argsort(ref)
    ref, sig = ref[order], sig[order]
    limit = 50 * (k + d) + 100 if max_pivots is None else max_pivots
    tol = _ZERO_TOL * np.abs(y).max()
    m = np.empty((d + 1, d + 1))
    bland = False
    pivots = 0
    while True:
        m[:, :d] = x[ref]
        m[:, d] = sig
        inv = np.linalg.inv(m)
        sol = inv @ y[ref]
        w, h = sol[:d], sol[d]
        mu = sig * inv[d]
        r = y - x @ w
        gap = np.abs(r) - h
        gap[ref] = 0.0
        q = int(np.argmax(gap > tol) if bland else np.argmax(gap))
        if gap[q] <= tol:
            return w, ref, sig, mu
        if pivots == limit:
            raise SolverFailure(f"Chebyshev fit exceeded its pivot guard ({limit} exchanges)")
        pivots += 1
        sq = -1.0 if r[q] < 0.0 else 1.0
        alpha = sig * (inv.T @ np.append(sq * x[q], 1.0))
        pos = np.flatnonzero(alpha > _PIVOT_TOL * np.abs(alpha).max())
        if pos.size == 0:
            raise SolverFailure("Chebyshev exchange without a leaving point")
        ratios = mu[pos] / alpha[pos]
        leave = pos[int(np.argmin(ratios))]
        bland = bland or ratios.min() <= 0.0
        ref[leave], sig[leave] = q, sq
        order = np.argsort(ref)
        ref, sig = ref[order], sig[order]


def _minimax_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    w = _chebyshev_vertex(x, y)[0]
    return w, float(np.max(np.abs(y - x @ w)))


def solve_minimax(data: RegressionDataset, subset) -> tuple[RegressionModel, float]:
    """Chebyshev fit over the subset: minimize the largest absolute error.

    Returns the model and the attained maximum error: every subset point
    can be an inlier of one model (``|e| <= epsilon``) exactly when that
    error is at most ``epsilon``.
    """
    idx = _subset_array(subset, data.n)
    w, value = _minimax_fit(data.x[idx], data.y[idx])
    return RegressionModel(w), float(value)


def _regression_fits(x: np.ndarray, y: np.ndarray, masks: np.ndarray, p: int) -> np.ndarray:
    """The (B, d) fits that the loss exponent selects, of the sets ``masks`` (B, n) of the rows of x, y.

    Minimax for p = 0 (the set fits within the threshold, every point an
    inlier, exactly when the attained maximum error is at most epsilon),
    one fit per set; least absolute deviations for p = 1, one stacked fit;
    least squares for p = 2, one stacked fit per set size.  Each fit has the
    bits of the one-set fit.
    """
    if p == 1:
        return _lad_fit(x, y, masks)
    w = np.empty((masks.shape[0], x.shape[1]))
    if p == 2:
        for sets, points in _size_stacks(masks):
            w[sets] = _ls_fits(x[points], y[points])[0]
    else:
        for i, mask in enumerate(masks):
            w[i] = _minimax_fit(x[mask], y[mask])[0]
    return w


# ---------------------------------------------------------------------------
# Subspace subproblem


def _subspace_fits(
    v: np.ndarray, masks: np.ndarray, d: int, ds: int, terms: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Best squared-residual ds-dimensional subspaces (ds < d) of the point sets ``masks`` (B, n).

    ``v`` (n, D) holds each point's monomials x_k x_l (k <= l) in the order
    of :func:`.geometry._monomial_pairs`, so a set's sums of them are the
    entries of its scatter sum_S x_i x_i^T.  One product with the masks,
    written into ``terms`` (B, D, n) when given, and one reduce over its
    contiguous last axis sum each set's n terms (zeros off the set) in one
    fixed order, so a set has the same bits in any stack, alone included
    (a matrix product's bits can depend on its shape).  The sums fill the
    lower triangles of a (B, d, d) stack, which one ``np.linalg.eigh`` call
    takes.  Returns the C-contiguous (B, d, ds) bases, the eigenvectors of
    the ds largest eigenvalues, largest first, and the (B, d) eigenvalues,
    ascending: the squared singular values of the points, up to rounding.

    Squaring the points squares their condition number: the eigenvectors
    are exact for the scatter plus an error E of about eps tr(scatter), so
    a fit's residual sum is within about 2 (d - ds) ||E|| of the SVD tail
    sum_(i > ds) sigma_i^2.  The tolerance held on sets stretched x1e3
    along one axis with 1e-3 noise (tests/test_subsolvers.py) is
    |residual sum - tail| <= 1e-3 (tail + eps tr(scatter)); the worst of
    45,000 such fits reached 2.3e-5 of that scale, the SVD 1.6e-8.
    """
    first, second = _monomial_pairs(d)
    count, n = masks.shape
    if terms is None:
        terms = np.empty((count, first.size, n))
    np.multiply(masks[:, None, :], v.T, out=terms)
    scatter = np.zeros((count, d, d))
    scatter[:, second, first] = np.add.reduce(terms, axis=-1)
    lam, vectors = np.linalg.eigh(scatter)
    return np.ascontiguousarray(vectors[:, :, ::-1][:, :, :ds]), lam


def solve_subspace_p2(data: PointDataset, subset) -> SubspaceModel:
    """Best squared-residual subspace through the subset: the top eigenvectors of its scatter.

    Minimizes the sum of squared projection residuals over the subset, with
    the fit the exact subspace search makes of that set, bit for bit
    (:func:`_subspace_fits`).  When the singular values of the points at the
    cut coincide (within 1e-10, their squares from the scatter clamped at 0)
    the minimizer is not unique; the result is still valid and a
    :class:`NonUniqueBasisWarning` is emitted.
    """
    d, ds = data.d, data.subspace_dim
    idx = _subset_array(subset, data.n, ds)
    mask = np.zeros((1, data.n), dtype=bool)
    mask[0, idx] = True
    bases, lam = _subspace_fits(_veronese_rows(data.x), mask, d, ds)
    below, at = np.sqrt(np.maximum(lam[0, d - ds - 1 : d - ds + 1], 0.0))
    if at - below <= 1e-10:
        warnings.warn(
            "repeated singular values at the cut; the fitted subspace is not unique",
            NonUniqueBasisWarning,
            stacklevel=2,
        )
    return SubspaceModel(bases[0])
