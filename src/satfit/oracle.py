"""Brute-force certification of global optima on small instances.

The oracle never touches the lifted geometry.  For p = 1 regression the
objective is piecewise linear in w, so it is evaluated at every vertex of
the arrangement of the hyperplanes r_i(w) in {0, +eps, -eps}, solved with
``np.linalg.solve``: a superset of the fits through d points (offset 0)
that the exact p = 1 search scans through its own normal routine.  For p = 0
and p = 2, regression and subspace alike, one loop (:func:`_certify`)
enumerates candidate inlier subsets, largest first, fits the
fixed-classification subproblem on each, scores the fitted model on the
full dataset with :func:`.core.loss` and keeps the first strictly smaller
objective, as the exact search scores its branches.  Only the p = 0
regression fit is a solver of the search
(:func:`.subsolvers._minimax_fit`); p = 2 regression subsets are fitted by
``np.linalg.lstsq`` and subspace subsets by the top left singular vectors
of their points from ``np.linalg.svd``, a method that shares nothing with
the search's scatter fit (:func:`.subsolvers._subspace_fits`).

A model's loss is a value it attains, so the certified objective is never
below the optimum; in exact arithmetic the fit of an optimal inlier set
attains it.  A point counts as an inlier by the one closed rule of
:mod:`.core`, |e| <= eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .core import (
    LossSpec,
    PointDataset,
    RegressionDataset,
    RegressionModel,
    SubspaceModel,
    loss,
    regression_inliers,
    subspace_inliers,
    subspace_residuals,
)
from .subsolvers import _minimax_fit

__all__ = ["OracleResult", "oracle_regression", "oracle_subspace"]

MAX_REGRESSION_POINTS = 20
MAX_SUBSPACE_POINTS = 16


@dataclass(frozen=True)
class OracleResult:
    """Certified optimum: objective, inlier set, and a model attaining it."""

    objective: float
    inliers: np.ndarray
    model: RegressionModel | SubspaceModel
    subsets_evaluated: int


def _certify(n: int, smallest: int, fit, spec: LossSpec, dominated: bool):
    """Brute-force minimum over the inlier subsets of size >= ``smallest``.

    Walks subset sizes from n down, lexicographically within a size.
    ``fit(idx)`` returns the fitted parameters and the n absolute residuals
    of their model, which :func:`.core.loss` scores; the first strictly
    smaller objective wins.  ``dominated`` stops at the first size k with
    n - k >= the incumbent: a model with more than k inliers has an inlier
    set T that was fitted at its own size |T| > k, and in exact arithmetic
    the minimax fit of T keeps T within eps, so it scores at most n - |T|.
    This holds for the minimax fit only; the L2 fit of a larger feasible set
    can miss the threshold where a subset's meets it.  Returns the
    objective, the parameters and the number of subsets evaluated.
    """
    best: tuple[float, np.ndarray] | None = None
    evaluated = 0
    for k in range(n, smallest - 1, -1):
        if dominated and best is not None and n - k >= best[0]:
            break
        for subset in combinations(range(n), k):
            params, residuals = fit(np.asarray(subset, dtype=np.intp))
            evaluated += 1
            objective = float(np.sum(loss(spec, residuals)))
            if best is None or objective < best[0]:
                best = (objective, params)
    return best[0], best[1], evaluated


def oracle_regression(data: RegressionDataset, spec: LossSpec) -> OracleResult:
    """Exhaustively certified minimum of the saturated regression loss.

    For p = 1, the minimum over the vertices of the arrangement
    r_i(w) in {0, +eps, -eps}.  For p = 0 and p = 2, enumerates every
    candidate inlier subset of size >= d, fits the subproblem matching the
    loss (minimax for p = 0, least squares for p = 2), scores the fitted
    model on the full dataset, and keeps the minimum.  Refuses datasets with
    more than 20 points.
    """
    n, d = data.n, data.d
    if n > MAX_REGRESSION_POINTS:
        raise ValueError(
            f"oracle enumeration is limited to {MAX_REGRESSION_POINTS} points, got {n}"
        )
    if spec.p == 1:
        return _oracle_regression_p1(data, spec)

    def fit(idx):
        if spec.p == 0:
            w = _minimax_fit(data.x[idx], data.y[idx])[0]
        else:
            w = np.linalg.lstsq(data.x[idx], data.y[idx], rcond=None)[0]
        return w, np.abs(data.y - data.x @ w)

    objective, w, evaluated = _certify(n, d, fit, spec, dominated=spec.p == 0)
    model = RegressionModel(w)
    return OracleResult(
        objective=objective,
        inliers=regression_inliers(data, model, spec),
        model=model,
        subsets_evaluated=evaluated,
    )


def _oracle_regression_p1(data: RegressionDataset, spec: LossSpec) -> OracleResult:
    """Minimum of sum min(|r_i|, eps) over the vertices of its arrangement.

    The objective is linear on each cell of the arrangement of the
    hyperplanes r_i(w) = 0, +eps, -eps and bounded below, so its minimum sits
    at a vertex: d of those hyperplanes, from d independent points, meeting
    in one point.  The 3^d offsets per subset are a superset of the exact
    search's vertices, its offset 0 alone (the objective is concave on each
    cell of r_i(w) = 0 already), so the oracle certifies the search without
    relying on that argument.  A rank-deficient x leaves the objective
    constant along its null space; only the leftmost columns that raise the
    rank are kept, and the other coefficients are 0.
    """
    x, y, eps = data.x, data.y, spec.epsilon
    ranks = [np.linalg.matrix_rank(x[:, :j]) for j in range(data.d + 1)]
    cols = [j for j in range(data.d) if ranks[j + 1] > ranks[j]]
    xs = x[:, cols]
    r = len(cols)
    subsets = np.array(list(combinations(range(data.n), r)), dtype=np.intp)
    subsets = subsets.reshape(math.comb(data.n, r), r)
    a = xs[subsets]
    # Independent rows, scale-free: |det| against Hadamard's bound.
    keep = np.abs(np.linalg.det(a)) > 1e-10 * np.prod(np.linalg.norm(a, axis=2), axis=1)
    a, targets = a[keep], y[subsets[keep]]
    best = (np.inf, None)
    evaluated = 0
    for offsets in product((0.0, eps, -eps), repeat=r):
        w = np.linalg.solve(a, (targets - np.array(offsets))[..., None])[..., 0]
        values = np.sum(loss(spec, y - w @ xs.T), axis=1)
        evaluated += values.size
        i = int(np.argmin(values))
        if values[i] < best[0]:
            best = (float(values[i]), w[i])
    w_best = np.zeros(data.d)
    w_best[cols] = best[1]
    model = RegressionModel(w_best)
    return OracleResult(
        objective=best[0],
        inliers=regression_inliers(data, model, spec),
        model=model,
        subsets_evaluated=evaluated,
    )


def oracle_subspace(data: PointDataset, spec: LossSpec) -> OracleResult:
    """Exhaustively certified minimum of the saturated subspace loss.

    Enumerates every candidate inlier subset of size >= the subspace
    dimension and fits each with the top left singular vectors of
    ``x_S.T``, the squared-residual optimum, and scores every basis
    with the loss on all n points; for p = 0 that L2 fit can leave a point
    of a feasible set outside eps, as the search's does.  Supports p in
    {0, 2}; refuses datasets with more than 16 points.
    """
    n, ds = data.n, data.subspace_dim
    if n > MAX_SUBSPACE_POINTS:
        raise ValueError(
            f"oracle enumeration is limited to {MAX_SUBSPACE_POINTS} points, got {n}"
        )
    if spec.p not in (0, 2):
        raise ValueError("subspace oracle supports p in {0, 2} only")

    def fit(idx):
        xs = data.x[idx]
        basis = np.linalg.svd(xs.T, full_matrices=False)[0][:, :ds]
        return basis, subspace_residuals(data, SubspaceModel(basis))

    objective, basis, evaluated = _certify(n, ds, fit, spec, dominated=False)
    model = SubspaceModel(basis)
    return OracleResult(
        objective=objective,
        inliers=subspace_inliers(data, model, spec),
        model=model,
        subsets_evaluated=evaluated,
    )
