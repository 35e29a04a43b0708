"""Brute-force certification of global optima on small instances.

The oracle never touches the lifted geometry.  For p = 1 regression the
objective is piecewise linear in w, so it is evaluated at every vertex of
the arrangement of the hyperplanes r_i(w) in {0, +eps, -eps}.  For p = 0
and p = 2, regression and subspace alike, one loop (:func:`_certify`)
enumerates candidate inlier subsets, largest first, fits the
fixed-classification subproblem on each, scores the fitted model on the
full dataset and keeps the first strictly smaller objective.  Only the
p = 0 regression fit is a solver of the search
(:func:`.subsolvers._minimax_fit`); p = 2 regression subsets are fitted by
``np.linalg.lstsq`` and subspace subsets by the top eigenvectors of their
scatter matrix from ``np.linalg.eigh``.

Every p scores a fit with :func:`.core.loss`.  For p = 0 a subset only
counts when its fit places every subset point inside the threshold, with a
guard band of ``tau`` around the boundary: subsets whose largest subset
error lands within ``tau`` of the threshold are counted separately and also
folded into a second, boundary-inclusive objective, so floating-point ties
are surfaced instead of silently resolved.
"""

from __future__ import annotations

import math
import warnings
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
from .geometry import ON_HYPERPLANE_TOL
from .subsolvers import _minimax_fit

__all__ = ["OracleResult", "oracle_regression", "oracle_subspace"]

MAX_REGRESSION_POINTS = 20
MAX_SUBSPACE_POINTS = 16


@dataclass(frozen=True)
class OracleResult:
    """Certified optimum: objective, inlier set, and a model attaining it.

    ``objective_boundary_inclusive`` additionally admits subsets whose
    feasibility is decided within the floating-point guard band (p = 0
    only); it equals ``objective`` except on boundary-degenerate inputs.
    """

    objective: float
    inliers: np.ndarray
    model: RegressionModel | SubspaceModel
    subsets_evaluated: int
    boundary_subsets: int = 0
    objective_boundary_inclusive: float | None = None


def _certify(n: int, smallest: int, fit, spec: LossSpec, dominated: bool):
    """Brute-force minimum over the inlier subsets of size >= ``smallest``.

    Walks subset sizes from n down, lexicographically within a size.
    ``fit(idx)`` returns the fitted parameters and the n absolute residuals
    of their model, which :func:`.core.loss` scores; the first strictly
    smaller objective wins.  For p = 0 a subset counts only when its
    largest subset residual is below eps - tau, and one within tau of eps
    is a boundary subset (see the module docstring).  ``dominated`` stops
    at the first size k with n - k >= the incumbent: a smaller count there
    needs a model that covers more than k points, and that larger inlier
    set was fitted at its own size.  This holds for the minimax fit only;
    the L2 fit of a larger feasible set can fail where a subset's succeeds.
    Returns the objective, parameters, subsets evaluated, boundary subsets
    and boundary-inclusive objective (``None`` unless p = 0).
    """
    eps = spec.epsilon
    tau = ON_HYPERPLANE_TOL * max(1.0, eps)
    best: tuple[float, np.ndarray] | None = None
    best_loose: float | None = None
    boundary = evaluated = 0
    for k in range(n, smallest - 1, -1):
        if dominated and best is not None and n - k >= best[0]:
            break
        for subset in combinations(range(n), k):
            idx = np.asarray(subset, dtype=np.intp)
            params, residuals = fit(idx)
            evaluated += 1
            objective = float(np.sum(loss(spec, residuals)))
            if spec.p == 0:
                worst = float(residuals[idx].max())
                if worst >= eps + tau:
                    continue
                best_loose = objective if best_loose is None else min(best_loose, objective)
                if worst >= eps - tau:
                    boundary += 1
                    continue
            if best is None or objective < best[0]:
                best = (objective, params)
    if best is None:
        raise RuntimeError("no feasible inlier subset was found")
    if boundary:
        warnings.warn(
            f"{boundary} candidate subsets sit within tolerance of the threshold; "
            "their feasibility is floating-point ambiguous",
            RuntimeWarning,
            stacklevel=3,
        )
    return best[0], best[1], evaluated, boundary, best_loose


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

    objective, w, evaluated, boundary, loose = _certify(n, d, fit, spec, dominated=spec.p == 0)
    model = RegressionModel(w)
    return OracleResult(
        objective=objective,
        inliers=regression_inliers(data, model, spec),
        model=model,
        subsets_evaluated=evaluated,
        boundary_subsets=boundary,
        objective_boundary_inclusive=loose,
    )


def _oracle_regression_p1(data: RegressionDataset, spec: LossSpec) -> OracleResult:
    """Minimum of sum min(|r_i|, eps) over the vertices of its arrangement.

    The objective is linear on each cell of the arrangement of the
    hyperplanes r_i(w) = 0, +eps, -eps and bounded below, so its minimum sits
    at a vertex: d of those hyperplanes, from d independent points, meeting
    in one point.  A rank-deficient x leaves the objective constant along its
    null space; only the leftmost columns that raise the rank are kept, and
    the other coefficients are 0.
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
    dimension and fits each with the top eigenvectors of its scatter matrix
    ``x_S.T @ x_S``, the squared-residual optimum.  For
    p = 0 a subset counts only when the fitted basis keeps every subset
    point inside the threshold, clear of the guard band.  Supports p in
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
        basis = np.linalg.eigh(xs.T @ xs)[1][:, ::-1][:, :ds]
        return basis, subspace_residuals(data, SubspaceModel(basis))

    objective, basis, evaluated, boundary, loose = _certify(n, ds, fit, spec, dominated=False)
    model = SubspaceModel(basis)
    return OracleResult(
        objective=objective,
        inliers=subspace_inliers(data, model, spec),
        model=model,
        subsets_evaluated=evaluated,
        boundary_subsets=boundary,
        objective_boundary_inclusive=loose,
    )
