"""Shared fixtures-in-spirit: canonical datasets and independent reference
minimizers used to cross-check the solvers."""

from __future__ import annotations

import numpy as np

import satfit as sf


def exact_fit_dataset() -> sf.RegressionDataset:
    """Four points on y = 2x and one gross outlier."""
    x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    y = np.array([2.0, 4.0, 6.0, 8.0, 100.0])
    return sf.RegressionDataset(x, y)


def axis_dataset() -> sf.PointDataset:
    """Six points on the x-axis (distinct magnitudes) and two far off-axis."""
    x = np.array(
        [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0], [5.0, 0.0], [6.0, 0.0],
         [0.0, 5.0], [5.0, -5.0]]
    )
    return sf.PointDataset(x, 1)


def random_orthonormal(rng: np.random.Generator, d: int, ds: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, ds)))
    return q * np.sign(np.diag(r))


def numpy_draws(seed: int, count: int, pool: int, k: int) -> np.ndarray:
    """Row i: k sorted distinct indices below ``pool`` from the i-th Philox child of ``seed``."""
    children = np.random.SeedSequence(seed).spawn(count)
    rngs = [np.random.Generator(np.random.Philox(c)) for c in children]
    draws = [np.sort(rng.choice(pool, k, replace=False)) for rng in rngs]
    return np.array(draws, dtype=np.intp).reshape(count, k)


def split_form_regression(data, model, spec) -> float:
    """Objective recomputed from its inlier/outlier decomposition."""
    e = data.y - data.x @ model.w
    inliers = np.abs(e) < spec.epsilon
    if spec.p == 0:
        return float(data.n - np.count_nonzero(inliers))
    tail = spec.epsilon**spec.p * (data.n - np.count_nonzero(inliers))
    return float(np.sum(np.abs(e[inliers]) ** spec.p) + tail)


def split_form_subspace(data, model, spec) -> float:
    r = sf.subspace_residuals(data, model)
    inliers = r < spec.epsilon
    if spec.p == 0:
        return float(data.n - np.count_nonzero(inliers))
    tail = spec.epsilon**spec.p * (data.n - np.count_nonzero(inliers))
    return float(np.sum(r[inliers] ** spec.p) + tail)


def grid_minimize(objective, center, half_width, pts=41, min_width=1e-7, max_rounds=400):
    """Dense grid search with adaptive zooming, for convex objectives.

    ``objective`` maps an (M, d) array of candidate coefficient vectors to
    (M,) values.  Each round evaluates a full grid over the current box and
    recenters on the best point seen so far.  The box shrinks gently while
    the round's argmin is interior and grows again when it lands on a face,
    which lets the search crawl along the long flat valleys of piecewise
    linear objectives instead of collapsing prematurely.
    """
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    best_point = center
    best_value = float(objective(center[None, :])[0])
    for _ in range(max_rounds):
        axes = [np.linspace(c - half_width, c + half_width, pts) for c in center]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        values = objective(grid)
        flat = int(np.argmin(values))
        multi = np.unravel_index(flat, (pts,) * d)
        if values[flat] < best_value:
            best_value = float(values[flat])
            best_point = grid[flat]
        center = grid[flat]
        if all(0 < i < pts - 1 for i in multi):
            half_width *= 0.5
        else:
            half_width *= 2.0
        if half_width < min_width:
            break
    return best_point, best_value


def lad_objective(x, y):
    def f(ws):
        return np.abs(y[None, :] - ws @ x.T).sum(axis=1)

    return f


def minimax_objective(x, y):
    def f(ws):
        return np.abs(y[None, :] - ws @ x.T).max(axis=1)

    return f


def lad_reference(x, y) -> float:
    """Exact least-absolute-deviations optimum by vertex enumeration.

    Some optimal fit interpolates d of the points exactly, so scanning all
    d-point interpolations and evaluating the true objective at each is an
    exhaustive search over the candidate optima.
    """
    from itertools import combinations

    n, d = x.shape
    f = lad_objective(x, y)
    best = np.inf
    for subset in combinations(range(n), d):
        idx = list(subset)
        try:
            w = np.linalg.solve(x[idx], y[idx])
        except np.linalg.LinAlgError:
            continue
        best = min(best, float(f(w[None, :])[0]))
    return best


def minimax_reference(x, y) -> float:
    """Exact Chebyshev-fit optimum by vertex enumeration.

    Some optimal fit attains its maximum error with alternating signs on
    d + 1 of the points; each candidate is the solution of a small linear
    system in (w, t).
    """
    from itertools import combinations, product

    n, d = x.shape
    f = minimax_objective(x, y)
    best = float(f(np.zeros((1, d)))[0])
    for subset in combinations(range(n), d + 1):
        idx = list(subset)
        for signs in product((-1.0, 1.0), repeat=d):
            s = np.concatenate([[1.0], signs])
            a = np.column_stack([x[idx], s])
            try:
                wt = np.linalg.solve(a, y[idx])
            except np.linalg.LinAlgError:
                continue
            best = min(best, float(f(wt[None, :d])[0]))
    return best


def line_dataset(n: int = 22) -> sf.RegressionDataset:
    """n noiseless points on y = 1 + 2t, with an intercept column."""
    t = np.linspace(-2.0, 2.0, n)
    return sf.RegressionDataset(np.column_stack([np.ones(n), t]), 1.0 + 2.0 * t)
