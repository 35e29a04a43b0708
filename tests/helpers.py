"""Shared fixtures-in-spirit: canonical datasets and independent reference
minimizers used to cross-check the solvers."""

from __future__ import annotations

from itertools import combinations, permutations, product

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
    inliers = np.abs(e) <= spec.epsilon
    if spec.p == 0:
        return float(data.n - np.count_nonzero(inliers))
    tail = spec.epsilon**spec.p * (data.n - np.count_nonzero(inliers))
    return float(np.sum(np.abs(e[inliers]) ** spec.p) + tail)


def split_form_subspace(data, model, spec) -> float:
    r = sf.subspace_residuals(data, model)
    inliers = r <= spec.epsilon
    if spec.p == 0:
        return float(data.n - np.count_nonzero(inliers))
    tail = spec.epsilon**spec.p * (data.n - np.count_nonzero(inliers))
    return float(np.sum(r[inliers] ** spec.p) + tail)


def assert_p0_counts_agree(data, spec, report) -> None:
    """A p = 0 report lists its model's zero-loss points, 1{|e| > eps} = 0, and counts the rest."""
    if isinstance(report.model, sf.SubspaceModel):
        e = sf.subspace_residuals(data, report.model)
    else:
        e = sf.regression_residuals(data, report.model)
    assert report.inliers.tolist() == np.flatnonzero(~(np.abs(e) > spec.epsilon)).tolist()
    assert report.objective == data.n - len(report.inliers)


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


def integer_regression_instances(count=300, seed=5):
    """Small instances with integer x and y, far from general position, and an epsilon each."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, d = int(rng.integers(6, 10)), int(rng.integers(1, 4))
        eps = float(rng.choice([0.5, 1.0, 2.0]))
        x = rng.integers(-3, 4, size=(n, d)).astype(float)
        y = rng.integers(-4, 5, size=n).astype(float)
        yield sf.RegressionDataset(x, y), eps


def integer_point_sets(count=12, seed=4):
    """Small integer point clouds for line fits, with an epsilon each; the first has points at epsilon."""
    x = np.array([[1, 0, 0], [0, 2, 0], [2, 1, 0], [-1, 3, 0], [1, 1, 1], [2, 0, -1], [0, 1, 3]])
    yield sf.PointDataset(x.astype(float), 2), 1.0
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, d = int(rng.integers(6, 10)), int(rng.integers(2, 4))
        yield sf.PointDataset(rng.integers(-3, 4, size=(n, d)).astype(float), 1), float(rng.choice([1.0, 2.0]))


def _integer_det(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of small integer matrices (..., k, k), exactly (Leibniz)."""
    k = m.shape[-1]
    total = np.zeros(m.shape[:-2], dtype=np.int64)
    for perm in permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = np.ones(m.shape[:-2], dtype=np.int64)
        for row, col in enumerate(perm):
            term = term * m[..., row, col]
        total += -term if inversions % 2 else term
    return total


def closed_count_reference(x, y, eps) -> int:
    """Largest number of points with ``|y_i - w @ x_i| <= eps`` over all w, exactly.

    For integer x and y and an eps with 2 eps an integer; shares no code
    with satfit.  Columns of x that do not raise its rank change no error,
    so they are dropped.  Among the r columns left, some optimal w is a
    vertex of the arrangement of the hyperplanes y_i - w @ x_i = +-eps: r
    independent rows, one sign each.  Each vertex is solved by Cramer's
    rule and every point tested against it in integer arithmetic, scaled by
    2 det so that nothing is rounded.
    """
    xi, y2, e2 = np.asarray(x).astype(np.int64), (2 * np.asarray(y)).astype(np.int64), int(2 * eps)
    if not (np.array_equal(xi, x) and np.array_equal(y2, 2 * np.asarray(y)) and e2 == 2 * eps):
        raise ValueError("x, y and 2 eps must be integers")
    n, d = xi.shape
    cols = []
    for j in range(d):
        rows = np.array(list(combinations(range(n), len(cols) + 1)), dtype=np.intp)
        if np.any(_integer_det(xi[rows][:, :, cols + [j]]) != 0):
            cols.append(j)
    xs, r = xi[:, cols], len(cols)
    rows = np.array(list(combinations(range(n), r)), dtype=np.intp).reshape(-1, r)
    det = _integer_det(xs[rows])
    rows, det = rows[det != 0], det[det != 0]
    best = 0
    for signs in product((-1, 1), repeat=r):
        rhs = y2[rows] - e2 * np.array(signs, dtype=np.int64)
        # w_j = dets[:, j] / (2 det): column j of the seed rows replaced by rhs
        dets = np.zeros((rows.shape[0], r), dtype=np.int64)
        for j in range(r):
            a = xs[rows]
            a[:, :, j] = rhs
            dets[:, j] = _integer_det(a)
        scaled = y2[None, :] * det[:, None] - dets @ xs.T  # 2 det times each error
        best = max(best, int(np.count_nonzero(np.abs(scaled) <= e2 * np.abs(det)[:, None], axis=1).max()))
    return best
