"""Fixed-classification subproblems: least squares, least absolute deviations,
minimax (Chebyshev) regression, and the rank-ds subspace fit.

The two L1-type fits are linear programs solved by a dense two-phase revised
simplex with Bland's rule.  Problem sizes here are tiny (at most a few
hundred rows), so a dense deterministic solver is preferred over a sparse or
interior-point one: identical inputs give bit-identical vertices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import PointDataset, RegressionDataset, RegressionModel, SubspaceModel

__all__ = [
    "SolverFailure",
    "RankDeficientFitWarning",
    "NonUniqueBasisWarning",
    "DenseLP",
    "LpSolution",
    "lp_solve",
    "solve_least_squares",
    "solve_lad",
    "solve_minimax",
    "solve_subspace_p2",
]


class SolverFailure(RuntimeError):
    """The LP solver hit its cycling guard or an impossible state."""


class RankDeficientFitWarning(RuntimeWarning):
    """A least-squares subset was rank deficient; a minimum-norm fit was used."""


class NonUniqueBasisWarning(RuntimeWarning):
    """Singular values are repeated at the cut; the fitted subspace is not unique."""


# ---------------------------------------------------------------------------
# Dense LP


@dataclass(frozen=True)
class DenseLP:
    """min cost @ v  subject to  a_ub @ v <= b_ub, v[j] >= 0 where nonneg[j].

    Variables with ``nonneg[j] == False`` are free.  All data must be finite;
    the programs generated in this package are always feasible and bounded.
    """

    cost: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    nonneg: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.cost, dtype=float).ravel()
        a = np.atleast_2d(np.asarray(self.a_ub, dtype=float))
        b = np.asarray(self.b_ub, dtype=float).ravel()
        nn = np.asarray(self.nonneg, dtype=bool).ravel()
        if a.shape != (b.shape[0], c.shape[0]) or nn.shape != c.shape:
            raise ValueError("inconsistent LP dimensions")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("LP data must be finite")
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "a_ub", a)
        object.__setattr__(self, "b_ub", b)
        object.__setattr__(self, "nonneg", nn)


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective: float
    dual: np.ndarray
    slack: np.ndarray
    iterations: int

    def complementary_slackness(self) -> float:
        """Largest violation of dual_i * slack_i = 0."""
        return float(np.max(np.abs(self.dual * self.slack), initial=0.0))


_PIVOT_TOL = 1e-10


class _Simplex:
    """Revised simplex on the equality form min c@x, A@x = b, x >= 0, b >= 0."""

    def __init__(self, a: np.ndarray, b: np.ndarray, basis: list[int]):
        self.a = a
        self.b = b
        self.basis = list(basis)
        self.binv = np.linalg.inv(a[:, self.basis])
        self.xb = self.binv @ b
        self.iterations = 0

    def pivot(self, row: int, col: int, direction: np.ndarray) -> None:
        piv = direction[row]
        self.binv[row] /= piv
        self.xb[row] /= piv
        factor = direction.copy()
        factor[row] = 0.0
        self.binv -= np.outer(factor, self.binv[row])
        self.xb -= factor * self.xb[row]
        self.basis[row] = col

    def run(self, cost: np.ndarray, allowed: np.ndarray, max_iter: int) -> None:
        m, n = self.a.shape
        opt_tol = 1e-9 * (1.0 + np.max(np.abs(cost)))
        while True:
            if self.iterations > max_iter:
                raise SolverFailure("simplex cycling guard exceeded")
            in_basis = np.zeros(n, dtype=bool)
            in_basis[self.basis] = True
            y = cost[self.basis] @ self.binv
            reduced = cost - y @ self.a
            candidates = np.flatnonzero((reduced < -opt_tol) & allowed & ~in_basis)
            if candidates.size == 0:
                return
            enter = int(candidates[0])  # Bland: smallest eligible index
            direction = self.binv @ self.a[:, enter]
            rows = np.flatnonzero(direction > _PIVOT_TOL)
            if rows.size == 0:
                raise SolverFailure("LP unbounded (violates construction contract)")
            ratios = self.xb[rows] / direction[rows]
            best = np.min(ratios)
            ties = rows[ratios <= best + _PIVOT_TOL * (1.0 + abs(best))]
            leave = int(min(ties, key=lambda r: self.basis[r]))  # Bland tie-break
            self.pivot(leave, enter, direction)
            self.iterations += 1


def lp_solve(lp: DenseLP, max_iterations: int | None = None) -> LpSolution:
    """Solve a dense inequality-form LP to an optimal basic solution.

    Free variables are split internally, slacks appended, and right-hand
    sides normalized to be nonnegative; phase 1 then removes the artificial
    variables before phase 2 optimizes the true cost.
    """
    m, n0 = lp.a_ub.shape
    free_cols = np.flatnonzero(~lp.nonneg)
    a = np.hstack([lp.a_ub, -lp.a_ub[:, free_cols], np.eye(m)])
    cost = np.concatenate([lp.cost, -lp.cost[free_cols], np.zeros(m)])
    b = lp.b_ub.copy()
    row_sign = np.ones(m)
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    row_sign[flip] = -1.0

    n_real = a.shape[1]
    slack_start = n0 + free_cols.size
    row_ids = np.arange(m)
    if max_iterations is None:
        max_iterations = 50 * (m + n_real) + 200

    art_rows = np.flatnonzero(flip)
    if art_rows.size:
        art = np.zeros((m, art_rows.size))
        art[art_rows, np.arange(art_rows.size)] = 1.0
        a_ext = np.hstack([a, art])
        cost1 = np.concatenate([np.zeros(n_real), np.ones(art_rows.size)])
        basis = [slack_start + i for i in range(m)]
        for k, r in enumerate(art_rows):
            basis[r] = n_real + k
        state = _Simplex(a_ext, b, basis)
        state.run(cost1, np.ones(a_ext.shape[1], dtype=bool), max_iterations)
        if cost1[state.basis] @ state.xb > 1e-7 * (1.0 + np.max(np.abs(b))):
            raise SolverFailure("LP infeasible (violates construction contract)")
        drop_rows = _drive_out_artificials(state, n_real)
        if drop_rows:
            # Redundant rows carry no information; drop them and report a
            # zero dual for those constraints.
            keep = [r for r in range(m) if r not in drop_rows]
            a = a[keep]
            b = b[keep]
            row_sign = row_sign[keep]
            row_ids = row_ids[keep]
            basis = [state.basis[r] for r in keep]
            state = _Simplex(a, b, basis)
        else:
            state = _Simplex(a, b, state.basis)
    else:
        state = _Simplex(a, b, list(range(slack_start, slack_start + m)))

    state.run(cost, np.ones(n_real, dtype=bool), max_iterations)

    x_full = np.zeros(n_real)
    x_full[state.basis] = state.xb
    x = x_full[:n0].copy()
    x[free_cols] -= x_full[n0:slack_start]
    y = cost[state.basis] @ state.binv
    dual = np.zeros(m)
    dual[row_ids] = y * row_sign
    slack = lp.b_ub - lp.a_ub @ x
    return LpSolution(x, float(lp.cost @ x), dual, slack, state.iterations)


def _drive_out_artificials(state: _Simplex, n_real: int) -> set[int]:
    """Pivot zero-level artificials out of the basis; return redundant rows."""
    drop: set[int] = set()
    in_basis = set(state.basis)
    for row in range(len(state.basis)):
        if state.basis[row] < n_real:
            continue
        coeffs = state.binv[row] @ state.a[:, :n_real]
        pivot_cols = np.flatnonzero(np.abs(coeffs) > 1e-9)
        pivot_cols = [c for c in pivot_cols if c not in in_basis]
        if not pivot_cols:
            drop.add(row)
            continue
        col = int(pivot_cols[0])
        direction = state.binv @ state.a[:, col]
        old = state.basis[row]
        state.pivot(row, col, direction)
        in_basis.discard(old)
        in_basis.add(col)
    return drop


# ---------------------------------------------------------------------------
# Regression subproblems


def _subset_array(subset, n: int) -> np.ndarray:
    idx = np.asarray(list(subset), dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError("subset indices out of range")
    return idx


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
            if diag.min() > 1e-8 * diag.max():
                return np.linalg.solve(gram, x.T @ y), d
    w, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    return w, int(rank)


def solve_least_squares(data: RegressionDataset, subset) -> RegressionModel:
    """Least-squares fit over the subset.

    A rank-deficient design matrix does not fail: the minimum-norm solution
    is returned and a :class:`RankDeficientFitWarning` is emitted, since
    degenerate inlier subsets can legitimately arise during sampling.
    """
    idx = _subset_array(subset, data.n)
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    w, rank = _ls_fit(data.x[idx], data.y[idx])
    if rank < data.d:
        warnings.warn(
            f"least-squares subset of size {idx.size} has rank {rank} < d={data.d}; "
            "returning the minimum-norm solution",
            RankDeficientFitWarning,
            stacklevel=2,
        )
    return RegressionModel(w)


def _lad_lp(x: np.ndarray, y: np.ndarray) -> DenseLP:
    # Variables [w (free), t (one slack per point, nonnegative)];
    # |y_i - w @ x_i| <= t_i as two inequality rows per point.
    k, d = x.shape
    a = np.zeros((2 * k, d + k))
    a[:k, :d] = x
    a[k:, :d] = -x
    a[:k, d:] = -np.eye(k)
    a[k:, d:] = -np.eye(k)
    b = np.concatenate([y, -y])
    cost = np.concatenate([np.zeros(d), np.ones(k)])
    nonneg = np.concatenate([np.zeros(d, dtype=bool), np.ones(k, dtype=bool)])
    return DenseLP(cost, a, b, nonneg)


def _lad_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    sol = lp_solve(_lad_lp(x, y))
    return sol.x[: x.shape[1]]


def solve_lad(data: RegressionDataset, subset) -> RegressionModel:
    """Least-absolute-deviations fit over the subset (always feasible)."""
    idx = _subset_array(subset, data.n)
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    return RegressionModel(_lad_fit(data.x[idx], data.y[idx]))


def _minimax_lp(x: np.ndarray, y: np.ndarray) -> DenseLP:
    k, d = x.shape
    a = np.zeros((2 * k, d + 1))
    a[:k, :d] = x
    a[k:, :d] = -x
    a[:, d] = -1.0
    b = np.concatenate([y, -y])
    cost = np.zeros(d + 1)
    cost[d] = 1.0
    nonneg = np.zeros(d + 1, dtype=bool)
    nonneg[d] = True
    return DenseLP(cost, a, b, nonneg)


def _minimax_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    sol = lp_solve(_minimax_lp(x, y))
    return sol.x[: x.shape[1]], sol.objective


def solve_minimax(data: RegressionDataset, subset) -> tuple[RegressionModel, float]:
    """Chebyshev fit over the subset: minimize the largest absolute error.

    Returns the model and the attained maximum error, which certifies
    whether every subset point can be approximated strictly within a given
    threshold.
    """
    idx = _subset_array(subset, data.n)
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    w, value = _minimax_fit(data.x[idx], data.y[idx])
    return RegressionModel(w), float(value)


def _regression_fit(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Coefficients of the fixed-classification fit that the loss exponent selects.

    Minimax for p = 0 (whether every point fits strictly inside the
    threshold is decided by the attained maximum error), least absolute
    deviations for p = 1, least squares for p = 2.
    """
    if p == 0:
        return _minimax_fit(x, y)[0]
    if p == 1:
        return _lad_fit(x, y)
    return _ls_fit(x, y)[0]


# ---------------------------------------------------------------------------
# Subspace subproblem


def _svd_basis(points: np.ndarray, ds: int) -> tuple[np.ndarray, float]:
    """Top-ds left singular vectors of the matrix with the points as columns.

    Returns the basis and the gap ``sigma_ds - sigma_(ds+1)`` (infinity when
    there is no singular value beyond the cut).
    """
    u, s, _ = np.linalg.svd(points.T, full_matrices=False)
    gap = float(s[ds - 1] - s[ds]) if s.shape[0] > ds else np.inf
    return u[:, :ds], gap


def solve_subspace_p2(
    data: PointDataset, subset, subspace_dim: int | None = None
) -> SubspaceModel:
    """Best squared-residual subspace through the subset, via the SVD.

    Minimizes the sum of squared projection residuals over the subset.  When
    the singular values at the cut coincide (within 1e-10) the minimizer is
    not unique; the result is still valid and a
    :class:`NonUniqueBasisWarning` is emitted.
    """
    ds = data.subspace_dim if subspace_dim is None else int(subspace_dim)
    idx = _subset_array(subset, data.n)
    if idx.size < ds:
        raise ValueError(f"need at least {ds} points, got {idx.size}")
    basis, gap = _svd_basis(data.x[idx], ds)
    if gap <= 1e-10:
        warnings.warn(
            "repeated singular values at the cut; the fitted subspace is not unique",
            NonUniqueBasisWarning,
            stacklevel=2,
        )
    return SubspaceModel(basis)
