"""The general dense LP that once solved the LAD and Chebyshev fits, kept as a test reference.

``lp_solve`` is a dense two-phase revised simplex with Bland's rule on the
inequality form min cost @ v, a_ub @ v <= b_ub; ``_lad_lp`` and
``_minimax_lp`` state the two regression fits in that form.  The library's
vertex solvers share no code with it, so the tests compare their objectives
against it.

It is a reference only for well-conditioned designs.  Its pivots take no
care of round-off, so on nearly dependent columns (condition number around
1e7, e.g. one column equal to another plus 1e-7 noise) it can stop at a
wrong vertex, report an objective below the true optimum or raise
``SolverFailure`` / ``LinAlgError``; ``TestLpSolve`` pins one such case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from satfit import SolverFailure


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


def _minimax_lp(x: np.ndarray, y: np.ndarray) -> DenseLP:
    # Variables [w (free), t (nonnegative)]; |y_i - w @ x_i| <= t.
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
