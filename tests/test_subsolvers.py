import numpy as np
import pytest

import satfit as sf
from satfit.core import _projection_residuals
from satfit.subsolvers import (
    NonUniqueBasisWarning,
    RankDeficientFitWarning,
    _chebyshev_vertex,
    _lad_vertices,
    _ls_fit,
    _ls_fits,
    _subspace_fits,
)
from satfit.exact import _SubspaceSearch
from satfit.geometry import _veronese_rows
from lp_reference import DenseLP, _lad_lp, _minimax_lp, lp_solve
from helpers import (
    exact_fit_dataset,
    grid_minimize,
    lad_objective,
    lad_reference,
    minimax_objective,
    minimax_reference,
    random_orthonormal,
)


def _lad_vertex(x, y, max_pivots=None):
    """The stacked LAD solver on the one set of all rows: (fit, basis, certificate)."""
    w, basis, lam = _lad_vertices(x, y, np.ones((1, y.size), dtype=bool), max_pivots)
    return w[0], basis[0][basis[0] >= 0], lam[0]


def two_point_vertical():
    return sf.RegressionDataset(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))


class TestLeastSquares:
    def test_mean_of_two(self):
        model = sf.solve_least_squares(two_point_vertical(), [0, 1])
        assert model.w[0] == pytest.approx(1.0, abs=1e-12)

    def test_exact_fit(self):
        model = sf.solve_least_squares(exact_fit_dataset(), [0, 1, 2, 3])
        assert model.w[0] == pytest.approx(2.0, abs=1e-12)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(4, 15))
            d = int(rng.integers(1, 4))
            data = sf.RegressionDataset(rng.normal(size=(n, d)), rng.normal(size=n))
            model = sf.solve_least_squares(data, range(n))
            grad = data.x.T @ (data.x @ model.w - data.y)
            assert np.linalg.norm(grad) <= 1e-8 * max(1.0, np.linalg.norm(data.x.T @ data.y))

    def test_exactly_dependent_columns_fall_back_to_lstsq(self):
        # Here the Cholesky factor of the Gram matrix passes the rank test
        # (smallest pivot 8e-8 of the largest), but the Gram matrix is
        # exactly singular for np.linalg.solve.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 2))
        x = np.column_stack([x[:, 0], 2 * x[:, 0], x[:, 1]])
        data = sf.RegressionDataset(x, np.ones(6))
        with pytest.warns(RankDeficientFitWarning):
            model = sf.solve_least_squares(data, range(6))
        assert model.w[1] == pytest.approx(2 * model.w[0], rel=1e-9)  # minimum norm

    def test_stacked_fits_equal_the_one_set_fits(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(40, 6, 3))
        ys = rng.normal(size=(40, 6))
        scaled, zero = xs[0].copy(), xs[1].copy()
        scaled[:, 2] *= 1e-9  # passes the Cholesky, fails the rank rule
        zero[:, 2] = 0.0  # the stacked Cholesky raises
        dependent = np.column_stack([xs[2, :, 0], 2 * xs[2, :, 0], xs[2, :, 1]])  # the stacked solve raises
        for odd in (scaled, zero, dependent, xs[3]):
            stack = np.concatenate([xs[4:20], odd[None], xs[20:]])
            ws, ranks = _ls_fits(stack, ys[: len(stack)])
            for x, y, w, rank in zip(stack, ys, ws, ranks):
                one_w, one_rank = _ls_fit(x, y)
                assert w.tobytes() == one_w.tobytes()
                assert rank == one_rank
            assert ranks.tolist().count(2) == (odd is zero) + (odd is dependent)

    def test_rank_deficient_is_flagged_minimum_norm(self):
        data = sf.RegressionDataset(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), np.array([1.0, 2.0, 3.0]))
        with pytest.warns(RankDeficientFitWarning):
            model = sf.solve_least_squares(data, [0, 1, 2])
        assert model.w == pytest.approx([1.0, 0.0], abs=1e-10)  # minimum-norm solution


class TestLad:
    def test_median_example(self):
        data = sf.RegressionDataset(np.array([[1.0], [1.0], [1.0]]), np.array([0.0, 1.0, 10.0]))
        model = sf.solve_lad(data, [0, 1, 2])
        assert model.w[0] == pytest.approx(1.0, abs=1e-9)
        obj = np.abs(data.y - data.x @ model.w).sum()
        assert obj == pytest.approx(10.0, abs=1e-9)

    def test_exact_fit_objective_zero(self):
        data = exact_fit_dataset()
        model = sf.solve_lad(data, [0, 1, 2, 3])
        assert np.abs(data.y[:4] - data.x[:4] @ model.w).sum() == pytest.approx(0.0, abs=1e-9)

    def test_matches_independent_reference(self):
        # Exact candidate enumeration (every optimum interpolates d points);
        # the zooming grid is kept as a coarse second layer.
        rng = np.random.default_rng(7)
        for _ in range(10):
            data = sf.RegressionDataset(rng.normal(size=(8, 2)), rng.normal(size=8))
            model = sf.solve_lad(data, range(8))
            obj = np.abs(data.y - data.x @ model.w).sum()
            assert obj == pytest.approx(lad_reference(data.x, data.y), abs=1e-4)
        _, grid_obj = grid_minimize(lad_objective(data.x, data.y), np.zeros(2), 6.0)
        assert obj == pytest.approx(grid_obj, abs=1e-2)

    def test_no_random_perturbation_improves(self):
        rng = np.random.default_rng(8)
        data = sf.RegressionDataset(rng.normal(size=(10, 2)), rng.normal(size=10))
        model = sf.solve_lad(data, range(10))
        base = np.abs(data.y - data.x @ model.w).sum()
        deltas = rng.normal(size=(10_000, 2))
        deltas *= (rng.uniform(0, 0.1, 10_000) / np.linalg.norm(deltas, axis=1))[:, None]
        perturbed = np.abs(data.y[None, :] - (model.w + deltas) @ data.x.T).sum(axis=1)
        assert np.all(perturbed >= base - 1e-9)


class TestMinimax:
    def test_two_point_example(self):
        model, value = sf.solve_minimax(two_point_vertical(), [0, 1])
        assert model.w[0] == pytest.approx(1.0, abs=1e-9)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_exact_fit_has_zero_error(self):
        _, value = sf.solve_minimax(exact_fit_dataset(), [0, 1, 2, 3])
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            data = sf.RegressionDataset(rng.normal(size=(8, 2)), rng.normal(size=8))
            _, value = sf.solve_minimax(data, range(8))
            assert value == pytest.approx(minimax_reference(data.x, data.y), abs=1e-4)
        _, grid_obj = grid_minimize(minimax_objective(data.x, data.y), np.zeros(2), 6.0)
        assert value == pytest.approx(grid_obj, abs=1e-2)

    def test_no_random_perturbation_improves(self):
        rng = np.random.default_rng(10)
        data = sf.RegressionDataset(rng.normal(size=(9, 2)), rng.normal(size=9))
        model, value = sf.solve_minimax(data, range(9))
        deltas = rng.normal(size=(10_000, 2))
        deltas *= (rng.uniform(0, 0.1, 10_000) / np.linalg.norm(deltas, axis=1))[:, None]
        perturbed = np.abs(data.y[None, :] - (model.w + deltas) @ data.x.T).max(axis=1)
        assert np.all(perturbed >= value - 1e-9)


def awkward_instance(rng, kind):
    """A random (x, y) with k in 1..40 and d in 1..4, of one of seven kinds.

    0 generic; 1 k <= d; 2 duplicated rows; 3 a zero column; 4 a third of
    the rows exactly on one model (integer data, so many residuals are
    exactly zero); 5 integer data with many ties; 6 a third of the rows
    collinear, multiples of one row.
    """
    d = int(rng.integers(1, 5))
    k = int(rng.integers(1, d + 1)) if kind == 1 else int(rng.integers(d + 1, 41))
    x = rng.normal(size=(k, d))
    y = 3.0 * rng.normal(size=k)
    if kind == 2:
        copies = rng.integers(0, k, size=k // 3)
        x[rng.integers(0, k, size=copies.size)] = x[copies]
        x, y = np.vstack([x, x[copies]]), np.concatenate([y, y[copies]])
    elif kind == 3:
        x[:, int(rng.integers(0, d))] = 0.0
    elif kind == 4:
        x = np.round(3.0 * x)
        on = rng.permutation(k)[: max(1, k // 3)]
        y[on] = x[on] @ rng.integers(-2, 3, size=d)
    elif kind == 5:
        x, y = np.round(x), np.round(y)
    elif kind == 6:
        on = rng.permutation(k)[: max(2, k // 3)]
        x[on] = np.outer(rng.integers(-3, 4, size=on.size), x[on[0]])
    return x, y


def vertex_instances(count=700):
    rng = np.random.default_rng(20)
    return [awkward_instance(rng, i % 7) for i in range(count)]


def padded(x, y):
    """A dataset holding (x, y) as its first rows, valid even when k < d."""
    d = x.shape[1]
    return sf.RegressionDataset(np.vstack([x, np.eye(d)]), np.concatenate([y, np.zeros(d)]))


def small_full_rank(x, y):
    """Whether the enumerating references of helpers.py apply and are cheap."""
    k, d = x.shape
    return d < k <= 12 and np.linalg.matrix_rank(x) == d


class TestVertexSolvers:
    def test_lad_matches_the_lp_and_the_enumeration(self):
        for x, y in vertex_instances():
            k = x.shape[0]
            got = float(np.abs(y - x @ sf.solve_lad(padded(x, y), range(k)).w).sum())
            lp = lp_solve(_lad_lp(x, y)).objective
            assert got == pytest.approx(lp, rel=1e-9, abs=1e-12)
            if small_full_rank(x, y):
                assert got == pytest.approx(lad_reference(x, y), rel=1e-9, abs=1e-12)

    def test_minimax_matches_the_lp_and_the_enumeration(self):
        for x, y in vertex_instances():
            k = x.shape[0]
            _, got = sf.solve_minimax(padded(x, y), range(k))
            lp = lp_solve(_minimax_lp(x, y)).objective
            assert got == pytest.approx(lp, rel=1e-9, abs=1e-12)
            if small_full_rank(x, y):
                assert got == pytest.approx(minimax_reference(x, y), rel=1e-9, abs=1e-12)

    def test_lad_certificate(self):
        # |lam| <= 1, x.T lam = 0 and lam_i = sign(r_i) off the basis make
        # lam @ y a lower bound on every fit's sum |r|, attained by w.
        for x, y in vertex_instances():
            w, basis, lam = _lad_vertex(x, y)
            r = y - x @ w
            scale = 1.0 + np.abs(y).max()
            assert np.all(np.abs(lam) <= 1.0 + 1e-9)
            assert np.abs(x.T @ lam).max(initial=0.0) <= 1e-9 * scale
            off = np.ones(x.shape[0], dtype=bool)
            off[basis] = False
            nonzero = off & (np.abs(r) > 1e-9 * scale)
            assert np.array_equal(lam[nonzero], np.sign(r[nonzero]))
            assert np.abs(r[basis]).max(initial=0.0) <= 1e-9 * scale
            assert lam @ y == pytest.approx(np.abs(r).sum(), rel=1e-9, abs=1e-12)

    def test_chebyshev_certificate(self):
        # mu >= 0, sum mu = 1 and sum mu_i sig_i x_i = 0 make
        # sum mu_i sig_i y_i a lower bound on every fit's max |r|, attained by w.
        for x, y in vertex_instances():
            w, ref, sig, mu = _chebyshev_vertex(x, y)
            r = y - x @ w
            value = np.abs(r).max()
            scale = 1.0 + np.abs(y).max()
            assert np.all(mu >= -1e-12)
            assert np.all(np.abs(sig) == 1.0)
            if mu.sum() == 0.0:
                # As many points as the rank: the fit interpolates them.
                assert value <= 1e-9 * scale
                continue
            assert mu.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.abs((mu * sig) @ x[ref]).max() <= 1e-9 * scale
            assert (mu * sig) @ y[ref] == pytest.approx(value, rel=1e-9, abs=1e-12)

    def test_rank_deficient_sets_use_the_leftmost_spanning_columns(self):
        x = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [3.0, 6.0, 0.0], [1.0, 2.0, 0.0]])
        y = np.array([1.0, 2.5, 2.9, 0.7])
        for w in (_lad_vertex(x, y)[0], _chebyshev_vertex(x, y)[0]):
            assert w[1:].tolist() == [0.0, 0.0]
        # On the first column alone: the median of y / x weighted by |x|.
        assert _lad_vertex(x, y)[0][0] == pytest.approx(2.9 / 3.0, rel=1e-12)
        # Fewer points than d: an interpolating fit on the leftmost columns.
        x2 = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        for w in (_lad_vertex(x2, y[:2])[0], _chebyshev_vertex(x2, y[:2])[0]):
            assert w[2] == 0.0
            assert x2 @ w == pytest.approx(y[:2], abs=1e-12)

    def test_pivot_guard_raises(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        y[:3] += 10.0
        for solve in (_lad_vertex, _chebyshev_vertex):
            solve(x, y)  # converges within the default guard
            with pytest.raises(sf.SolverFailure):
                solve(x, y, max_pivots=0)

    def test_sets_sharing_a_vertex_share_its_bits(self):
        # Two opposite outliers with one x cancel in the multipliers, so the
        # optimal vertex of the first 13 points stays optimal with them, and
        # the fit is computed from the same basis rows in the same order.
        rng = np.random.default_rng(21)
        x = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        x[13] = x[14] = rng.normal(size=3)
        y[13], y[14] = 100.0, -100.0
        w_small, basis_small, _ = _lad_vertex(x[:13], y[:13])
        w_big, basis_big, _ = _lad_vertex(x, y)
        assert np.array_equal(basis_small, basis_big)
        assert w_small.tobytes() == w_big.tobytes()


class TestStackedLad:
    """Each set of a stack has the bits it has alone, whatever the other sets are."""

    @staticmethod
    def assert_alone_equals_stacked(x, y, masks):
        fits, bases, certificates = _lad_vertices(x, y, masks)
        for b, mask in enumerate(masks):
            w, basis, lam = _lad_vertices(x, y, mask[None])
            assert w[0].tobytes() == fits[b].tobytes()
            assert np.array_equal(basis[0], bases[b])
            assert lam[0].tobytes() == certificates[b].tobytes()
            assert not certificates[b][~mask].any()
            # the set's own rows, without the others: the same vertex, whose
            # multipliers sum other zeros
            w_set, basis_set, lam_set = _lad_vertex(x[mask], y[mask])
            assert w_set.tobytes() == fits[b].tobytes()
            assert np.array_equal(np.flatnonzero(mask)[basis_set], bases[b][bases[b] >= 0])
            assert lam_set == pytest.approx(certificates[b][mask], rel=1e-12, abs=1e-12)
        return fits, bases, certificates

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_size_stacks(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 25, int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        y = x @ rng.normal(size=d) + rng.normal(size=n) * (rng.random(n) < 0.4) * 5
        masks = rng.random((9, n)) < rng.uniform(0.2, 0.9, size=(9, 1))
        masks[0] = True
        masks[1] = False
        masks[1, rng.choice(n, size=d, replace=False)] = True  # k == d: the interpolation
        fits, bases, _ = self.assert_alone_equals_stacked(x, y, masks)
        assert np.allclose(x[bases[1]] @ fits[1], y[bases[1]], atol=1e-12)

    def test_rank_deficient_sets_in_a_stack(self):
        # rows 0-3 span one direction, so a set of them has rank 1 and is
        # solved on its leftmost spanning column; set 2 has one point
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [1.0, 2.0], [0.0, 1.0], [1.0, -1.0]])
        y = np.array([1.0, 2.5, 2.9, 0.7, 0.3, -2.0])
        masks = np.zeros((4, 6), dtype=bool)
        masks[0, :4] = masks[1] = masks[3, [1, 4]] = True
        masks[2, 5] = True
        fits, bases, _ = self.assert_alone_equals_stacked(x, y, masks)
        assert fits[0][1] == 0.0 and fits[0][0] == pytest.approx(2.9 / 3.0, rel=1e-12)
        assert (bases[0] >= 0).sum() == 1 and (bases[2] >= 0).sum() == 1
        assert x[5] @ fits[2] == pytest.approx(y[5], abs=1e-12)

    def test_a_degenerate_pivot(self):
        # The start vertex of this set takes a step of length 0 (a third
        # point on its line), after which the smallest violating point
        # leaves (Bland); the stack gives the set the same bits.
        t = np.array([-2.0, 1.0, 2.0, -1.0, 0.0, 3.0, 2.0])
        x = np.column_stack([np.ones(7), t])
        y = np.array([4.0, -1.0, 2.0, 4.0, 1.0, 3.0, 2.0])
        masks = np.ones((3, 7), dtype=bool)
        masks[1, 0] = masks[2, [1, 2]] = False
        self.assert_alone_equals_stacked(x, y, masks)
        w, basis, lam = _lad_vertex(x, y)
        assert np.abs(y - x @ w).sum() == pytest.approx(lad_reference(x, y), rel=1e-12)

    def test_the_pivot_guard_raises_for_one_set_of_a_stack(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        y[:3] += 10.0
        masks = np.zeros((3, 12), dtype=bool)
        masks[0, :2] = masks[1, :2] = True  # k == d: optimal at the start
        masks[2] = True
        _lad_vertices(x, y, masks[:2], max_pivots=0)
        with pytest.raises(sf.SolverFailure, match="pivot guard"):
            _lad_vertices(x, y, masks, max_pivots=0)

    def test_the_default_guard_of_a_large_set(self):
        # 700 points: the default guard 50 (k + d) + 100 passes 2**15, so it
        # must not be computed in the dtype of the counts (int16 up to
        # 32,767 points), where it would wrap negative and raise at once
        rng = np.random.default_rng(0)
        x = rng.normal(size=(700, 2))
        y = x @ np.array([1.0, 2.0]) + rng.normal(size=700)
        w, _, _ = _lad_vertex(x, y)
        assert np.abs(y - x @ w).sum() <= np.abs(y - x @ np.array([1.0, 2.0])).sum()

    def test_certificates_of_a_stack(self):
        # test_lad_certificate's conditions for every set of one stack
        for x, y in vertex_instances():
            k = x.shape[0]
            masks = np.ones((3, k), dtype=bool)
            masks[1, ::2] = False
            masks[2, : k // 2] = False
            masks = masks[masks.sum(axis=1) > 0]
            fits, bases, lams = _lad_vertices(x, y, masks)
            for mask, w, basis, lam in zip(masks, fits, bases, lams):
                xs, ys, lam = x[mask], y[mask], lam[mask]
                r = ys - xs @ w
                scale = 1.0 + np.abs(ys).max()
                assert np.all(np.abs(lam) <= 1.0 + 1e-9)
                assert np.abs(xs.T @ lam).max(initial=0.0) <= 1e-9 * scale
                assert lam @ ys == pytest.approx(np.abs(r).sum(), rel=1e-9, abs=1e-12)
                assert np.abs(y[basis[basis >= 0]] - x[basis[basis >= 0]] @ w).max(initial=0.0) <= 1e-9 * scale

    def test_sets_sharing_a_vertex_share_its_bits_in_a_stack(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        x[13] = x[14] = rng.normal(size=3)
        y[13], y[14] = 100.0, -100.0
        masks = np.ones((3, 15), dtype=bool)
        masks[0, 13:] = False
        masks[2, 3] = False  # another set in the same stack
        fits, bases, _ = _lad_vertices(x, y, masks)
        assert np.array_equal(bases[0], bases[1])
        assert fits[0].tobytes() == fits[1].tobytes()


class TestSubspaceFit:
    def test_axis_points(self):
        data = sf.PointDataset(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), 1)
        model = sf.solve_subspace_p2(data, [0, 1, 2])
        assert abs(model.basis[:, 0] @ [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        assert np.max(sf.subspace_residuals(data, model)) == pytest.approx(0.0, abs=1e-12)

    def test_single_point_spans_itself(self):
        data = sf.PointDataset(np.array([[3.0, 4.0], [1.0, 1.0], [0.0, 1.0]]), 1)
        model = sf.solve_subspace_p2(data, [0])
        assert np.allclose(np.abs(model.basis[:, 0]), [0.6, 0.8])

    def test_orthonormal_and_eckart_young(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            ds = int(rng.integers(1, d))
            n = max(d * (d + 1) // 2, int(rng.integers(ds, 10) + 1))
            data = sf.PointDataset(rng.normal(size=(n, d)), ds)
            subset = np.sort(rng.choice(n, size=int(rng.integers(ds, n + 1)), replace=False))
            model = sf.solve_subspace_p2(data, subset)
            assert model.orthonormality_defect() <= 1e-10
            sigma = np.linalg.svd(data.x[subset].T, compute_uv=False)
            tail = float(np.sum(sigma[ds:] ** 2))
            got = float(np.sum(sf.subspace_residuals(data, model)[subset] ** 2))
            assert got == pytest.approx(tail, abs=1e-9 * max(1.0, tail))

    def test_beats_random_competitors(self):
        rng = np.random.default_rng(12)
        data = sf.PointDataset(rng.normal(size=(12, 3)), 1)
        subset = np.arange(8)
        model = sf.solve_subspace_p2(data, subset)
        best = np.sum(sf.subspace_residuals(data, model)[subset] ** 2)
        for _ in range(100):
            rival = sf.SubspaceModel(random_orthonormal(rng, 3, 1))
            assert best <= np.sum(sf.subspace_residuals(data, rival)[subset] ** 2) + 1e-12

    def test_stacked_fits_and_scores_equal_the_one_set_calls(self):
        # The exact subspace search fits the new inlier sets of a call, of
        # any sizes, as one stack and scores all of them as one stack; it
        # returns the answers of a set-by-set loop only while every stacked
        # result equals the one-set call bit for bit.  A numpy or BLAS
        # release that breaks this must fail here.
        rng = np.random.default_rng(17)
        spec = sf.LossSpec(2, 0.7)
        for _ in range(300):
            d = int(rng.integers(2, 5))
            ds = int(rng.integers(1, d))
            n = int(rng.integers(d + 1, 16))
            x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1))
            v = _veronese_rows(x)
            count = int(rng.integers(1, 40))
            masks = np.zeros((count, n), dtype=bool)
            for mask in masks:
                mask[rng.choice(n, int(rng.integers(ds, n + 1)), replace=False)] = True
            bases, lams = _subspace_fits(v, masks, d, ds)
            residuals = _projection_residuals(x, bases)
            scores = np.sum(sf.loss(spec, residuals), axis=1)
            for b, mask in enumerate(masks):
                basis, lam = _subspace_fits(v, mask[None], d, ds)
                assert np.array_equal(bases[b], basis[0]), (d, ds, n, mask)
                assert np.array_equal(lams[b], lam[0])
                one = _projection_residuals(x, basis[0])
                assert np.array_equal(residuals[b], one), (d, ds, n, mask)
                assert scores[b] == float(np.sum(sf.loss(spec, one)))

    def test_public_fit_is_the_search_fit(self):
        # solve_subspace_p2 fits a subset as the exact subspace search fits
        # that inlier set, so the search's answer can be refitted outside it.
        rng = np.random.default_rng(18)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            ds = int(rng.integers(1, d))
            n = int(rng.integers(d * (d + 1) // 2, 16))
            data = sf.PointDataset(rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2, 2), ds)
            search = _SubspaceSearch(data, sf.LossSpec(2, 0.5))
            masks = np.zeros((8, n), dtype=bool)
            for mask in masks:
                mask[rng.choice(n, int(rng.integers(ds, n + 1)), replace=False)] = True
            _, bases = search._solve_many(masks)
            for mask, basis in zip(masks, bases):
                model = sf.solve_subspace_p2(data, np.flatnonzero(mask))
                assert np.array_equal(model.basis, basis), (d, ds, n, mask)

    def test_stretched_sets_keep_the_svd_tail(self):
        # The accuracy edge of the scatter fit (see _subspace_fits): points
        # stretched x1e3 along one axis with 1e-3 noise square to a scatter
        # of condition near 1e12.  Each fit's residual sum must stay within
        # 1e-3 (tail + eps trace) of the SVD tail sum_(i > ds) sigma_i^2.
        rng = np.random.default_rng(19)
        eps = np.finfo(float).eps
        for _ in range(300):
            d = int(rng.integers(2, 5))
            ds = int(rng.integers(1, d))
            n = int(rng.integers(d + 1, 16))
            x = np.zeros((n, d))
            x[:, :ds] = rng.normal(size=(n, ds))
            x[:, 0] *= 1e3
            x += 1e-3 * rng.normal(size=(n, d))
            x = x @ np.linalg.qr(rng.normal(size=(d, d)))[0].T
            masks = np.zeros((5, n), dtype=bool)
            for mask in masks:
                mask[rng.choice(n, int(rng.integers(ds, n + 1)), replace=False)] = True
            bases, _ = _subspace_fits(_veronese_rows(x), masks, d, ds)
            residuals = _projection_residuals(x, bases)
            for mask, r in zip(masks, residuals):
                sigma = np.linalg.svd(x[mask], compute_uv=False)
                tail = float(np.sum(sigma[ds:] ** 2))
                trace = float(np.sum(x[mask] ** 2))
                got = float(np.sum(r[mask] ** 2))
                assert abs(got - tail) <= 1e-3 * (tail + eps * trace), (d, ds, mask, got, tail)

    def test_tied_spectrum_is_flagged(self):
        data = sf.PointDataset(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]), 1)
        with pytest.warns(NonUniqueBasisWarning):
            sf.solve_subspace_p2(data, [0, 1])

    def test_too_small_subset_rejected(self):
        rng = np.random.default_rng(16)
        data = sf.PointDataset(rng.normal(size=(7, 3)), 2)
        with pytest.raises(ValueError):
            sf.solve_subspace_p2(data, [0])


class TestLpSolve:
    def test_scalar_bound(self):
        # min x subject to x >= 3
        lp = DenseLP([1.0], [[-1.0]], [-3.0], [False])
        sol = lp_solve(lp)
        assert sol.x[0] == pytest.approx(3.0, abs=1e-12)
        assert sol.objective == pytest.approx(3.0, abs=1e-12)

    def test_matches_lad_solver(self):
        data = sf.RegressionDataset(np.array([[1.0], [1.0], [1.0]]), np.array([0.0, 1.0, 10.0]))
        sol = lp_solve(_lad_lp(data.x, data.y))
        assert sol.objective == pytest.approx(10.0, abs=1e-9)

    def test_matches_minimax_solver(self):
        data = two_point_vertical()
        sol = lp_solve(_minimax_lp(data.x, data.y))
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_complementary_slackness(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(n, d))
            y = rng.normal(size=n) * 3
            for build in (_lad_lp, _minimax_lp):
                sol = lp_solve(build(x, y))
                assert sol.complementary_slackness() <= 1e-8
                assert np.all(sol.slack >= -1e-8)

    def test_strong_duality(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        lp = _lad_lp(x, y)
        sol = lp_solve(lp)
        assert sol.dual @ lp.b_ub == pytest.approx(sol.objective, abs=1e-8)

    def test_cycling_guard_raises(self):
        rng = np.random.default_rng(15)
        lp = _lad_lp(rng.normal(size=(6, 2)), rng.normal(size=6))
        with pytest.raises(sf.SolverFailure):
            lp_solve(lp, max_iterations=0)

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ValueError):
            DenseLP([1.0, 2.0], [[-1.0]], [-3.0], [False])

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="the dense simplex loses the LAD optimum on nearly dependent columns; "
        "lp_reference is a reference for well-conditioned designs only",
    )
    def test_nearly_dependent_columns(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(11, 5))
        x[:, 1] = x[:, 0] + 1e-7 * rng.normal(size=11)
        y = rng.normal(size=11)
        reference = lad_reference(x, y)
        fit = sf.solve_lad(sf.RegressionDataset(x, y), np.arange(11))
        vertex = float(np.sum(np.abs(y - x @ fit.w)))
        if vertex != pytest.approx(reference, rel=1e-6):  # a broken reference is not the known defect
            pytest.fail(f"the enumeration ({reference}) and the vertex solver ({vertex}) disagree")
        assert lp_solve(_lad_lp(x, y)).objective == pytest.approx(reference, rel=1e-6)
