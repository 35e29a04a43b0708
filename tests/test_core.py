import numpy as np
import pytest
from hypothesis import given, strategies as st

import satfit as sf
from satfit.core import _counts
from helpers import (
    axis_dataset,
    exact_fit_dataset,
    random_orthonormal,
    split_form_regression,
    split_form_subspace,
)

finite_errors = st.floats(
    min_value=-1e8, max_value=1e8, allow_nan=False, allow_infinity=False
)


class TestLossSpec:
    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            sf.LossSpec(3, 1.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(ValueError):
            sf.LossSpec(2, eps)

    def test_saturation(self):
        assert sf.LossSpec(0, 0.5).saturation == 1.0
        assert sf.LossSpec(2, 0.5).saturation == 0.25


class TestLoss:
    def test_squared_below_saturation(self):
        assert sf.loss(sf.LossSpec(2, 1.0), 0.5) == 0.25

    def test_squared_saturates(self):
        assert sf.loss(sf.LossSpec(2, 1.0), 3.0) == 1.0

    def test_p0_boundary_is_zero(self):
        # The indicator uses a strict inequality, so the boundary has no loss.
        assert sf.loss(sf.LossSpec(0, 0.1), 0.1) == 0.0

    @given(e=finite_errors, p=st.sampled_from([0, 1, 2]))
    def test_even(self, e, p):
        spec = sf.LossSpec(p, 0.7)
        assert sf.loss(spec, e) == sf.loss(spec, -e)

    @given(e=finite_errors, p=st.sampled_from([0, 1, 2]))
    def test_bounded(self, e, p):
        spec = sf.LossSpec(p, 0.7)
        assert 0.0 <= sf.loss(spec, e) <= spec.saturation

    @given(e=finite_errors, delta=st.floats(min_value=0, max_value=1e6), p=st.sampled_from([0, 1, 2]))
    def test_nondecreasing_in_magnitude(self, e, delta, p):
        spec = sf.LossSpec(p, 0.7)
        assert sf.loss(spec, abs(e) + delta) >= sf.loss(spec, e)


class TestRegression:
    def test_inliers_exact_fit(self):
        data = exact_fit_dataset()
        model = sf.RegressionModel([2.0])
        got = sf.regression_inliers(data, model, sf.LossSpec(0, 0.1))
        assert got.tolist() == [0, 1, 2, 3]

    def test_inliers_huge_epsilon_is_everything(self):
        data = exact_fit_dataset()
        model = sf.RegressionModel([2.0])
        spec = sf.LossSpec(2, 1000.0)
        assert sf.regression_inliers(data, model, spec).tolist() == [0, 1, 2, 3, 4]

    def test_inliers_match_direct_reevaluation(self):
        rng = np.random.default_rng(5)
        data = sf.RegressionDataset(rng.normal(size=(20, 3)), rng.normal(size=20))
        model = sf.RegressionModel(rng.normal(size=3))
        spec = sf.LossSpec(1, 0.5)
        expected = [i for i in range(20) if abs(data.y[i] - data.x[i] @ model.w) <= 0.5]
        assert sf.regression_inliers(data, model, spec).tolist() == expected

    def test_objective_examples(self):
        data = exact_fit_dataset()
        model = sf.RegressionModel([2.0])
        assert sf.regression_objective(data, model, sf.LossSpec(0, 0.1)) == 1.0
        assert sf.regression_objective(data, model, sf.LossSpec(2, 0.1)) == pytest.approx(
            0.01, abs=1e-15
        )

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_sum_equals_split_form(self, p):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(3, 12))
            d = int(rng.integers(1, min(4, n + 1)))
            data = sf.RegressionDataset(rng.normal(size=(n, d)), rng.normal(size=n))
            model = sf.RegressionModel(rng.normal(size=d))
            spec = sf.LossSpec(p, float(rng.uniform(0.1, 2.0)))
            total = sf.regression_objective(data, model, spec)
            assert total == pytest.approx(split_form_regression(data, model, spec), abs=1e-12)

    def test_boundary_point_is_inlier(self):
        data = sf.RegressionDataset(np.array([[1.0]]), np.array([0.5]))
        model = sf.RegressionModel([0.0])
        spec = sf.LossSpec(0, 0.5)
        assert sf.regression_inliers(data, model, spec).tolist() == [0]
        assert sf.regression_objective(data, model, spec) == 0.0  # the zero set of the loss

    def test_dimension_mismatch(self):
        data = exact_fit_dataset()
        with pytest.raises(ValueError):
            sf.regression_inliers(data, sf.RegressionModel([1.0, 2.0]), sf.LossSpec(0, 1.0))


class TestSubspace:
    def test_inliers_axis_example(self):
        data = sf.PointDataset(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 5.0]]), 1)
        model = sf.SubspaceModel(np.array([[1.0], [0.0]]))
        got = sf.subspace_inliers(data, model, sf.LossSpec(0, 0.1))
        assert got.tolist() == [0, 1]

    def test_boundary_point_is_inlier(self):
        data = sf.PointDataset(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.5]]), 1)
        model = sf.SubspaceModel(np.array([[1.0], [0.0]]))
        spec = sf.LossSpec(0, 0.5)
        assert sf.subspace_inliers(data, model, spec).tolist() == [0, 1, 2]
        assert sf.subspace_objective(data, model, spec) == 0.0  # the zero set of the loss

    def test_inliers_huge_epsilon(self):
        data = axis_dataset()
        model = sf.SubspaceModel(np.array([[1.0], [0.0]]))
        assert sf.subspace_inliers(data, model, sf.LossSpec(2, 100.0)).size == data.n

    def test_inliers_match_direct_reevaluation(self):
        rng = np.random.default_rng(11)
        data = sf.PointDataset(rng.normal(size=(15, 3)), 2)
        model = sf.SubspaceModel(random_orthonormal(rng, 3, 2))
        spec = sf.LossSpec(0, 0.4)
        b = model.basis
        expected = [
            i
            for i in range(15)
            if np.linalg.norm(data.x[i] - b @ (b.T @ data.x[i])) <= 0.4
        ]
        assert sf.subspace_inliers(data, model, spec).tolist() == expected

    def test_objective_examples(self):
        data = sf.PointDataset(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 5.0]]), 1)
        model = sf.SubspaceModel(np.array([[1.0], [0.0]]))
        assert sf.subspace_objective(data, model, sf.LossSpec(0, 0.1)) == 1.0
        assert sf.subspace_objective(data, model, sf.LossSpec(2, 0.1)) == pytest.approx(
            0.01, abs=1e-15
        )

    @pytest.mark.parametrize("p", [0, 2])
    def test_sum_equals_split_form(self, p):
        rng = np.random.default_rng(23)
        for _ in range(300):
            d = int(rng.integers(2, 5))
            ds = int(rng.integers(1, d))
            n = max(d * (d + 1) // 2, int(rng.integers(4, 12)))
            data = sf.PointDataset(rng.normal(size=(n, d)), ds)
            model = sf.SubspaceModel(random_orthonormal(rng, d, ds))
            spec = sf.LossSpec(p, float(rng.uniform(0.2, 2.0)))
            total = sf.subspace_objective(data, model, spec)
            assert total == pytest.approx(split_form_subspace(data, model, spec), abs=1e-12)

    def test_non_orthonormal_model_rejected(self):
        data = axis_dataset()
        skew = sf.SubspaceModel(np.array([[1.0], [0.5]]))
        with pytest.raises(sf.InvalidModelError):
            sf.subspace_inliers(data, skew, sf.LossSpec(0, 0.5))


class TestDatasets:
    def test_regression_needs_n_ge_d(self):
        with pytest.raises(ValueError):
            sf.RegressionDataset(np.ones((1, 2)), np.ones(1))

    def test_point_dataset_needs_enough_points(self):
        with pytest.raises(ValueError):
            sf.PointDataset(np.ones((2, 2)), 1)  # needs d(d+1)/2 = 3 points

    def test_point_dataset_subspace_dim_range(self):
        with pytest.raises(ValueError):
            sf.PointDataset(np.ones((5, 2)), 2)

    def test_arrays_are_readonly(self):
        data = exact_fit_dataset()
        with pytest.raises(ValueError):
            data.y[0] = 3.0


class TestRowCounts:
    def test_counts_past_a_narrow_accumulator(self):
        # 300 set entries wrap a uint8 sum and 70,000 a uint16 one
        rng = np.random.default_rng(0)
        mask = np.zeros((4, 70_001), dtype=bool)
        mask[0, rng.choice(mask.shape[1], size=300, replace=False)] = True
        mask[1, rng.choice(mask.shape[1], size=70_000, replace=False)] = True
        mask[2] = True
        mask[3] = rng.random(mask.shape[1]) < 0.5
        for block in (mask, mask[:, 1:], mask[:, ::2]):  # contiguous rows or not
            counts = _counts(block, axis=1)
            assert counts.dtype == np.int32
            assert np.array_equal(counts, np.count_nonzero(block, axis=1))
            # the same block point-major, as the searches count it
            assert np.array_equal(_counts(np.ascontiguousarray(block.T), axis=0), counts)
            assert np.array_equal(_counts(block.T, axis=0), counts)
        assert _counts(mask, axis=1)[:2].tolist() == [300, 70_000]

    @pytest.mark.parametrize("length, dtype", [(32_767, np.int16), (32_768, np.int32)])
    def test_counts_full_rows_at_the_int16_edge(self, length, dtype):
        # int16 sums exactly up to 32,767 entries, the longest axis it counts
        mask = np.ones((2, length), dtype=bool)
        for block, axis in ((mask, 1), (np.ascontiguousarray(mask.T), 0), (mask.T, 0)):
            counts = _counts(block, axis=axis)
            assert counts.dtype == dtype
            assert counts.tolist() == [length, length]
