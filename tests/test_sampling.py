import tracemalloc

import numpy as np
import pytest

import satfit as sf
from satfit.experiments import GeneratorConfig, generate_regression
from satfit.sampling import (
    SamplingConfig,
    _draw_seeds,
    ransac_regression,
    sampled_regression,
    sampled_subspace,
)
from satfit.subsolvers import _lad_fit, _ls_fit, _minimax_fit
from helpers import axis_dataset, exact_fit_dataset, integer_regression_instances, numpy_draws


class TestSamplingConfig:
    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            SamplingConfig(0)


class TestDrawSeeds:
    @pytest.mark.parametrize("seed", [0, 2**32 + 7, 2**64 - 59])
    @pytest.mark.parametrize("k", [3, 4, 8, 10, 15])  # one to two Philox blocks
    def test_equals_the_per_child_numpy_draw(self, seed, k):
        assert np.array_equal(_draw_seeds(seed, 40, 400, k), numpy_draws(seed, 40, 400, k))

    @pytest.mark.parametrize(
        "pool, k",
        [
            (2**31 + 3, 4),  # about half of all words are rejected
            (2**31 + 3, 15),
            (20_000, 400),  # the largest Floyd draw numpy makes from this pool
            (2**32 - 1, 5),
            (7, 7),  # every index; numpy draws no word for the range of one
        ],
    )
    def test_equals_numpy_at_the_edges(self, pool, k):
        for seed in (0, 2**64 - 59):
            assert np.array_equal(_draw_seeds(seed, 6, pool, k), numpy_draws(seed, 6, pool, k))

    @pytest.mark.parametrize("pool, k", [(10_001, 201), (20_000, 401)])
    def test_floyd_where_numpy_tail_shuffles(self, pool, k):
        # Generator.choice tail-shuffles once pool > 10,000 and k > pool // 50;
        # these rows stay Floyd draws, so they differ from numpy's
        rows = _draw_seeds(5, 4, pool, k)
        assert rows.shape == (4, k)
        assert np.all(np.diff(rows, axis=1) > 0)
        assert rows.min() >= 0 and rows.max() < pool
        assert np.array_equal(rows[:2], _draw_seeds(5, 2, pool, k))

    def test_rows_do_not_depend_on_the_count(self):
        assert np.array_equal(_draw_seeds(9, 300, 50, 6)[:17], _draw_seeds(9, 17, 50, 6))

    @pytest.mark.parametrize(
        "seed, count, pool, k",
        [
            (0, 1, 2**32, 3),  # numpy's 64-bit bounded path
            (0, 2**32 + 1, 10, 3),  # a two-word spawn key
            (0, 2**62, 2**40, 3),
            (0, 1, 3, 4),
            (-1, 1, 10, 3),
        ],
    )
    def test_limits_raise_before_allocating(self, seed, count, pool, k):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                _draw_seeds(seed, count, pool, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestSampledRegression:
    def test_exact_fit_recovers_optimum(self):
        report = sampled_regression(
            exact_fit_dataset(), sf.LossSpec(0, 0.1), SamplingConfig(200, 0)
        )
        assert report.objective == 1.0
        assert report.model.w[0] == pytest.approx(2.0, abs=1e-9)
        assert report.approximate
        assert report.seeds_enumerated == 200

    def test_exhaustive_limit_equals_exact(self):
        cfg = GeneratorConfig(n=9, d=2, outlier_fraction=0.3, rng_seed=4)
        data, _ = generate_regression(cfg)
        spec = sf.LossSpec(2, 0.6)
        # 153 seeds: 3,000 draws miss the optimal one with probability ~ 3e-9
        many = sampled_regression(data, spec, SamplingConfig(3000, 0))
        exact = sf.exact_regression(data, spec)
        assert many.objective == exact.objective
        assert np.array_equal(many.model.w, exact.model.w)
        assert np.array_equal(many.inliers, exact.inliers)
        assert many.approximate

    def test_deterministic_under_seed(self):
        cfg = GeneratorConfig(n=12, d=2, outlier_fraction=0.3, rng_seed=5)
        data, _ = generate_regression(cfg)
        spec = sf.LossSpec(2, 0.8)
        a = sampled_regression(data, spec, SamplingConfig(150, 42))
        b = sampled_regression(data, spec, SamplingConfig(150, 42))
        assert a.objective == b.objective
        assert np.array_equal(a.model.w, b.model.w)
        assert np.array_equal(a.inliers, b.inliers)

    def test_anytime_incumbent_is_nonincreasing(self):
        cfg = GeneratorConfig(n=12, d=2, outlier_fraction=0.3, rng_seed=6)
        data, _ = generate_regression(cfg)
        seen = []
        sampled_regression(
            data,
            sf.LossSpec(2, 0.8),
            SamplingConfig(600, 7),
            progress=lambda done, j: seen.append((done, j)),
        )
        assert [done for done, _ in seen] == [256, 512, 600]  # per block and after the last
        incumbents = [j for _, j in seen]
        assert all(a >= b for a, b in zip(incumbents, incumbents[1:]))

    def test_never_beats_exact(self):
        for seed in range(5):
            cfg = GeneratorConfig(n=9, d=2, outlier_fraction=0.3, rng_seed=seed)
            data, _ = generate_regression(cfg)
            spec = sf.LossSpec(2, 0.6)
            approx = sampled_regression(data, spec, SamplingConfig(25, seed))
            exact = sf.exact_regression(data, spec)
            assert approx.objective >= exact.objective - 1e-12


class TestSampledSubspace:
    def test_axis_dataset(self):
        report = sampled_subspace(axis_dataset(), sf.LossSpec(0, 0.1), SamplingConfig(500, 0))
        assert report.objective == 2.0
        assert report.inliers.tolist() == [0, 1, 2, 3, 4, 5]

    def test_exhaustive_limit_equals_exact(self):
        spec = sf.LossSpec(2, 0.1)
        # 56 seeds: 2,000 draws miss the optimal one with probability ~ 3e-16
        many = sampled_subspace(axis_dataset(), spec, SamplingConfig(2000, 0))
        exact = sf.exact_subspace(axis_dataset(), spec)
        assert many.objective == exact.objective
        assert np.array_equal(many.model.basis, exact.model.basis)
        assert many.approximate

    def test_deterministic_under_seed(self):
        spec = sf.LossSpec(0, 0.1)
        a = sampled_subspace(axis_dataset(), spec, SamplingConfig(60, 9))
        b = sampled_subspace(axis_dataset(), spec, SamplingConfig(60, 9))
        assert a.objective == b.objective
        assert np.array_equal(a.model.basis, b.model.basis)


def check_against_the_per_draw_loop(data, spec, cfg) -> int:
    """Assert that RANSAC's report is that of a loop over the draws one by one; return the rank-deficient draws."""
    size = 2 * data.d if cfg.subset_size is None else cfg.subset_size
    best, best_w, degenerate, calls = -1, None, 0, []
    for done, idx in enumerate(numpy_draws(cfg.rng_seed, cfg.n_iters, data.n, size), 1):
        w, rank = _ls_fit(data.x[idx], data.y[idx])
        degenerate += rank < data.d
        count = int(np.count_nonzero(np.abs(data.y - data.x @ w) <= spec.epsilon))
        if count > best:
            best, best_w = count, w
        if done % 256 == 0 or done == cfg.n_iters:
            calls.append((done, float(data.n - best)))
    consensus = np.flatnonzero(np.abs(data.y - data.x @ best_w) <= spec.epsilon)
    x, y = data.x[consensus], data.y[consensus]
    if not consensus.size:
        w = best_w
    elif spec.p == 0:
        w = _minimax_fit(x, y)[0]
    elif spec.p == 1:
        w = _lad_fit(x, y, np.ones((1, consensus.size), dtype=bool))[0]
    else:
        w = _ls_fit(x, y)[0]
    model = sf.RegressionModel(w)
    seen = []
    report = ransac_regression(data, spec, cfg, progress=lambda *a: seen.append(a))
    assert report.objective == float(np.sum(sf.loss(spec, data.y - data.x @ model.w)))
    assert report.model.w.tobytes() == model.w.tobytes()
    assert np.array_equal(report.inliers, sf.regression_inliers(data, model, spec))
    assert report.seeds_degenerate == degenerate
    assert report.subproblems_solved == cfg.n_iters + (consensus.size > 0)
    assert seen == calls
    return degenerate


class TestRansac:
    def test_exact_fit_consensus(self):
        report = ransac_regression(
            exact_fit_dataset(), sf.LossSpec(0, 0.1), SamplingConfig(200, 1, subset_size=2)
        )
        assert report.inliers.tolist() == [0, 1, 2, 3]
        assert report.model.w[0] == pytest.approx(2.0, abs=1e-9)

    def test_noiseless_full_consensus(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        data = sf.RegressionDataset(x, 2.0 * x[:, 0])
        report = ransac_regression(data, sf.LossSpec(2, 10.0), SamplingConfig(5, 3, subset_size=2))
        assert report.inliers.size == data.n

    def test_deterministic_under_seed(self):
        cfg = GeneratorConfig(n=20, d=2, outlier_fraction=0.3, rng_seed=8)
        data, _ = generate_regression(cfg)
        spec = sf.LossSpec(2, 0.9)
        a = ransac_regression(data, spec, SamplingConfig(100, 11))
        b = ransac_regression(data, spec, SamplingConfig(100, 11))
        assert a.objective == b.objective
        assert np.array_equal(a.model.w, b.model.w)

    def test_consensus_never_beats_exact_p0(self):
        for seed in range(5):
            cfg = GeneratorConfig(n=10, d=2, outlier_fraction=0.3, rng_seed=seed)
            data, _ = generate_regression(cfg)
            spec = sf.LossSpec(0, 0.8)
            best = data.n - sf.exact_regression(data, spec).objective
            ransac = ransac_regression(data, spec, SamplingConfig(120, seed))
            assert ransac.inliers.size <= best

    def test_progress_per_block_and_after_the_last_draw(self):
        cfg = GeneratorConfig(n=12, d=2, outlier_fraction=0.3, rng_seed=6)
        data, _ = generate_regression(cfg)
        seen = []
        ransac_regression(
            data,
            sf.LossSpec(2, 0.8),
            SamplingConfig(600, 7),
            progress=lambda done, j: seen.append((done, j)),
        )
        assert [done for done, _ in seen] == [256, 512, 600]
        incumbents = [j for _, j in seen]
        assert all(a >= b for a, b in zip(incumbents, incumbents[1:]))

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_model_is_the_loss_selected_fit_of_the_consensus(self, p):
        # The consensus set is recomputed here from the same Philox streams,
        # with plain least squares for the sample fits.
        cfg = GeneratorConfig(n=20, d=2, outlier_fraction=0.3, rng_seed=8)
        data, _ = generate_regression(cfg)
        eps, iters, rng_seed = 0.9, 60, 5
        best, consensus = -1, None
        for idx in numpy_draws(rng_seed, iters, data.n, 4):
            w = np.linalg.lstsq(data.x[idx], data.y[idx], rcond=None)[0]
            inside = np.flatnonzero(np.abs(data.y - data.x @ w) <= eps)
            if inside.size > best:
                best, consensus = inside.size, inside
        fit = {
            0: lambda: sf.solve_minimax(data, consensus)[0],
            1: lambda: sf.solve_lad(data, consensus),
            2: lambda: sf.solve_least_squares(data, consensus),
        }[p]()
        report = ransac_regression(data, sf.LossSpec(p, eps), SamplingConfig(iters, rng_seed))
        assert np.array_equal(report.model.w, fit.w)

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_equals_the_per_draw_loop(self, p):
        # two planes of ten points each tie in consensus, and the first block
        # of draws reaches both, so only the first best draw gives the answer;
        # duplicated and collinear rows make some draws rank deficient
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 3))
        x[20:25] = x[20]
        x[25:, 1:] = x[25:, :1] * [1.0, 2.0]
        y = 50.0 + rng.normal(size=30)
        y[:10] = x[:10] @ [1.0, -2.0, 0.5]
        y[10:20] = x[10:20] @ [-1.0, 0.5, 2.0]
        data, spec, size, iters = sf.RegressionDataset(x, y), sf.LossSpec(p, 0.05), 3, 700
        assert check_against_the_per_draw_loop(data, spec, SamplingConfig(iters, 10, subset_size=size)) > 0

    def test_counts_points_at_epsilon_like_the_per_draw_loop(self):
        # integer data puts errors at exactly epsilon, where the draw count
        # and the refit set must both count the point in
        for i, (data, eps) in enumerate(integer_regression_instances(count=100)):
            check_against_the_per_draw_loop(data, sf.LossSpec(0, eps), SamplingConfig(40, i))

    def test_subset_size_validation(self):
        data = exact_fit_dataset()
        with pytest.raises(ValueError):
            ransac_regression(data, sf.LossSpec(0, 0.1), SamplingConfig(10, 0, subset_size=0))
        with pytest.raises(ValueError):
            ransac_regression(data, sf.LossSpec(0, 0.1), SamplingConfig(10, 0, subset_size=99))

    def test_default_subset_size_is_twice_d(self):
        cfg = GeneratorConfig(n=15, d=3, outlier_fraction=0.2, rng_seed=9)
        data, _ = generate_regression(cfg)
        explicit = ransac_regression(data, sf.LossSpec(2, 1.0), SamplingConfig(40, 13, subset_size=6))
        default = ransac_regression(data, sf.LossSpec(2, 1.0), SamplingConfig(40, 13))
        assert explicit.objective == default.objective
