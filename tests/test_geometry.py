import numpy as np
import pytest

import satfit as sf
from satfit import exact
from satfit.geometry import (
    _EPS,
    ON_HYPERPLANE_TOL,
    _MAX_MINORS_DIM,
    LiftedSet,
    _batched_normals,
    _normal_rows,
    _orient,
)
from helpers import exact_fit_dataset, random_orthonormal


def small_regression(rng, n=12, d=2):
    return sf.RegressionDataset(rng.normal(size=(n, d)) * 2, rng.normal(size=n) * 2)


class TestLiftRegression:
    def test_worked_values(self):
        data = sf.RegressionDataset(np.array([[1.0]]), np.array([0.5]))
        z = sf.lift_regression(data, sf.LossSpec(2, 1.0))
        assert np.allclose(z.z[0], [-0.5, -1.0])
        assert np.allclose(z.z[1], [-1.5, 1.0])

    def test_counts_and_links(self):
        data = exact_fit_dataset()
        z = sf.lift_regression(data, sf.LossSpec(0, 0.1))
        assert z.size == 2 * data.n
        assert z.dim == data.d + 1
        assert [z.link(i) for i in range(z.size)] == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]

    def test_construction_formula(self):
        rng = np.random.default_rng(2)
        data = small_regression(rng)
        eps = 0.7
        z = sf.lift_regression(data, sf.LossSpec(1, eps))
        for i in range(data.n):
            assert np.array_equal(z.z[i], np.concatenate([[data.y[i] - eps], -data.x[i]]))
            assert np.array_equal(
                z.z[i + data.n], np.concatenate([[-data.y[i] - eps], data.x[i]])
            )

    def test_half_pair_identity(self):
        # margin of the mirrored copy equals -(margin) - 2*eps*h1
        rng = np.random.default_rng(3)
        data = small_regression(rng, n=15, d=3)
        eps = 0.4
        z = sf.lift_regression(data, sf.LossSpec(2, eps))
        for _ in range(50):
            h = rng.normal(size=data.d + 1)
            direct = z.z[data.n :] @ h
            derived = -(z.z[: data.n] @ h) - 2 * eps * h[0]
            assert np.max(np.abs(direct - derived)) < 1e-12 * max(1, np.max(np.abs(direct)))


class TestVeronese:
    def test_d2_ordering(self):
        assert sf.veronese([1.0, 2.0]).tolist() == [1.0, 2.0, 4.0]

    def test_zero_maps_to_zero(self):
        assert np.array_equal(sf.veronese(np.zeros(4)), np.zeros(10))

    def test_selection_vectors(self):
        assert sf.selection_vector(1).tolist() == [1.0]
        assert sf.selection_vector(2).tolist() == [1.0, 0.0, 1.0]
        assert sf.selection_vector(3).tolist() == [1.0, 0.0, 0.0, 1.0, 0.0, 1.0]

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_selection_recovers_squared_norm(self, d):
        rng = np.random.default_rng(d)
        s = sf.selection_vector(d)
        for _ in range(100):
            x = rng.normal(size=d) * 3
            assert sf.veronese(x) @ s == pytest.approx(x @ x, rel=1e-12)


class TestLiftSubspace:
    def test_first_coordinate(self):
        data = sf.PointDataset(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]), 1)
        z = sf.lift_subspace(data, sf.LossSpec(0, 1.0))
        assert np.allclose(z.z[0], [-1.0, 1.0, 0.0, 0.0])
        assert np.all(z.z[:, 0] == -1.0)

    def test_classifier_normal_equivalence(self):
        # sign of the lifted margin decides inlier membership, 1000 trials
        rng = np.random.default_rng(9)
        for _ in range(1000):
            d = int(rng.integers(2, 5))
            ds = int(rng.integers(1, d))
            n = max(d * (d + 1) // 2, 6)
            data = sf.PointDataset(rng.normal(size=(n, d)) * 2, ds)
            model = sf.SubspaceModel(random_orthonormal(rng, d, ds))
            eps = float(rng.uniform(0.3, 2.0))
            z = sf.lift_subspace(data, sf.LossSpec(0, eps))
            h = sf.subspace_normal(model)
            lifted = z.z @ h < 0
            direct = sf.subspace_residuals(data, model) < eps
            assert np.array_equal(lifted, direct)

    def test_classifier_normal_margin_value(self):
        rng = np.random.default_rng(10)
        data = sf.PointDataset(rng.normal(size=(6, 3)), 1)
        model = sf.SubspaceModel(random_orthonormal(rng, 3, 1))
        eps = 0.8
        z = sf.lift_subspace(data, sf.LossSpec(2, eps))
        margins = z.z @ sf.subspace_normal(model)
        expected = sf.subspace_residuals(data, model) ** 2 - eps**2
        assert np.allclose(margins, expected, atol=1e-12)


class TestHyperplaneThrough:
    def test_single_point_seed_in_the_plane(self):
        # seed z = [1, 1]: the unit normal with positive first coordinate
        data = sf.RegressionDataset(np.array([[-1.0], [1.0]]), np.array([2.0, 0.5]))
        z = sf.lift_regression(data, sf.LossSpec(2, 1.0))
        assert np.allclose(z.z[0], [1.0, 1.0])
        hp = sf.hyperplane_through(z, [0])
        assert hp is not None
        assert np.allclose(hp.normal, [1 / np.sqrt(2), -1 / np.sqrt(2)])
        assert 0 in hp.onset.tolist()

    def test_duplicate_seed_is_degenerate(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 1.0], [0.0, 5.0]])
        data = sf.RegressionDataset(x, np.array([1.0, 1.0, 2.0, 0.5]))
        z = sf.lift_regression(data, sf.LossSpec(0, 0.5))
        assert sf.hyperplane_through(z, [0, 1]) is None

    def test_seed_residuals_are_tiny(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            data = small_regression(rng, n=10, d=3)
            z = sf.lift_regression(data, sf.LossSpec(2, 0.5))
            seed = sorted(rng.choice(z.size, size=3, replace=False).tolist())
            hp = sf.hyperplane_through(z, seed)
            if hp is None:
                continue
            residuals = np.abs(z.z[seed] @ hp.normal)
            assert residuals.max() <= 1e-9 * max(np.linalg.norm(z.z[j]) for j in seed)
            assert np.linalg.norm(hp.normal) == pytest.approx(1.0, abs=1e-10)
            assert hp.normal[0] >= 0

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        data = small_regression(rng)
        z = sf.lift_regression(data, sf.LossSpec(0, 0.3))
        a = sf.hyperplane_through(z, [1, 5])
        b = sf.hyperplane_through(z, [1, 5])
        assert np.array_equal(a.normal, b.normal)

    def test_wrong_seed_size_rejected(self):
        data = small_regression(np.random.default_rng(0))
        z = sf.lift_regression(data, sf.LossSpec(0, 0.3))
        with pytest.raises(ValueError):
            sf.hyperplane_through(z, [1])
        with pytest.raises(ValueError):
            sf.hyperplane_through(z, [1, 1])

    def test_out_of_range_seed_rejected(self):
        # a negative index must not wrap around to the last lifted rows
        data = small_regression(np.random.default_rng(0), n=4)
        z = sf.lift_regression(data, sf.LossSpec(0, 0.3))
        for seed in ([-1, 0], [0, 99], [0, z.size]):
            with pytest.raises(ValueError):
                sf.hyperplane_through(z, seed)


def _edge_seed(m, s):
    # rows e_0 .. e_(m-3) and e_0 + s e_(m-2), unit rows in floating point that
    # span a volume of exactly s: the minors vector is (0, ..., 0, +-s)
    a = np.eye(m - 1, m)
    a[-1, 0], a[-1, m - 2] = 1.0, s
    return a


def _seed_set(a):
    # a lifted set whose points are the rows of one seed; the subspace kind
    # keeps the sign of the normal as the batch fixes it
    return LiftedSet("subspace", a, a.shape[0], 1.0)


def _degenerate_seeds(m):
    # (m-1) x m seeds of rank below m - 1; a lone row (m = 2) only when it is zero
    if m == 2:
        return {"zero row": np.zeros((1, 2))}
    base = np.random.default_rng(21).normal(size=(m - 2, m))
    ints = np.random.default_rng(22).integers(-3, 4, size=(m - 2, m)).astype(float)
    return {
        "duplicate row": np.vstack([base, base[:1]]),
        "zero row": np.vstack([base[:1], np.zeros((1, m)), base[1:]]),
        "coplanar rows": np.vstack([ints, 2.0 * ints[:1] - ints[-1:]]),
        "coplanar float rows": np.vstack([base, 0.3 * base[:1] - 1.7 * base[-1:]]),
    }


_DIMS = range(2, 12)  # lifted dimensions on both sides of the minors / SVD switch
_MINORS_DIMS = range(2, _MAX_MINORS_DIM + 1)


class TestBatchedNormals:
    @pytest.mark.parametrize("m", _DIMS)
    def test_agrees_with_the_svd_null_vector(self, m):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(500, m - 1, m)) * rng.uniform(0.01, 100.0, size=(500, m - 1, 1))
        h, degen = _batched_normals(_normal_rows(a))
        assert not degen.any()
        svd_h = np.linalg.svd(a)[2][:, -1, :].copy()
        _orient(h)
        _orient(svd_h)
        assert np.allclose(h, svd_h, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("m", _DIMS)
    def test_unit_norm_and_orthogonal_to_the_rows(self, m):
        rng = np.random.default_rng(18)
        a = rng.normal(size=(500, m - 1, m)) * rng.uniform(0.01, 100.0, size=(500, m - 1, 1))
        h, _ = _batched_normals(_normal_rows(a))
        assert np.allclose(np.linalg.norm(h, axis=1), 1.0, rtol=0, atol=1e-12)
        margins = np.abs(np.einsum("bij,bj->bi", a, h))
        assert np.all(margins <= 1e-12 * np.linalg.norm(a, axis=2))

    @pytest.mark.parametrize(
        "m, case", [(m, case) for m in _DIMS for case in sorted(_degenerate_seeds(m))]
    )
    def test_rank_deficient_seeds_are_degenerate(self, m, case):
        a = _degenerate_seeds(m)[case]
        assert _batched_normals(_normal_rows(a[None]))[1][0]
        assert sf.hyperplane_through(_seed_set(a), range(m - 1)) is None

    @pytest.mark.parametrize(
        "m, scale",
        [(m, s) for m in _DIMS for s in (1e150, 1e-150)]
        + [(m, s) for m in _MINORS_DIMS for s in (1e200, 1e-200)],
    )
    def test_scale_free(self, m, scale):
        rng = np.random.default_rng(19)
        degenerate = list(_degenerate_seeds(m).values())
        a = np.array([rng.normal(size=(m - 1, m)) for _ in range(50)] + degenerate)
        h, degen = _batched_normals(_normal_rows(a))
        hs, degens = _batched_normals(_normal_rows(a * scale))
        assert np.all(np.isfinite(hs))
        assert np.array_equal(degen, degens)
        assert degen.sum() == len(degenerate)
        # the SVD (m >= 10) returns an arbitrary vector of a null space of
        # dimension > 1, and rescales extreme inputs by a rounded factor
        keep = ~degen if m > _MAX_MINORS_DIM else slice(None)
        atol = 1e-14 if m <= _MAX_MINORS_DIM else 1e-13
        assert np.allclose(hs[keep], h[keep], rtol=0, atol=atol)

    @pytest.mark.parametrize("m", range(3, _MAX_MINORS_DIM + 1))
    def test_degeneracy_bound_at_its_edge(self, m):
        # the rule is ||minors|| <= m eps prod(||row||), inclusive; a lone row
        # (m = 2) has no such edge, its normal is degenerate only when it is
        # zero.  The scales are exact, so the scaled seed keeps its volume
        # ratio s; a decimal scale would round the entry s * scale and move it.
        bound = m * _EPS
        for s, expected in ((np.nextafter(bound, 0.0), True), (bound, True),
                            (np.nextafter(bound, 1.0), False)):
            for scale in (1.0, 2.0**500, 2.0**-500, 2.0**700, 2.0**-700):
                h, degen = _batched_normals(_normal_rows(_edge_seed(m, s)[None] * scale))
                assert degen[0] == expected, (s, scale)
        h, _ = _batched_normals(_normal_rows(_edge_seed(m, np.nextafter(bound, 1.0))[None]))
        assert np.array_equal(np.abs(h[0]), np.eye(m)[-1])

    @pytest.mark.parametrize("m", _DIMS)
    def test_one_seed_calls_match_the_batch_bit_for_bit(self, m):
        # hyperplane_through, the one-seed entry point, returns the normal the
        # searches compute in their blocks, from the minors (m <= 9) and from
        # the SVD (m >= 10) alike
        rng = np.random.default_rng(20)
        a = rng.normal(size=(300, m - 1, m))
        h, degen = _batched_normals(_normal_rows(a))
        _orient(h)
        assert not degen.any()
        for i in range(a.shape[0]):
            normal = sf.hyperplane_through(_seed_set(a[i]), range(m - 1)).normal
            assert np.array_equal(normal, h[i]), (m, i)

    def test_two_row_normals_are_the_cross_product(self):
        # exact power-of-two row scaling leaves the d = 2 normals bit-identical
        # to the normalized np.cross, the cross-product rule unchanged
        rng = np.random.default_rng(23)
        a = rng.normal(size=(500, 2, 3)) * rng.uniform(0.01, 100.0, size=(500, 2, 1))
        h, degen = _batched_normals(_normal_rows(a))
        cross = np.cross(a[:, 0], a[:, 1])
        assert not degen.any()
        assert np.array_equal(h, cross / np.linalg.norm(cross, axis=1)[:, None])


def _per_seed_scaled(a):
    # the preamble _batched_normals once ran on every seed stack (B, m-1, m)
    # it took: each row scaled by the power of two that puts its largest
    # |entry| in [0.5, 1)
    top = np.full(a.shape[:2], np.finfo(float).tiny)
    for c in range(a.shape[2]):
        np.maximum(top, np.abs(a[..., c]), out=top)
    return a * np.ldexp(1.0, -np.frexp(top)[1])[..., None]


def _point_rows(m, kind, rng):
    # 8 random rows and 8 rows of the given kind, interleaved
    plain = rng.normal(size=(8, m)) * rng.uniform(0.01, 100.0, size=(8, 1))
    other = {
        "random": rng.normal(size=(8, m)),
        "integer": rng.integers(-3, 4, size=(8, m)).astype(float),
        "all-zero": np.zeros((8, m)),
        "huge": rng.normal(size=(8, m)) * np.array([1e300, -1e300] * 4)[:, None],
        "tiny": rng.normal(size=(8, m)) * 1e-300,
    }[kind]
    return np.stack([plain, other], axis=1).reshape(16, m)


class TestNormalRows:
    """Rows prepared once per point set give the normals of rows scaled seed by seed."""

    @pytest.mark.parametrize("m", _MINORS_DIMS)
    @pytest.mark.parametrize("kind", ["random", "integer", "all-zero", "huge", "tiny"])
    def test_gathered_rows_match_the_per_seed_scaling_bit_for_bit(self, m, kind):
        rng = np.random.default_rng(60 + m)
        z = _point_rows(m, kind, rng)
        idx = np.array([rng.choice(16, size=m - 1, replace=False) for _ in range(300)])
        rows = _normal_rows(z)
        scaled = _per_seed_scaled(z[idx])
        assert np.array_equal(rows[idx], scaled)
        h, degen = _batched_normals(rows[idx])
        h_ref, degen_ref = _batched_normals(scaled)
        assert np.array_equal(h, h_ref) and np.array_equal(degen, degen_ref)
        assert np.all(np.isfinite(h))
        if kind == "all-zero":  # a seed with a zero row
            assert degen[(z[idx] == 0).all(axis=2).any(axis=1)].all()

    def test_lifted_sets_hold_their_normal_rows(self):
        rng = np.random.default_rng(71)
        spec = sf.LossSpec(2, 0.5)
        regression = sf.lift_regression(small_regression(rng, n=9, d=3), spec)
        subspace = sf.lift_subspace(sf.PointDataset(rng.normal(size=(9, 3)), 1), spec)
        for zset in (regression, subspace):
            assert np.array_equal(zset.rows, _normal_rows(zset.z))
            assert np.array_equal(zset.rows, _per_seed_scaled(zset.z[None])[0])

    @pytest.mark.parametrize("m", [_MAX_MINORS_DIM + 1, _MAX_MINORS_DIM + 2])
    def test_svd_dimensions_take_raw_rows(self, m):
        rng = np.random.default_rng(70 + m)
        z = rng.normal(size=(16, m)) * rng.uniform(0.01, 100.0, size=(16, 1))
        rows = LiftedSet("subspace", z, z.shape[0], 1.0).rows
        assert np.array_equal(rows, z)
        idx = np.array([rng.choice(16, size=m - 1, replace=False) for _ in range(50)])
        _, s, vh = np.linalg.svd(z[idx])
        h, degen = _batched_normals(rows[idx])
        assert np.array_equal(h, vh[:, -1, :])
        assert np.array_equal(degen, (s[:, 0] <= 0.0) | (s[:, -1] <= m * _EPS * s[:, 0]))


class TestClassify:
    def test_seed_points_classify_to_zero(self):
        rng = np.random.default_rng(8)
        data = small_regression(rng)
        z = sf.lift_regression(data, sf.LossSpec(1, 0.5))
        hp = sf.hyperplane_through(z, [2, 7])
        q = sf.classify(z, hp.normal)
        assert q[2] == 0 and q[7] == 0

    def test_worked_inlier_example(self):
        # w = 0 classifies (x=1, y=0.5) as an inlier at eps = 1
        data = sf.RegressionDataset(np.array([[1.0]]), np.array([0.5]))
        z = sf.lift_regression(data, sf.LossSpec(0, 1.0))
        q = sf.classify(z, np.array([1.0, 0.0]))
        assert q.tolist() == [-1, -1]

    def test_paired_sign_rule_matches_direct_inliers(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = int(rng.integers(5, 20))
            d = int(rng.integers(1, 4))
            data = sf.RegressionDataset(rng.normal(size=(n, d)) * 2, rng.normal(size=n) * 2)
            w = rng.normal(size=d)
            spec = sf.LossSpec(0, float(rng.uniform(0.2, 1.5)))
            z = sf.lift_regression(data, spec)
            q = sf.classify(z, np.concatenate([[1.0], w]))
            if np.any(q == 0):  # boundary coincidence, excluded by contract
                continue
            via_signs = sf.inliers_from_signs(q, "regression")
            direct = sf.regression_inliers(data, sf.RegressionModel(w), spec)
            assert np.array_equal(via_signs, direct)

    def test_rejects_zero_normal(self):
        data = small_regression(np.random.default_rng(0))
        z = sf.lift_regression(data, sf.LossSpec(0, 0.3))
        with pytest.raises(ValueError):
            sf.classify(z, np.zeros(3))


def _signs(below, on):
    return np.where(on, 0, np.where(below, -1, 1)).astype(np.int8)


class TestSharedClassification:
    """The public helpers equal the blocks the searches classify, bit for bit."""

    def _recorded_blocks(self, monkeypatch, search_cls, solve):
        # (seeds, oriented normals, below, on) of every block process_chunk classifies
        blocks, current = [], []
        chunk, classify_block = search_cls.process_chunk, exact._classify

        def record_chunk(self, subsets):
            current[:] = [subsets]
            return chunk(self, subsets)

        def record_classify(zset, h, ws=None):
            # the masks are views of the search's workspace, which the next block reuses
            below, on = classify_block(zset, h, ws)
            blocks.append((current[0], h.copy(), below.copy(), on.copy()))
            return below, on

        monkeypatch.setattr(search_cls, "process_chunk", record_chunk)
        monkeypatch.setattr(exact, "_classify", record_classify)
        solve()
        return blocks

    def _check(self, zset, blocks):
        checked = 0
        for subsets, h, below, on in blocks:
            for i, seed in enumerate(subsets):
                hp = sf.hyperplane_through(zset, seed)
                if hp is None:
                    continue
                assert np.array_equal(hp.normal, h[i]), seed
                assert np.array_equal(hp.onset, np.flatnonzero(on[i])), seed
                assert np.array_equal(sf.classify(zset, hp.normal), _signs(below[i], on[i])), seed
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_regression_helpers_match_the_search_blocks(self, monkeypatch, d):
        rng = np.random.default_rng(30 + d)
        data = small_regression(rng, n=9, d=d)
        spec = sf.LossSpec(2, 0.7)
        blocks = self._recorded_blocks(
            monkeypatch, exact._RegressionSearch, lambda: sf.exact_regression(data, spec)
        )
        self._check(sf.lift_regression(data, spec), blocks)

    @pytest.mark.parametrize("d", [2, 3])
    def test_subspace_helpers_match_the_search_blocks(self, monkeypatch, d):
        rng = np.random.default_rng(40 + d)
        data = sf.PointDataset(rng.normal(size=(9, d)), 1)
        spec = sf.LossSpec(2, 0.5)
        blocks = self._recorded_blocks(
            monkeypatch, exact._SubspaceSearch, lambda: sf.exact_subspace(data, spec)
        )
        self._check(sf.lift_subspace(data, spec), blocks)

    def test_paired_copy_seed_has_zero_first_coordinate(self):
        # at d = 2 the two copies of point i span e_0, so the normal through
        # them has h[0] == 0 exactly; the orientation rule leaves it as is and
        # the search skips every such seed
        rng = np.random.default_rng(50)
        data = small_regression(rng, n=8, d=2)
        spec = sf.LossSpec(2, 0.6)
        z = sf.lift_regression(data, spec)
        for i in range(data.n):
            assert sf.hyperplane_through(z, (i, i + data.n)).normal[0] == 0.0
        assert sf.exact_regression(data, spec).seeds_skipped == data.n


class TestInliersFromSigns:
    def test_all_negative_is_full_set(self):
        q = -np.ones(10, dtype=np.int8)
        assert sf.inliers_from_signs(q, "regression").tolist() == [0, 1, 2, 3, 4]

    def test_all_positive_is_empty(self):
        q = np.ones(10, dtype=np.int8)
        assert sf.inliers_from_signs(q, "regression").size == 0

    def test_mixed_matches_set_builder(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            q = rng.choice([-1, 1], size=2 * n).astype(np.int8)
            got = sf.inliers_from_signs(q, "regression").tolist()
            want = [i for i in range(n) if q[i] == -1 and q[i + n] == -1]
            assert got == want

    def test_subspace_orientation(self):
        q = np.array([-1, 1, -1, 1], dtype=np.int8)
        assert sf.inliers_from_signs(q, "subspace", orientation=-1).tolist() == [0, 2]
        assert sf.inliers_from_signs(q, "subspace", orientation=1).tolist() == [1, 3]

    def test_zero_is_contract_violation(self):
        q = np.array([-1, 0], dtype=np.int8)
        with pytest.raises(ValueError):
            sf.inliers_from_signs(q, "regression")

    def test_subspace_needs_orientation(self):
        q = -np.ones(4, dtype=np.int8)
        with pytest.raises(ValueError):
            sf.inliers_from_signs(q, "subspace")


def test_on_hyperplane_tolerance_is_relative():
    # the same absolute margin is "on" for a faraway point but a clean sign
    # for a nearby one
    data = sf.PointDataset(np.array([[1.0, 0.0], [1e4, 0.0], [0.0, 1.0]]), 1)
    spec = sf.LossSpec(2, 1.0)
    z = sf.lift_subspace(data, spec)
    margin = 0.5 * ON_HYPERPLANE_TOL * z.scales[1]
    h = np.zeros(4)
    h[2] = 1.0  # picks out the x1*x2 monomial, zero for all three points
    h[0] = margin / (z.z[:, 0][0])  # adds margin/z0 * (-eps^2) = margin at every point
    q = sf.classify(z, h)
    assert q[1] == 0  # within relative tolerance for the large-scale point
    assert q[0] != 0  # but a definite sign for the small one
