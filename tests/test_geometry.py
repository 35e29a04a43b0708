from fractions import Fraction
from functools import reduce

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
    _classify,
    _laplace_tables,
    _normal_rows,
    _norms,
    _orient,
    _seed_columns,
    _Workspace,
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
        # rows i and i + n are the two copies of point i
        assert np.array_equal(z.z[: data.n, 1:], -data.x) and np.array_equal(z.z[data.n :, 1:], data.x)

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


def _seed_last(rows):
    # a seed-major stack of prepared rows (B, m-1, m) as the seed-last rows
    # (m, m-1, B) and row norms (m-1, B) that _batched_normals takes
    a = np.ascontiguousarray(rows.transpose(2, 1, 0))
    return a, _norms(a)


class TestBatchedNormals:
    @pytest.mark.parametrize("m", _DIMS)
    def test_agrees_with_the_svd_null_vector(self, m):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(500, m - 1, m)) * rng.uniform(0.01, 100.0, size=(500, m - 1, 1))
        h, degen = _batched_normals(*_seed_last(_normal_rows(a)))
        assert not degen.any()
        svd_h = np.linalg.svd(a)[2][:, -1, :].T.copy()
        _orient(h)
        _orient(svd_h)
        assert np.allclose(h, svd_h, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("m", _DIMS)
    def test_unit_norm_and_orthogonal_to_the_rows(self, m):
        rng = np.random.default_rng(18)
        a = rng.normal(size=(500, m - 1, m)) * rng.uniform(0.01, 100.0, size=(500, m - 1, 1))
        h, _ = _batched_normals(*_seed_last(_normal_rows(a)))
        assert np.allclose(np.linalg.norm(h, axis=0), 1.0, rtol=0, atol=1e-12)
        margins = np.abs(np.einsum("bij,jb->bi", a, h))
        assert np.all(margins <= 1e-12 * np.linalg.norm(a, axis=2))

    @pytest.mark.parametrize(
        "m, case", [(m, case) for m in _DIMS for case in sorted(_degenerate_seeds(m))]
    )
    def test_rank_deficient_seeds_are_degenerate(self, m, case):
        a = _degenerate_seeds(m)[case]
        assert _batched_normals(*_seed_last(_normal_rows(a[None])))[1][0]
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
        h, degen = _batched_normals(*_seed_last(_normal_rows(a)))
        hs, degens = _batched_normals(*_seed_last(_normal_rows(a * scale)))
        assert np.all(np.isfinite(hs))
        assert np.array_equal(degen, degens)
        assert degen.sum() == len(degenerate)
        # the SVD (m >= 10) returns an arbitrary vector of a null space of
        # dimension > 1, and rescales extreme inputs by a rounded factor
        keep = ~degen if m > _MAX_MINORS_DIM else slice(None)
        atol = 1e-14 if m <= _MAX_MINORS_DIM else 1e-13
        assert np.allclose(hs[:, keep], h[:, keep], rtol=0, atol=atol)

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
                h, degen = _batched_normals(*_seed_last(_normal_rows(_edge_seed(m, s)[None] * scale)))
                assert degen[0] == expected, (s, scale)
        edge = _edge_seed(m, np.nextafter(bound, 1.0))[None]
        h, _ = _batched_normals(*_seed_last(_normal_rows(edge)))
        assert np.array_equal(np.abs(h[:, 0]), np.eye(m)[-1])

    @pytest.mark.parametrize("m", _DIMS)
    def test_one_seed_calls_match_the_batch_bit_for_bit(self, m):
        # hyperplane_through, the one-seed entry point, returns the normal the
        # searches compute in their blocks, from the minors (m <= 9) and from
        # the SVD (m >= 10) alike
        rng = np.random.default_rng(20)
        a = rng.normal(size=(300, m - 1, m))
        h, degen = _batched_normals(*_seed_last(_normal_rows(a)))
        _orient(h)
        assert not degen.any()
        for i in range(a.shape[0]):
            normal = sf.hyperplane_through(_seed_set(a[i]), range(m - 1)).normal
            assert np.array_equal(normal, h[:, i]), (m, i)

    def test_two_row_normals_are_the_cross_product(self):
        # exact power-of-two row scaling leaves the d = 2 normals bit-identical
        # to the normalized np.cross, the cross-product rule unchanged
        rng = np.random.default_rng(23)
        a = rng.normal(size=(500, 2, 3)) * rng.uniform(0.01, 100.0, size=(500, 2, 1))
        h, degen = _batched_normals(*_seed_last(_normal_rows(a)))
        cross = np.cross(a[:, 0], a[:, 1])
        assert not degen.any()
        assert np.array_equal(h.T, cross / np.linalg.norm(cross, axis=1)[:, None])


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
        "dependent": -4.0 * plain,  # exact multiples: a seed holding both rows is degenerate
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
        columns, norms = _seed_columns(z)
        h, degen = _batched_normals(columns[:, idx.T], norms[idx.T])
        h_ref, degen_ref = _batched_normals(*_seed_last(scaled))
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
            assert zset.columns.flags.c_contiguous
            assert np.array_equal(zset.columns.T, _normal_rows(zset.z))
            assert np.array_equal(zset.columns.T, _per_seed_scaled(zset.z[None])[0])
            # each point's norm, its squares added first to last
            sq = np.zeros(zset.size)
            for c in range(zset.dim):
                sq += zset.columns[c] ** 2
            assert np.array_equal(zset.norms, np.sqrt(sq))

    @pytest.mark.parametrize("m", [_MAX_MINORS_DIM + 1, _MAX_MINORS_DIM + 2])
    def test_svd_dimensions_take_raw_rows(self, m):
        rng = np.random.default_rng(70 + m)
        z = rng.normal(size=(16, m)) * rng.uniform(0.01, 100.0, size=(16, 1))
        zset = LiftedSet("subspace", z, z.shape[0], 1.0)
        assert np.array_equal(zset.columns.T, z)
        idx = np.array([rng.choice(16, size=m - 1, replace=False) for _ in range(50)])
        _, s, vh = np.linalg.svd(z[idx])
        h, degen = _batched_normals(zset.columns[:, idx.T], zset.norms[idx.T])
        assert np.array_equal(h, vh[:, -1, :].T)
        assert np.array_equal(degen, (s[:, 0] <= 0.0) | (s[:, -1] <= m * _EPS * s[:, 0]))


def _seed_major_normals(a):
    # _batched_normals as it ran before the pipeline went seed-last: prepared
    # seed rows (B, m-1, m) in, normals (B, m) out, the degeneracy rule on
    # the norms of the gathered rows (squares added first to last)
    def norms(v):
        sq = v[..., 0] * v[..., 0]
        for c in range(1, v.shape[-1]):
            sq += v[..., c] * v[..., c]
        return np.sqrt(sq)

    k, m = a.shape[1:]
    minors = a[:, -1]
    for r, (cols, rest) in zip(range(k - 2, -1, -1), _laplace_tables(m)):
        terms = a[:, r][:, cols] * minors[:, rest]
        minors = terms[..., 0].copy()
        for p in range(1, cols.shape[1]):
            (np.subtract if p % 2 else np.add)(minors, terms[..., p], out=minors)
    h = minors[:, ::-1] * (-1.0) ** np.arange(m)
    h_norms = norms(h)
    degen = h_norms <= reduce(np.multiply, norms(a).T, m * _EPS)
    h /= np.where(degen, 1.0, h_norms)[:, None]
    return h, degen


def _seed_major_masks(zset, h):
    # the (below, on) masks (B, size) of normals h (B, m) by the margin
    # formula _classify used before the pipeline went seed-last
    head = zset.z[: zset.n_points] if zset.kind == "regression" else zset.z
    g = h @ np.ascontiguousarray(head.T)
    if zset.kind == "regression":
        g = np.concatenate([g, -g - 2.0 * zset.epsilon * h[:, :1]], axis=1)
    return g < -zset.tol, np.abs(g) <= zset.tol


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


class TestSeedLastReference:
    """The seed-last pipeline equals the seed-major one it replaced, bit for bit."""

    @pytest.mark.parametrize("m", _MINORS_DIMS)
    @pytest.mark.parametrize("kind", ["random", "integer", "huge", "tiny", "dependent"])
    @pytest.mark.parametrize("blocks", [1, 7, 2048])
    def test_normals_match_the_seed_major_routine(self, m, kind, blocks):
        rng = np.random.default_rng(80 + m)
        z = _point_rows(m, kind, rng)
        idx = np.argsort(rng.random((blocks, 16)), axis=1)[:, : m - 1]  # distinct rows per seed
        columns, norms = _seed_columns(z)
        h, degen = _batched_normals(columns[:, idx.T], norms[idx.T], _Workspace())
        h_ref, degen_ref = _seed_major_normals(_normal_rows(z)[idx])
        assert np.array_equal(_bits(h.T), _bits(h_ref))
        assert np.array_equal(degen, degen_ref)
        if kind == "dependent":
            assert degen.any() or m == 2 or blocks < 2048  # seeds holding a row and its multiple
            stacks = np.array(list(_degenerate_seeds(m).values()))
            h, degen = _batched_normals(*_seed_last(_normal_rows(stacks)))
            h_ref, degen_ref = _seed_major_normals(_normal_rows(stacks))
            assert np.array_equal(_bits(h.T), _bits(h_ref)) and degen.all() and degen_ref.all()

    @pytest.mark.parametrize("kind", ["regression", "subspace"])
    @pytest.mark.parametrize("full", [False, True])
    def test_classify_matches_the_seed_major_formula(self, kind, full):
        rng = np.random.default_rng(90)
        if kind == "regression":
            zset = sf.lift_regression(small_regression(rng, n=60, d=3), sf.LossSpec(2, 0.7))
            block = exact._RegressionSearch.seed_block
        else:
            zset = sf.lift_subspace(sf.PointDataset(rng.normal(size=(12, 3)), 1), sf.LossSpec(2, 0.5))
            block = exact._SubspaceSearch.seed_block
        seeds = exact._combination_block(zset.size, zset.dim - 1, 0, block if full else 1)
        h, degen = _batched_normals(zset.columns[:, seeds], zset.norms[seeds])
        _orient(h)
        below, closed = _classify(zset, h)
        assert below.shape == closed.shape == (zset.size, seeds.shape[1])
        below_ref, on_ref = _seed_major_masks(zset, h.T)
        assert np.array_equal(below, below_ref.T)
        assert np.array_equal(closed, (below_ref | on_ref).T)
        assert np.array_equal(closed & ~below, on_ref.T)
        assert on_ref[~degen].any(axis=1).all()  # a seed's own points are on its hyperplane


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
        # (seeds, oriented normals, below, closed) of every block process_chunk classifies
        blocks, current = [], []
        chunk, classify_block = search_cls.process_chunk, exact._classify

        def record_chunk(self, subsets):
            current[:] = [subsets]
            return chunk(self, subsets)

        def record_classify(zset, h, ws=None):
            # the masks are views of the search's workspace, which the next block reuses
            below, closed = classify_block(zset, h, ws)
            blocks.append((current[0], h.copy(), below.copy(), closed.copy()))
            return below, closed

        monkeypatch.setattr(search_cls, "process_chunk", record_chunk)
        monkeypatch.setattr(exact, "_classify", record_classify)
        solve()
        return blocks

    def _check(self, zset, blocks):
        checked = 0
        for subsets, h, below, closed in blocks:
            for i, seed in enumerate(subsets.T):
                hp = sf.hyperplane_through(zset, seed)
                if hp is None:
                    continue
                on = closed[:, i] & ~below[:, i]
                assert np.array_equal(hp.normal, h[:, i]), seed
                assert np.array_equal(hp.onset, np.flatnonzero(on)), seed
                assert np.array_equal(sf.classify(zset, hp.normal), _signs(below[:, i], on)), seed
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


_TOL = ON_HYPERPLANE_TOL
# margins at the edges of the closed on-band |margin| <= tol, for a point
# whose tolerance is tol itself (||z|| <= 1), and how each classifies
_EDGES = {
    -np.nextafter(_TOL, 1.0): "below",
    -_TOL: "on",
    -np.nextafter(_TOL, 0.0): "on",
    np.nextafter(_TOL, 0.0): "on",
    _TOL: "on",
    np.nextafter(_TOL, 1.0): "above",
}


def _near(x, steps=4):
    # x, then its neighbours up to ``steps`` ulps away, nearest first
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def _inexact(a, b):
    return Fraction(a) + Fraction(b) != Fraction(a + b)


def _edge_instance(eps, copies, rounding=False):
    """Regression data (d = 1) whose lifted copies sit at the given margins of the normal e_0.

    ``copies`` lists (copy, margin) pairs: the tested points have x = 0, so
    ||z|| <= 1 and their tolerance is ``ON_HYPERPLANE_TOL`` itself; copy 1's
    margin is fl(y - eps), copy 2's -fl(fl(y - eps) + 2 eps), which with
    ``rounding`` is reached by a sum that rounds.  Point 0, at (1, eps), is
    the seed whose normal is e_0.  Returns the data and the margins of every
    lifted point, copy 2's by the formula -g - 2 eps.
    """
    ys = [eps]
    for copy, margin in copies:
        g = margin
        if copy == 2:
            sums = (g for g in _near(-margin - 2.0 * eps) if g + 2.0 * eps == -margin)
            g = next((g for g in sums if not rounding or _inexact(g, 2.0 * eps)), None)
        y = next((y for y in _near(g + eps) if y - eps == g), None)
        assert g is not None and y is not None, (copy, margin)
        ys.append(y)
    y = np.array(ys)
    x = np.zeros((y.size, 1))
    x[0] = 1.0
    g = y - eps
    return sf.RegressionDataset(x, y), np.concatenate([g, -g - 2.0 * eps])


def _search_counts(data, spec, base, n0):
    """Whether the regression search counts ``base`` and ``n0`` for its one-seed block [0].

    n0 is the onset counter; base is read off the block-start bound
    eps^p (n - base - n0) >= J, which at p = 0 with J = n - n0 - b + o
    skips the seed exactly when base <= b - o: base == b when o = -1/2 skips
    it and o = +1/2 does not.  The completion step is stubbed out.
    """
    skipped = []
    for offset in (-0.5, 0.5):
        search = exact._RegressionSearch(data, spec)
        search.j = data.n - n0 - base + offset
        search._handle_seed = lambda *run: None
        search.process_chunk(np.zeros((1, 1), dtype=np.intp))
        assert search.stats.max_onset_size == n0
        skipped.append(search.stats.inner_loops_skipped == 1)
    return skipped == [True, False]


class TestToleranceEdge:
    """Margins of exactly +-tol, and one ulp inside and outside, classify by |margin| <= tol."""

    @pytest.mark.parametrize(
        "eps, copies, rounding, rounded",
        [
            # every edge on each lifted copy of a regression point
            (2.0**-32, [(c, v) for c in (1, 2) for v in _EDGES], False, 0),
            # the below edges, the other copy below: base counts the point
            # once it leaves the band
            (1.2e-9, [(c, v) for c in (1, 2) for v in list(_EDGES)[:3]], False, 0),
            # the same on copy 1, where fl(g + 2 eps) of copy 2 rounds
            (1.6e-9, [(1, v) for v in list(_EDGES)[:3]], False, 1),
            # copy 2 at the edges reached by a sum that rounds (+tol would
            # take a tie, which rounds to even)
            (2.9e-10, [(2, v) for v in _EDGES if v != _TOL], True, 5),
        ],
    )
    def test_regression_copies(self, eps, copies, rounding, rounded):
        data, margins = _edge_instance(eps, copies, rounding)
        spec = sf.LossSpec(0, eps)
        zset = sf.lift_regression(data, spec)
        n = data.n
        assert np.array_equal(zset.tol, np.full(2 * n, _TOL))
        rows = [(copy - 1) * n + 1 + i for i, (copy, _) in enumerate(copies)]
        assert margins[rows].tolist() == [v for _, v in copies]
        below, on = margins < -_TOL, np.abs(margins) <= _TOL
        assert [("below" if b else "on" if o else "above") for b, o in zip(below[rows], on[rows])] == [
            _EDGES[v] for _, v in copies
        ]
        # copy 2's margin is tested as -fl(g + 2 eps), the same bits as fl(-g - 2 eps)
        g = margins[:n]
        assert np.array_equal(_bits(-(g + 2.0 * eps)), _bits(margins[n:]))
        assert sum(_inexact(a, 2.0 * eps) for a in g[1:]) >= rounded
        e0 = np.array([1.0, 0.0])
        # the lifted classification itself
        got_below, got_closed = _classify(zset, e0[:, None])
        assert np.array_equal(got_below[:, 0], below)
        assert np.array_equal(got_closed[:, 0], below | on)
        # the public helpers
        assert np.array_equal(_bits(sf.signed_values(zset, e0)), _bits(margins))
        assert np.array_equal(sf.classify(zset, e0), _signs(below, on))
        hp = sf.hyperplane_through(zset, [0])
        assert np.array_equal(_bits(hp.normal), _bits(e0))
        assert np.array_equal(hp.onset, np.flatnonzero(on))
        # the search's counts of the same seed
        base = int(np.count_nonzero(below[:n] & below[n:]))
        assert _search_counts(data, spec, base, int(np.count_nonzero(on)))
        if eps == 1.2e-9:
            assert base == 2  # the points one ulp below the band, copy 1 and copy 2

    def test_subspace_point(self):
        # lifted points at every edge of the normal e_0, and a seed through the other axes
        edges = list(_EDGES)
        z = np.zeros((len(edges) + 3, 4))
        z[: len(edges), 0] = edges
        z[len(edges) :, 1:] = np.eye(3)
        zset = LiftedSet("subspace", z, z.shape[0], 0.5)
        assert np.array_equal(zset.tol, np.full(z.shape[0], _TOL))
        margins = z[:, 0]
        below, on = margins < -_TOL, np.abs(margins) <= _TOL
        e0 = np.eye(4)[0]
        got_below, got_closed = _classify(zset, e0[:, None])
        assert np.array_equal(got_below[:, 0], below)
        assert np.array_equal(got_closed[:, 0], below | on)
        signs = sf.classify(zset, e0)
        assert np.array_equal(signs, _signs(below, on))
        assert signs[: len(edges)].tolist() == [{"below": -1, "on": 0, "above": 1}[_EDGES[v]] for v in edges]
        hp = sf.hyperplane_through(zset, range(len(edges), z.shape[0]))
        assert np.array_equal(_bits(np.abs(hp.normal)), _bits(e0))
        assert np.array_equal(hp.onset, np.flatnonzero(on))


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
    margin = 0.5 * z.tol[1]  # ON_HYPERPLANE_TOL times the point's scale, max(1, |z|)
    h = np.zeros(4)
    h[2] = 1.0  # picks out the x1*x2 monomial, zero for all three points
    h[0] = margin / (z.z[:, 0][0])  # adds margin/z0 * (-eps^2) = margin at every point
    q = sf.classify(z, h)
    assert q[1] == 0  # within relative tolerance for the large-scale point
    assert q[0] != 0  # but a definite sign for the small one
