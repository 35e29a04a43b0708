"""Domain types and saturated-loss objectives for robust linear estimation.

The loss of an error value ``e`` is ``min(|e|, epsilon) ** p`` for p in
{1, 2} and the indicator of ``|e| > epsilon`` for p = 0.  The inliers are
its zero set, ``|e| <= epsilon``: :func:`_within`, the one test that the
loss, the inlier lists and every solver's inlier count use.  The solvers
count the set entries of their boolean blocks with :func:`_counts`.

All indices in this package are 0-based.  The command line layer converts to
1-based indices when writing report files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidModelError",
    "LossSpec",
    "RegressionDataset",
    "PointDataset",
    "RegressionModel",
    "SubspaceModel",
    "loss",
    "regression_residuals",
    "regression_inliers",
    "regression_objective",
    "subspace_residuals",
    "subspace_inliers",
    "subspace_objective",
]

# Orthonormality defect beyond which a subspace model is rejected by the
# evaluation routines.
ORTHONORMALITY_TOL = 1e-8


class InvalidModelError(ValueError):
    """A model violates a structural requirement (e.g. non-orthonormal basis)."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LossSpec:
    """Saturated-loss parameters.

    Attributes
    ----------
    p : int
        Loss exponent, one of 0, 1, 2.
    epsilon : float
        Saturation threshold, strictly positive, in the same units as the
        error being penalized.
    """

    p: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.p not in (0, 1, 2):
            raise ValueError(f"p must be one of 0, 1, 2, got {self.p!r}")
        eps = float(self.epsilon)
        if not np.isfinite(eps) or eps <= 0.0:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", eps)

    @property
    def saturation(self) -> float:
        """Loss value reached at and beyond the threshold (``epsilon ** p``)."""
        return self.epsilon**self.p


@dataclass(frozen=True)
class RegressionDataset:
    """Regression sample: inputs ``x`` of shape (n, d), targets ``y`` of shape (n,)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        y = np.asarray(self.y, dtype=float).ravel()
        if x.ndim != 2:
            raise ValueError("x must be a 2-d array of row vectors")
        n, d = x.shape
        if y.shape != (n,):
            raise ValueError(f"y has shape {y.shape}, expected ({n},)")
        if d < 1 or n < d:
            raise ValueError(f"need n >= d >= 1, got n={n}, d={d}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("data must be finite")
        object.__setattr__(self, "x", _readonly(x.copy()))
        object.__setattr__(self, "y", _readonly(y.copy()))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class PointDataset:
    """Point cloud for subspace estimation.

    ``subspace_dim`` is the target dimension of the fitted subspace.  The
    sample must contain at least ``d * (d + 1) / 2`` points, the ambient
    dimension of the quadratic embedding used by the exact solver.
    """

    x: np.ndarray
    subspace_dim: int

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d array of row vectors")
        n, d = x.shape
        ds = int(self.subspace_dim)
        if not 1 <= ds < d:
            raise ValueError(f"need 1 <= subspace_dim < d, got subspace_dim={ds}, d={d}")
        if n < d * (d + 1) // 2:
            raise ValueError(f"need n >= d(d+1)/2 = {d * (d + 1) // 2} points, got {n}")
        if not np.all(np.isfinite(x)):
            raise ValueError("data must be finite")
        object.__setattr__(self, "x", _readonly(x.copy()))
        object.__setattr__(self, "subspace_dim", ds)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def lifted_dim(self) -> int:
        """Number of degree-2 monomials in d variables, d(d+1)/2."""
        d = self.d
        return d * (d + 1) // 2


@dataclass(frozen=True)
class RegressionModel:
    """Linear model ``x -> w @ x``."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float).ravel()
        if w.size < 1 or not np.all(np.isfinite(w)):
            raise ValueError("w must be a nonempty finite vector")
        object.__setattr__(self, "w", _readonly(w.copy()))

    @property
    def d(self) -> int:
        return self.w.shape[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.w


@dataclass(frozen=True)
class SubspaceModel:
    """Subspace spanned by the orthonormal columns of ``basis`` (d x ds)."""

    basis: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if b.ndim != 2 or b.shape[0] < b.shape[1] or b.shape[1] < 1:
            raise ValueError(f"basis must be a tall d x ds matrix, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("basis must be finite")
        object.__setattr__(self, "basis", _readonly(b.copy()))

    @property
    def d(self) -> int:
        return self.basis.shape[0]

    @property
    def subspace_dim(self) -> int:
        return self.basis.shape[1]

    def orthonormality_defect(self) -> float:
        """Largest absolute entry of ``basis.T @ basis - I``."""
        g = self.basis.T @ self.basis
        return float(np.max(np.abs(g - np.eye(self.subspace_dim))))


def _within(spec: LossSpec, e) -> np.ndarray:
    """Inlier mask ``|e| <= epsilon``: the points of zero p = 0 loss."""
    return np.abs(e) <= spec.epsilon


def _counts(mask: np.ndarray, axis: int) -> np.ndarray:
    """The set entries of a 2-D boolean block along ``axis``, as int32 byte sums.

    About twice as fast as ``np.count_nonzero`` on search-sized blocks; the
    int32 accumulator cannot wrap below 2**31 entries.  The searches count
    their point-major (size, B) blocks over axis 0, one count per seed.
    """
    return np.add.reduce(mask.view(np.uint8), axis=axis, dtype=np.int32)


def loss(spec: LossSpec, e) -> float | np.ndarray:
    """Saturated loss of an error value (elementwise over arrays).

    For p = 0 this is 1 off the inliers of :func:`_within`, the indicator of
    ``|e| > epsilon`` on finite input (0 at ``|e| == epsilon``).  For p in
    {1, 2} the loss is ``min(|e|, epsilon) ** p``, in [0, epsilon ** p].
    """
    e = np.asarray(e, dtype=float)
    if spec.p == 0:
        out = (~_within(spec, e)).astype(float)
    elif spec.p == 1:
        out = np.minimum(np.abs(e), spec.epsilon)
    else:
        out = np.minimum(np.abs(e), spec.epsilon) ** 2
    return out if out.ndim else float(out)


def _check_regression_dims(data: RegressionDataset, model: RegressionModel) -> None:
    if model.d != data.d:
        raise ValueError(f"model has {model.d} coefficients, data has d={data.d}")


def regression_residuals(data: RegressionDataset, model: RegressionModel) -> np.ndarray:
    """Signed errors ``y_i - w @ x_i``."""
    _check_regression_dims(data, model)
    return data.y - data.x @ model.w


def regression_inliers(
    data: RegressionDataset, model: RegressionModel, spec: LossSpec
) -> np.ndarray:
    """Indices of points with ``|y_i - w @ x_i| <= epsilon``, sorted."""
    return np.flatnonzero(_within(spec, regression_residuals(data, model)))


def regression_objective(
    data: RegressionDataset, model: RegressionModel, spec: LossSpec
) -> float:
    """Total saturated loss of the model over the dataset.

    Equals the count of outliers for p = 0, and the sum of inlier losses plus
    ``epsilon ** p`` per outlier for p in {1, 2}.
    """
    return float(np.sum(loss(spec, regression_residuals(data, model))))


def _check_subspace_model(data: PointDataset, model: SubspaceModel) -> None:
    if model.d != data.d:
        raise ValueError(f"basis has {model.d} rows, data has d={data.d}")
    defect = model.orthonormality_defect()
    if defect > ORTHONORMALITY_TOL:
        raise InvalidModelError(
            f"basis is not orthonormal (defect {defect:.3e} > {ORTHONORMALITY_TOL:.0e})"
        )


def _projection_residuals(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Row distances ``||x_i - B B^T x_i||``, unchecked; ``basis`` must be C-contiguous.

    ``basis`` is one (d, ds) basis, giving (n,) distances, or a stack of
    them, (B, d, ds), giving (B, n); each row of a stack equals the one-basis
    call bit for bit.  The exact subspace search scores its candidate bases
    with this, so its objectives equal :func:`subspace_objective` bit for bit.
    """
    proj = (x @ basis) @ np.swapaxes(basis, -1, -2)
    return np.linalg.norm(x - proj, axis=-1)


def subspace_residuals(data: PointDataset, model: SubspaceModel) -> np.ndarray:
    """Distances ``||x_i - B B^T x_i||`` from each point to the subspace."""
    _check_subspace_model(data, model)
    return _projection_residuals(data.x, model.basis)


def subspace_inliers(
    data: PointDataset, model: SubspaceModel, spec: LossSpec
) -> np.ndarray:
    """Indices of points at distance ``<= epsilon`` from the subspace, sorted."""
    return np.flatnonzero(_within(spec, subspace_residuals(data, model)))


def subspace_objective(
    data: PointDataset, model: SubspaceModel, spec: LossSpec
) -> float:
    """Total saturated loss of the projection residual norms."""
    return float(np.sum(loss(spec, subspace_residuals(data, model))))
