"""Robust linear regression and subspace estimation by saturated-loss minimization.

Exact solvers enumerate candidate linear classifications of a lifted point
set (polynomial in the number of points for fixed dimension); sampling
variants trade exhaustiveness for speed, and a brute-force oracle certifies
the exact solvers on small instances.
"""

from types import ModuleType as _Module

from .core import (
    InvalidModelError,
    LossSpec,
    PointDataset,
    RegressionDataset,
    RegressionModel,
    SubspaceModel,
    loss,
    regression_inliers,
    regression_objective,
    regression_residuals,
    subspace_inliers,
    subspace_objective,
    subspace_residuals,
)
from .exact import (
    NoHyperplaneError,
    SolveReport,
    approx_regression_p0,
    exact_regression,
    exact_subspace,
    seed_enumerator,
)
from .experiments import (
    BenchRow,
    BudgetExceededError,
    GeneratorConfig,
    SubspaceGeneratorConfig,
    SummaryRow,
    generate_regression,
    generate_subspace,
    rows_to_csv,
    run_sweep,
    summarize,
)
from .geometry import (
    Hyperplane,
    LiftedSet,
    classify,
    hyperplane_through,
    inliers_from_signs,
    lift_regression,
    lift_subspace,
    selection_vector,
    signed_values,
    subspace_normal,
    veronese,
)
from .oracle import OracleResult, oracle_regression, oracle_subspace
from .sampling import SamplingConfig, ransac_regression, sampled_regression, sampled_subspace
from .subsolvers import (
    SolverFailure,
    solve_lad,
    solve_least_squares,
    solve_minimax,
    solve_subspace_p2,
)

__version__ = "0.1.0"

# The public API is every name imported above.
__all__ = [k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _Module)]
