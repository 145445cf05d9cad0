"""Interval eigenpairs of sparse symmetric matrices by moment filtering.

The solver finds every eigenpair in a target interval [a, b] by restarted
subspace iteration on damped-Chebyshev moment blocks; a contour-integral
moment baseline is included for cost comparison, and a diagnostics layer
checks the method's error bounds numerically.
"""

from .contour import (
    QuadratureRule,
    ShiftedSolveStats,
    rational_filter_value,
    run_baseline,
    shifted_krylov_solve,
    trapezoid_rule,
)
from .dense import (
    SymEig,
    condition_number,
    dense_sym_eig,
    numerical_rank,
)
from .diagnostics import (
    BoundReport,
    ProbeRow,
    SpectrumModel,
    cheb_t,
    convergence_factor_bound,
    error_at_eigenvalue_bound,
    filter_probe,
    fit_slope,
    kernel_moments,
    kernel_value,
    markov_constants,
    probe_csv,
    theoretical_degree_bound,
)
from .engine import (
    RitzSet,
    SolveReport,
    check_convergence,
    mv_accounting,
    rayleigh_ritz,
    run_cjssrr,
)
from .errors import (
    BoundUndefinedError,
    EigenspanError,
    HypothesisViolationError,
    IntervalError,
    MalformedFileError,
    MatrixFormatError,
    NonFiniteError,
    NotSymmetricError,
    RecurrenceDivergenceError,
)
from .estimators import (
    CountEstimate,
    DegreeChoice,
    estimate_count,
    recommended_block_size,
    select_degree,
)
from .filters import (
    FilterSpec,
    build_moment_block,
    chebyshev_moments,
    filter_scalar,
    jackson_factors,
    make_filter_spec,
    step_coefficients,
)
from .policy import (
    SolvePlan,
    count_interval,
    plan_interval,
    run_plan,
    solve_interval,
)
from .sparse import (
    MVCounter,
    SparseSymmetric,
    load_matrix_market,
    matvec,
    parse_matrix_market,
    save_matrix_market,
    write_matrix_market,
)
from .transform import (
    MappedOperator,
    SpectralTransform,
    TargetInterval,
    estimate_spectral_range,
    exact_transform,
    make_interval,
    mapped_interval,
)

__version__ = "0.1.0"
