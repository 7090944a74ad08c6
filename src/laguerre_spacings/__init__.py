"""Zeros of generalized Laguerre polynomials and their spacing bounds.

The package computes all zeros of L_n^(alpha) for degrees 1 <= n <= 2**14
and alpha > -1 via an in-repo symmetric tridiagonal eigensolver plus Newton
certification, checks the pairwise inverse-square identity satisfied at
every zero, evaluates the closed-form spacing and extreme-zero bounds, and
reproduces the spacing-versus-bound sweep data through a small CLI.
"""

from .bessel import (
    BesselZeroTable,
    GapFactsReport,
    LimitProbe,
    bessel_zero,
    bessel_zero_table,
    gap_facts,
    limit_probe,
)
from .bethe import (
    IdentityCheck,
    verify_identity,
)
from .bounds import (
    BoundSet,
    EdgeParams,
    bound_set,
    delta,
    delta_extremum,
    edge_params,
    krasikov_window,
    uniform_spacing_lower,
)
from .errors import (
    ConvergenceError,
    DomainError,
    ParameterError,
    RefinementError,
)
from .laguerre import (
    LaguerreParams,
    laguerre_polynomial,
)
from .report import (
    SpacingTable,
    SweepConfig,
    bulk_stats,
    figure1,
    parse_sweep_config,
    run_sweep,
    spacing_rows,
)
from .solver import (
    JacobiMatrix,
    ZeroSet,
    build_jacobi,
    eigen_zeros,
    refine,
    zeros,
)

__version__ = "0.1.0"
