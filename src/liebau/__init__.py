"""Existence certificates and periodic solvers for Liebau-type valveless pumping models.

The package verifies, numerically and with explicit margins, the sufficient
conditions under which a one-pipe one-tank valveless pumping configuration
has a positive periodic regime, and computes those regimes:

* ``funcspec``: closed-form periodic forcing/coefficient functions.
* ``greens``: the positive periodic kernel of x'' + a x' + m^2 x and its
  cone constant.
* ``problem``: the singular pipe-level model, its regularization, and the
  shifted nonlinearity.
* ``certify``: condition checkers producing margin-carrying certificates,
  plus a deterministic parameter search.
* ``solve``: cyclic finite-difference Newton solver with a Newton-Krylov
  polish on the Fourier collocation residual, the truncated integral
  operator, and localization checks.
* ``pump``: pipe-level residuals and the pumping-effect balance.
* ``cli`` / ``acceptance``: command-line front end and the built-in
  regression suite (``liebau verify``).
"""

from .errors import (
    BadPeriod,
    BadRadii,
    ConfigError,
    InapplicableCriterion,
    KappaNonpositive,
    LeftPositiveCone,
    LiebauError,
    MOutOfRange,
    NegativeState,
    NoConvergence,
    NonpositiveLevel,
    PropertyViolation,
)
from .funcspec import PeriodicFunction
from .greens import GreensKernel, apply_kernel, build as build_kernel, m_window, verify_properties
from .problem import (
    GeneralProblem,
    LiebauProblem,
    PhysicalConfig,
    deregularize,
    from_physical,
    regularize,
    shifted_rhs,
    truncated_rhs,
)
from .certify import (
    Certificate,
    CheckOptions,
    Condition,
    SearchOptions,
    check_general,
    check_legacy_criterion,
    check_necessary,
    check_positive_forcing,
    check_sign_changing,
    search_certificate,
)
from .solve import (
    ConeReport,
    GridSolution,
    PicardTrace,
    SolveOptions,
    cone_and_localization,
    fd_residual,
    picard_iterate,
    solve_periodic,
    solve_shifted_linear,
)
from .pump import PumpReport, pump_report, singular_residual, x_to_u

__version__ = "0.1.0"

__all__ = [
    "BadPeriod",
    "BadRadii",
    "Certificate",
    "CheckOptions",
    "Condition",
    "ConeReport",
    "ConfigError",
    "GeneralProblem",
    "GreensKernel",
    "GridSolution",
    "InapplicableCriterion",
    "KappaNonpositive",
    "LeftPositiveCone",
    "LiebauError",
    "LiebauProblem",
    "MOutOfRange",
    "NegativeState",
    "NoConvergence",
    "NonpositiveLevel",
    "PeriodicFunction",
    "PhysicalConfig",
    "PicardTrace",
    "PropertyViolation",
    "PumpReport",
    "SearchOptions",
    "SolveOptions",
    "apply_kernel",
    "build_kernel",
    "check_general",
    "check_legacy_criterion",
    "check_necessary",
    "check_positive_forcing",
    "check_sign_changing",
    "cone_and_localization",
    "deregularize",
    "fd_residual",
    "from_physical",
    "m_window",
    "picard_iterate",
    "pump_report",
    "regularize",
    "search_certificate",
    "shifted_rhs",
    "singular_residual",
    "solve_periodic",
    "solve_shifted_linear",
    "truncated_rhs",
    "verify_properties",
    "x_to_u",
]
