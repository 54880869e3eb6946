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
  polish on the Fourier collocation residual, and localization checks.
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
    OutOfFloatRange,
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
)
from .certify import (
    Certificate,
    Condition,
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
    SolveOptions,
    cone_and_localization,
    fd_residual,
    solve_periodic,
)
from .pump import PumpReport, pump_report, singular_residual, x_to_u

__version__ = "0.1.0"

__all__ = [
    "BadPeriod",
    "BadRadii",
    "Certificate",
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
    "OutOfFloatRange",
    "PeriodicFunction",
    "PhysicalConfig",
    "PropertyViolation",
    "PumpReport",
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
    "pump_report",
    "regularize",
    "search_certificate",
    "shifted_rhs",
    "singular_residual",
    "solve_periodic",
    "verify_properties",
    "x_to_u",
]
