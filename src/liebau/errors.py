"""Exception types shared across the package."""


class LiebauError(Exception):
    """Base class for all package-specific errors."""


class BadPeriod(LiebauError):
    """A period is out of range.

    A function's period must be positive and finite; a problem's or kernel's
    period T must also be at least 1/``greens.MAX_RATE``.
    """


class MOutOfRange(LiebauError):
    """The shift parameter m is outside the positivity window (0, m_max).

    Outside this window the periodic kernel of x'' + a x' + m^2 x is not
    guaranteed positive and none of the machinery applies.
    """

    def __init__(self, m: float, m_max: float):
        self.m = m
        self.m_max = m_max
        super().__init__(f"m={m!r} outside the admissible window (0, {m_max!r})")


class BadRadii(LiebauError):
    """Radii must satisfy 0 < R1 < R2."""


class KappaNonpositive(LiebauError):
    """The cone comparison weight kappa must be strictly positive."""


class NegativeState(LiebauError):
    """A state value left the admissible region x >= 0."""


class NonpositiveLevel(LiebauError):
    """The pipe-level trace u must be strictly positive (the model is singular at u=0)."""


class PropertyViolation(LiebauError):
    """A verified kernel property failed beyond tolerance.

    Signals an implementation bug or a near-degenerate parameter choice; the
    offending report is attached as ``report``.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class NoConvergence(LiebauError):
    """The iteration budget was exhausted before meeting the tolerance."""


class LeftPositiveCone(LiebauError):
    """An iterate became nonpositive and damping could not recover.

    Usually means a bad initial guess, or that no positive solution lives
    near the requested one.
    """


class OutOfFloatRange(LiebauError):
    """A derived quantity, such as the ceiling (e_max / c)^(1/mu), is beyond float range.

    Raised when the value would overflow, or underflow to 0 where only a
    positive value is meaningful.  Small mu makes the exponent 1/mu large.
    """


class InapplicableCriterion(LiebauError):
    """The requested criterion does not apply to this problem instance."""


class ConfigError(LiebauError):
    """A configuration file failed to parse or validate.

    ``location`` identifies the offending field (dotted path into the JSON
    document) when known; ``message`` is the text without it.
    """

    def __init__(self, message: str, location: str = ""):
        self.message = message
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)
