"""Exception hierarchy shared by all modules."""


class LiesysError(Exception):
    """Base class for all errors raised by this package; ``last_time`` is
    the last good time of the failed computation, where it has one."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


class DimensionMismatchError(LiesysError):
    """Operands live on spaces of different dimension."""


class SingularityError(LiesysError):
    """Evaluation requested at a genuine singularity (e.g. x = 0 of k/x^3)."""


class DomainError(LiesysError):
    """A radicand or other domain constraint was violated.

    The offending value is kept in ``value`` for diagnostics.
    """

    def __init__(self, message, value=None, last_time=None):
        super().__init__(message, last_time)
        self.value = value


class DependentSolutionsError(LiesysError):
    """The supplied particular solutions are linearly dependent (Wronskian 0)."""


class IntegrationError(LiesysError):
    """Numerical integration failed; ``last_time`` is the last good time."""


class QuadratureError(LiesysError):
    """Quadrature failed, e.g. a non-finite integrand sample.

    ``abscissa`` names the offending evaluation point when known, and
    ``last_time`` the last time up to which a tau clock is defined.
    """

    def __init__(self, message, abscissa=None, last_time=None):
        super().__init__(message, last_time)
        self.abscissa = abscissa


class UndeterminedRankError(LiesysError):
    """No number of copies up to the search bound reached full rank.

    ``ranks`` maps number-of-copies -> majority rank found there.
    """

    def __init__(self, message, ranks=None):
        super().__init__(message)
        self.ranks = dict(ranks or {})


class ScenarioError(LiesysError):
    """A scenario file failed validation; ``field`` names the bad entry."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
