"""Exception types shared across the package."""


class MassPolyError(Exception):
    """Base class for all masspoly errors."""


class SpecError(MassPolyError, ValueError):
    """Invalid measure / weight / config specification."""


class ExponentOutOfRange(SpecError):
    pass


class DuplicateLocation(SpecError):
    pass


class MassNotPositive(SpecError):
    pass


class NoEndpoint(MassPolyError):
    """max(alpha, beta) <= -1/2: no finite mean-convergence endpoints."""


class DegreeOutOfRange(MassPolyError, IndexError):
    pass


class GridTooSmall(SpecError):
    pass


class GridMismatch(SpecError):
    pass


class PointOnBoundary(MassPolyError, ValueError):
    pass


class IllConditionedFit(MassPolyError, ArithmeticError):
    pass


class NumericalBreakdown(MassPolyError, ArithmeticError):
    pass


class NonFiniteWeight(SpecError):
    """A weight or symbol that is not finite, or not positive where it must be, where it is read."""


class EigenFailure(MassPolyError, ArithmeticError):
    pass


class Irrational(MassPolyError, ValueError):
    """Configuration does not admit exact rational moments."""


class HankelSingular(MassPolyError, ArithmeticError):
    pass
