"""Exception types raised by the nspyr package.

Every numerical precondition failure maps to a distinct subclass of
:class:`NspyrError` whose message names the violated precondition, so
callers (and the command line front end) can report it verbatim.
"""


class NspyrError(Exception):
    """Base class for all nspyr errors."""


class BadParamsError(NspyrError, ValueError):
    """Invalid constructor parameters (counts, radii, frequencies...)."""


class DomainError(NspyrError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateParameterError(NspyrError):
    """A mask denominator is too close to zero to evaluate reliably."""


class PeriodTooShortError(NspyrError):
    """Periodic input shorter than the stencil of one refinement output."""


class OddPeriodError(NspyrError):
    """Periodic decimation requires an even period."""


class PeriodNotDivisibleError(NspyrError):
    """Periodic analysis requires the period to be divisible by 2**J."""


class EmptyEvenPartError(NspyrError):
    """Mask has no even-indexed taps; no decimation filter exists."""


class SymbolZeroOnCircleError(NspyrError):
    """Even-part symbol vanishes on the unit circle; no summable inverse."""


class NoConvergenceError(NspyrError):
    """Reverse-filter solve needs too wide a window or leaves a large tail."""


class FitFailedError(NspyrError):
    """Geometric decay fit is impossible (too few samples or no decay)."""


class ShapeMismatchError(NspyrError):
    """Pyramid pieces are mutually inconsistent (lengths or components)."""
