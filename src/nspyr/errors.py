"""Exception types raised by the nspyr package, and its input gates.

Every numerical precondition failure maps to a distinct subclass of
:class:`NspyrError` whose message names the violated precondition, so
callers (and the command line front end) can report it verbatim.  Caller
input passes one of five gates, which raise these types naming the
argument: :func:`_index` for integers, :func:`_check_json` for JSON
documents read from outside (a saved pyramid and its family),
:func:`_real_array` for arrays, to which each caller adds its shape rule,
:func:`_real_scalar` for real numbers, and :func:`_instance` for objects
of the package's own types (masks, families, filters, pyramids, curves).
Sequences, masks and pyramids share one immutability rule, :class:`_Immutable`.
"""

import math
import operator

import numpy as np


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


class ShapeMismatchError(NspyrError):
    """Pyramid pieces are mutually inconsistent (lengths or components)."""


# JSON types of the documents read from outside: the pyramid JSON and
# the family description it holds.

_NUMBER = (int, float)


def _json_ok(value, kind) -> bool:
    """Whether a JSON value is of ``kind``.

    ``kind`` is a type, a tuple of types, or ``[kind]`` for an array of
    that kind.  JSON true and false match no kind: they are not numbers.
    """
    if isinstance(kind, list):
        return isinstance(value, list) and all(
            _json_ok(v, kind[0]) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_json(doc, where: str, kinds: dict, optional=()) -> None:
    """Check the fields of a JSON document read from outside.

    Unless ``doc`` is an object holding each field of ``kinds`` (those in
    ``optional`` may be left out) with a value of the field's
    :func:`_json_ok` kind, :class:`ShapeMismatchError` is raised naming
    ``where`` and the field.
    """
    if not isinstance(doc, dict):
        raise ShapeMismatchError(f"{where} must be a JSON object, "
                                 f"got {type(doc).__name__}")
    for key, kind in kinds.items():
        if key not in doc and key not in optional:
            raise ShapeMismatchError(f"{where} lacks the field {key!r}")
        if key in doc and not _json_ok(doc[key], kind):
            raise ShapeMismatchError(
                f"{where} field {key!r} has the wrong JSON type "
                f"({type(doc[key]).__name__})")


def _index(value, name: str, error=BadParamsError) -> int:
    """``value`` read as an integer by ``operator.index``.

    Anything that is not an integer (a float, a string) raises ``error``
    naming the argument ``name``.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def _real_array(values, what: str, error=BadParamsError,
                finite: bool = True) -> np.ndarray:
    """``values`` by one ``np.asarray``, as float64 (uncopied if it is).

    Only booleans, integers and floats pass.  Complex values, and NaN or
    infinity unless ``finite`` is False, raise :class:`DomainError`; text,
    objects and what numpy cannot coerce (ragged lists, dicts, sequence
    objects) raise ``error``.  Messages name ``what``.
    """
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must form rectangular blocks of numbers: "
                    f"{exc}") from None
    if arr.dtype.kind == "c":
        raise DomainError(f"{what} must be real: found complex values")
    if arr.dtype.kind not in "biuf":
        raise error(f"{what} must form rectangular blocks of numbers, got "
                    f"{arr.dtype} values")
    arr = arr.astype(float, copy=False)
    if finite and not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite: found NaN or infinity")
    return arr


def _real_scalar(value, what: str, finite: bool = True) -> float:
    """``value``, one number, as a Python float.

    A Python or numpy number, or a 0-d array, passes the checks of
    :func:`_real_array` (``finite`` as there); anything else raises
    :class:`BadParamsError`.  Messages name ``what``.
    """
    if type(value) is float and (not finite or math.isfinite(value)):
        return value
    if not isinstance(value, (int, float, complex, np.generic, np.ndarray)):
        raise BadParamsError(f"{what} must be a real number, got {value!r}")
    arr = _real_array(value, what, finite=finite)
    if arr.ndim:
        raise BadParamsError(
            f"{what} must be a real number, got shape {arr.shape}")
    return float(arr)


def _instance(value, types, what: str):
    """``value``, checked to be an instance of ``types``.

    ``types`` is a class or a tuple of classes; anything else raises
    :class:`BadParamsError` naming ``what`` and the classes.
    """
    if not isinstance(value, types):
        names = " or ".join(t.__name__ for t in (
            types if isinstance(types, tuple) else (types,)))
        raise BadParamsError(
            f"{what} must be a {names}, got {type(value).__name__}")
    return value


class _Immutable:
    """Base of the package's immutable values.

    Assigning or deleting an attribute raises ``AttributeError`` naming
    the class; builders write slots with ``object.__setattr__``.  Copies
    and unpickled values are rebuilt through the constructor from the
    ``_args`` fields, so they pass its checks.  Values compare and hash by
    the ``_key`` fields, arrays by their bytes (their values: they hold
    neither NaN nor -0.0).
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self._args])

    def _key_values(self) -> tuple:
        return tuple([v.tobytes() if isinstance(v, np.ndarray) else v
                      for v in map(self.__getattribute__, self._key)])

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key_values() == other._key_values()

    def __hash__(self):
        return hash(self._key_values())
