"""Subdivision masks, level-dependent mask families, and refinement.

A mask ``alpha`` drives one refinement step ``(S c)_j = sum_i
alpha_{j-2i} c_i``, equivalently ``alpha * (c^2)``.  Masks are stored
centered: interpolating masks put the copy tap at index 0 and symmetric
masks are symmetric about 0.  A family hands out the mask for each
refinement step; the level argument ``k`` counts steps already
performed, so ``mask_at_level(family, 0)`` refines the initial data.

Three concrete level-dependent families are provided besides stationary
masks: an interpolating four-point family with a trigonometric tension
(``NS4Point``), an exponential generalization of the cubic B-spline
(``NSCubic``), and a conic-reproducing family (``Conic``) whose
refinements keep sampled conic sections (circles in particular) exact.
The conic family for a closed curve of N0 uniformly sampled coarse points
is ``Conic(math.cos(2 * math.pi / N0))``.  Families are immutable values
that compare and hash by their parameters (the taps and name of a
stationary family, the tension of the others), so equal families built
separately share the analysis's per-level cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    BadParamsError,
    DegenerateParameterError,
    DomainError,
    PeriodTooShortError,
    _Immutable,
    _NUMBER,
    _check_json,
    _index,
    _instance,
    _real_scalar,
)
from .sequences import (FinSeq, PeriodicSeq, _cyclic_convolve, _finseq,
                        _frame, _reach, _stencil)

_PARITY_TOL = 1e-12
_DENOM_GUARD = 1e-12


class Mask(_Immutable):
    """A subdivision mask: centered taps plus level and family provenance.

    The even- and odd-indexed taps of a stationary convergent scheme's
    mask each sum to one, which :class:`Stationary` enforces; a
    nonstationary mask may break that rule at every level (the
    exponential B-spline family approaches it only as the level grows),
    so a mask does not check it, and reports the deviations via
    :attr:`parity_deviation`.  The taps are finite, as every
    :class:`FinSeq` is.
    """

    __slots__ = ("taps", "level", "family_id", "_phases", "_parities",
                 "_stencils", "_stencil_reach")
    # The fields derived from the taps take no part in equality.
    _args = _key = ("taps", "level", "family_id")

    def __init__(self, taps: FinSeq, level: int = 0,
                 family_id: str = "custom"):
        if _instance(taps, FinSeq, "mask taps").is_empty:
            raise BadParamsError("mask has no taps")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "level", _index(level, "level"))
        object.__setattr__(self, "family_id", str(family_id))
        # The polyphase split, and what every refinement reads of it: the
        # parities with taps, their kernel stencils, the stencil reach.
        phases = _polyphase(taps)
        parities = tuple([p for p in (0, 1) if phases[p][0].size])
        object.__setattr__(self, "_phases", phases)
        object.__setattr__(self, "_parities", parities)
        object.__setattr__(self, "_stencils",
                           tuple([_stencil(*phases[p]) for p in parities]))
        object.__setattr__(self, "_stencil_reach",
                           max(phases[0][0].size, phases[1][0].size))

    @property
    def even_sum(self) -> float:
        return float(np.add.reduce(self._phases[0][0]))

    @property
    def odd_sum(self) -> float:
        return float(np.add.reduce(self._phases[1][0]))

    @property
    def parity_deviation(self):
        """(even_sum - 1, odd_sum - 1)."""
        return (self.even_sum - 1.0, self.odd_sum - 1.0)

    def __repr__(self):
        return (f"Mask({self.family_id!r}, level={self.level}, "
                f"support={self.taps.support})")


def operator_norm_inf(mask: Mask) -> float:
    """Sup-norm of the refinement operator: max of the two parity l1 sums."""
    phases = _instance(mask, Mask, "mask")._phases
    return float(max(np.abs(coeffs).sum() for coeffs, _ in phases))


def _polyphase(taps: FinSeq):
    """The two phases ``beta^p_k = alpha_{2k+p}`` as ``(coeffs, offset)``.

    A phase with no taps has empty ``coeffs``.
    """
    phases = []
    for parity in (0, 1):
        first = (parity - taps.offset) % 2
        phases.append((taps.coeffs[first::2],
                       (taps.offset + first - parity) // 2))
    return phases


def _refine_block(mask: Mask, values: np.ndarray, out=None,
                  width=None) -> np.ndarray:
    """Periodic refinement of an ``(N,)`` or ``(N, D)`` block along axis 0.

    Polyphase: output ``[p::2]`` is the coarse data cyclically convolved
    with the parity-p taps, so no inserted zero is ever multiplied.  One
    kernel call computes both phases from one extension of each column
    and writes them straight into the column-major result; a phase
    without taps is zero.  The result goes into a new array or into
    ``out``; ``width`` is that of the level block whose columns
    ``values`` and ``out`` hold (see :func:`_cyclic_convolve`).
    """
    n = values.shape[0]
    if n < mask._stencil_reach:
        raise PeriodTooShortError(
            f"period {n} shorter than stencil reach {mask._stencil_reach}")
    if out is None:
        shape = (2 * n,) + values.shape[1:]
        out = (np.empty(shape, order="F") if len(mask._parities) == 2
               else np.zeros(shape, order="F"))
    elif len(mask._parities) == 1:
        out[1 - mask._parities[0]::2] = 0.0
    _cyclic_convolve(mask._stencils, values,
                     [out[p::2] for p in mask._parities], width)
    return out


def refine(mask: Mask, c):
    """One refinement step ``(S c)_j = sum_i alpha_{j-2i} c_i``.

    A periodic input of period N yields period 2N and must satisfy
    ``N >= stencil reach`` (the longest run of one parity's taps),
    otherwise the output would wrap onto itself.  Data is refined
    polyphase: output ``2m+p`` is ``sum_k alpha_{2k+p} c_{m-k}``, computed
    without upsampling.  Finite data goes on a zero frame so wide that
    the cyclic kernel does not wrap.
    """
    mask = _instance(mask, Mask, "mask")
    if isinstance(c, PeriodicSeq):
        return PeriodicSeq(_refine_block(mask, c.values))
    if not isinstance(c, FinSeq):
        raise BadParamsError(f"refine needs a FinSeq or PeriodicSeq, "
                             f"got {type(c).__name__}")
    half = _reach(mask.taps) // 2 + 1
    frame, start = _frame(c.coeffs, c.offset, c.offset - half,
                          c.offset + len(c) + half)
    return FinSeq(_refine_block(mask, frame), 2 * start)


# ---------------------------------------------------------------------------
# tension parameters


def v_next(v: float) -> float:
    """Tension update ``v -> sqrt((1+v)/2)``; fixed point at 1.

    For ``v = cos(t)`` this is the half-angle step ``cos(t) -> cos(t/2)``,
    and likewise for cosh.
    """
    v = _real_scalar(v, "v")
    if v <= -1.0:
        raise DomainError(f"tension {v} outside domain (-1, inf)")
    return math.sqrt((1.0 + v) / 2.0)


def conic_params(v: float) -> tuple[float, float]:
    """Stencil parameters (a, b) of the conic-reproducing rules at tension v.

    Evaluated in a form with the removable ``(v-1)`` factor cancelled
    analytically, so the value stays accurate arbitrarily close to the
    polynomial limit; the limit itself (|v-1| < 1e-12) and v near 0 are
    rejected because the displayed rules degenerate there.
    """
    v = _real_scalar(v, "v")
    if abs(v) < _DENOM_GUARD or abs(v - 1.0) < _DENOM_GUARD:
        raise DegenerateParameterError(
            f"conic parameters degenerate at v={v!r}")
    if v <= -1.0:
        raise DomainError(f"tension {v} outside domain (-1, inf)")
    s = math.sqrt(2.0 * (v + 1.0))
    ring = v + 3.0 + 2.0 * s
    a = -(2.0 + s) * (v * v + 2.0 * v + 2.0) / (4.0 * v * s * (2.0 + v * s) * ring)
    b = ((v + 1.0) * (v - 2.0) - 2.0 * s) / (2.0 * v * s * ring)
    return a, b


# ---------------------------------------------------------------------------
# families


def _level(k) -> int:
    """The refinement level ``k``, checked to be an integer of at least 0."""
    k = _index(k, "level")
    if k < 0:
        raise DomainError("level must be nonnegative")
    return k


class SchemeFamily:
    """Supplier of per-level masks for a (possibly nonstationary) scheme.

    A family is an immutable value: the analysis caches each level's
    operators per family, by equality and hash, so a family must be
    hashable and must not change once built.  The families of this module compare by their
    parameters; a subclass without ``__eq__`` compares by identity.
    """

    family_id = "abstract"

    def mask_at_level(self, k: int) -> Mask:
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-serializable description (kind plus parameters)."""
        raise NotImplementedError

    @property
    def interpolating(self) -> bool:
        return False


@dataclass(frozen=True)
class Stationary(SchemeFamily):
    """Same mask at every level; ``name``, a str, is the family id.

    The even- and odd-indexed taps must each sum to one within
    ``_PARITY_TOL`` = 1e-12, or :class:`BadParamsError` is raised.
    """

    taps: FinSeq
    name: str = "stationary"

    def __post_init__(self):
        _instance(self.name, str, "name")
        even, odd = Mask(self.taps, family_id=self.name).parity_deviation
        dev = max(abs(even), abs(odd))
        if dev > _PARITY_TOL:
            raise BadParamsError(
                f"mask parity sums deviate from 1 by {dev:.3e}")

    @property
    def family_id(self) -> str:
        return self.name

    def mask_at_level(self, k: int) -> Mask:
        return Mask(self.taps, level=_level(k), family_id=self.name)

    @property
    def interpolating(self) -> bool:
        """True when the even-indexed taps are a single 1.0 at index 0."""
        even, _ = _polyphase(self.taps)[0]
        return self.taps[0] == 1.0 and int(np.count_nonzero(even)) == 1

    def describe(self) -> dict:
        return {
            "kind": "stationary",
            "name": self.name,
            "offset": self.taps.offset,
            "taps": self.taps.coeffs.tolist(),
        }


def cubic_bspline_mask() -> FinSeq:
    """Stationary cubic B-spline mask {1/8, 1/2, 3/4, 1/2, 1/8} centered."""
    return FinSeq([1 / 8, 1 / 2, 3 / 4, 1 / 2, 1 / 8], -2)


def cubic_bspline_family() -> Stationary:
    return Stationary(cubic_bspline_mask(), name="cubic_bspline")


class _OneParameter(SchemeFamily):
    """A family whose one field is its tension, kept as a finite float.

    It is described as its kind, the family id, plus that field.
    """

    def __post_init__(self):
        (param,) = fields(self)
        object.__setattr__(self, param.name, _real_scalar(
            getattr(self, param.name), param.name))

    def describe(self) -> dict:
        (param,) = fields(self)
        return {"kind": self.family_id,
                param.name: getattr(self, param.name)}


@dataclass(frozen=True)
class NS4Point(_OneParameter):
    """Interpolating four-point family with trigonometric tension theta.

    The even rule copies the coarse point.  The inserted value uses the
    weight ``w_k = 1 / (16 cos^2(theta 2^{-k-2}) cos(theta 2^{-k-1}))``
    on the outer pair and ``1/2 + w_k`` on the inner pair, which keeps
    both parity sums at one and reproduces the sampled circle when
    ``theta = 2*pi/N``.  ``theta = 0`` is the classical four-point scheme
    with weights {-1/16, 9/16, 9/16, -1/16}.
    """

    family_id = "ns4pt"
    theta: float = 0.0

    def mask_at_level(self, k: int) -> Mask:
        k = _level(k)
        c_half = math.cos(self.theta * 2.0 ** (-k - 2))
        c_full = math.cos(self.theta * 2.0 ** (-k - 1))
        den = 16.0 * c_half * c_half * c_full
        if min(abs(c_half), abs(c_full), abs(den)) < _DENOM_GUARD:
            raise DegenerateParameterError(
                f"four-point weight denominator vanishes at level {k}")
        w = 1.0 / den
        inner = 0.5 + w
        taps = np.array([-w, 0.0, inner, 1.0, inner, 0.0, -w])
        return Mask(_finseq(taps, -3), level=k, family_id=self.family_id)

    @property
    def interpolating(self) -> bool:
        return True


@dataclass(frozen=True)
class _IteratedTension(_OneParameter):
    """A family whose level-k rules use the iterated tension ``v_k``.

    ``v_k`` is k+1 applications of :func:`v_next` to ``v_init``, which
    must exceed -1.
    """

    v_init: float

    def __post_init__(self):
        super().__post_init__()
        if self.v_init <= -1.0:
            raise DomainError(f"v_init must exceed -1, got {self.v_init}")

    def tension_at_level(self, k: int) -> float:
        v = self.v_init
        for _ in range(_level(k) + 1):
            v = v_next(v)
        return v


@dataclass(frozen=True)
class NSCubic(_IteratedTension):
    """Exponential generalization of the cubic B-spline scheme.

    The level-k rules at the iterated tension ``v = v_k``:

    * even: ``1/(2(v+1)^2)``, ``(4v^2+2)/(2(v+1)^2)``, ``1/(2(v+1)^2)``
    * odd:  ``2v/(v+1)^2`` on both neighbours.

    At ``v = 1`` (and in the limit of large k) this is the cubic
    B-spline.  For v != 1 the parity sums are not exactly one: the
    scheme generates exponentials rather than constants.
    """

    family_id = "nscubic"
    v_init: float = 1.0

    def mask_at_level(self, k: int) -> Mask:
        v = self.tension_at_level(k)
        den = 2.0 * (v + 1.0) ** 2
        if abs(den) < _DENOM_GUARD:
            raise DegenerateParameterError(
                f"cubic rule denominator vanishes at level {k}")
        outer = 1.0 / den
        center = (4.0 * v * v + 2.0) / den
        oddtap = 2.0 * v / (v + 1.0) ** 2
        taps = np.array([outer, oddtap, center, oddtap, outer])
        return Mask(_finseq(taps, -2), level=k, family_id=self.family_id)


@dataclass(frozen=True)
class Conic(_IteratedTension):
    """Family reproducing {1, x, e^{tx}, e^{-tx}} sampled data.

    ``v_init = cos(sigma)`` for data sampled at the angular step
    ``sigma`` (``2*pi/N0`` for a closed curve of N0 coarse points), or
    ``cosh(sigma)`` for hyperbolic data.  The level-k mask evaluates the
    nine-tap rules at the iterated tension ``v_k``.  Both parity sums
    equal one identically in (a, b), within rounding at every level.
    """

    family_id = "conic"

    def mask_at_level(self, k: int) -> Mask:
        v = self.tension_at_level(k)
        a, b = conic_params(v)
        den = 4.0 * (v + 1.0)
        e2 = a / den
        e1 = (1.0 + 2.0 * v * (b + 2.0 * a)) / den
        e0 = (4.0 * v * (1.0 - b - 2.0 * a) - 2.0 * a + 2.0) / den
        o_outer = (2.0 * a * (v + 1.0) + b) / den
        o_inner = ((2.0 - 2.0 * a) * (v + 1.0) - b) / den
        taps = np.array([e2, o_outer, e1, o_inner, e0, o_inner, e1, o_outer,
                         e2])
        return Mask(_finseq(taps, -4), level=k, family_id=self.family_id)


# kind -> class of the families described by one parameter
_ONE_PARAMETER = {cls.family_id: cls for cls in (NS4Point, NSCubic, Conic)}


def family_from_description(desc: dict) -> SchemeFamily:
    """Rebuild a family from :meth:`SchemeFamily.describe` output.

    A stationary description without a ``name`` (written before names
    were kept) rebuilds as ``"stationary"``.  A missing or mistyped
    field raises :class:`ShapeMismatchError`.
    """
    where = "family description"
    _check_json(desc, where, {"kind": str})
    kind = desc["kind"]
    if kind == "stationary":
        _check_json(desc, where, {"taps": [_NUMBER], "offset": int,
                                  "name": str}, ("name",))
        return Stationary(FinSeq(desc["taps"], desc["offset"]),
                          desc.get("name", "stationary"))
    build = _ONE_PARAMETER.get(kind)
    if build is None:
        raise BadParamsError(f"unknown family kind {kind!r}")
    (param,) = fields(build)
    _check_json(desc, where, {param.name: _NUMBER})
    return build(desc[param.name])


def refine_n(family: SchemeFamily, c, steps: int):
    """Apply ``steps`` refinement rounds, advancing the family level."""
    family = _instance(family, SchemeFamily, "family")
    steps = _index(steps, "steps")
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    out = c
    for k in range(steps):
        out = refine(family.mask_at_level(k), out)
    return out
