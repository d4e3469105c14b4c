"""Multiscale analysis and synthesis with level-dependent operators.

Analysis peels a fine sequence ``c^(J)`` down to a coarse sequence plus
per-level residuals:

    c^(l-1) = D_l c^(l),    d^(l) = c^(l) - S_l c^(l-1),   l = J..1,

where ``S_l`` refines with the family's step-l mask and ``D_l`` applies
that mask's reverse decimation filter (plain downsampling when the mask
is interpolating).  Synthesis inverts exactly by construction:

    c^(l) = S_l c^(l-1) + d^(l),   l = 1..J.

Every component shares the filters, so each level is one ``(N, D)``
block: one period, or the nonzero rows of finite data plus the index of
the first, processed on a zero frame on which the cyclic kernels compute
linear convolutions.  Blocks are column-major (Fortran order), so each
component is one contiguous column for the kernel to read and write;
the input's layout does not change any result.  Coefficient norms are
Euclidean across components.

A periodic block of two or more columns and at least 2**17 rows at its
finest level, in a process whose CPU affinity set holds two or more
CPUs, runs its level chain in two column groups, the second on a helper
thread started and joined inside the call (:func:`_in_column_groups`).
Below 2**17 rows the thread cost more than the second core saved.  The
kernel picks its strategies from whole level blocks, so no output
depends on the split.

Executable forms of the decay and stability estimates are provided as
bound evaluators and checkers.
"""

from __future__ import annotations

import base64
import contextvars
import functools
import json
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .decimation import (DEFAULT_EPSILON, DecimationFilter, _decimate_block,
                         _epsilon, residual_check, solve_gamma)
from .errors import (
    BadParamsError,
    DomainError,
    PeriodNotDivisibleError,
    ShapeMismatchError,
    _Immutable,
    _NUMBER,
    _check_json,
    _index,
    _instance,
    _real_array,
    _real_scalar,
)
from .sequences import (FinSeq, PeriodicSeq, _finseq, _frame, _reach, _trim,
                        k_const, norm_l1)
from .subdivision import (
    Mask,
    SchemeFamily,
    _refine_block,
    family_from_description,
    operator_norm_inf,
)


@dataclass(frozen=True)
class LevelParams:
    """Mask/filter pair of one pyramid level, the mask's level plus one."""

    mask: Mask
    filt: DecimationFilter

    @property
    def level(self) -> int:
        return self.mask.level + 1


@functools.lru_cache(maxsize=2048)
def _level_params(family: SchemeFamily, level: int,
                  epsilon: float) -> LevelParams:
    """The step-``level`` mask of ``family`` and its reverse filter.

    A level's operators depend only on the family, the level and
    epsilon, so they are cached on those, up to 2048 entries, the least
    recently used leaving first.  Families compare by their parameters,
    so equal families built separately share them.  A mask of another
    step than ``level - 1`` raises :class:`BadParamsError`.
    """
    mask = family.mask_at_level(level - 1)
    if mask.level != level - 1:
        raise BadParamsError(f"family {family.family_id!r} gave a level "
                             f"{mask.level} mask for level {level - 1}")
    return LevelParams(mask, solve_gamma(mask, epsilon))


def _levels(levels) -> int:
    """``levels``, checked to be an integer of at least 1."""
    levels = _index(levels, "levels")
    if levels < 1:
        raise BadParamsError("need at least one level")
    return levels


def _items(values, name: str) -> tuple:
    """``values`` as a tuple; a non-iterable raises ShapeMismatchError."""
    try:
        return tuple(values)
    except TypeError:
        raise ShapeMismatchError(f"{name} must be a sequence, got "
                                 f"{type(values).__name__}") from None


def _read_only_block(values) -> np.ndarray:
    """Read-only column-major 2-D float copy of ``values``.

    A 1-D ``values`` becomes ``(N, 1)``; :meth:`Pyramid._fill` scans it.
    """
    arr = _real_array(values, "pyramid coefficients", ShapeMismatchError,
                      finite=False)
    arr = arr[:, None] if arr.ndim == 1 else arr
    if arr.ndim != 2:
        raise ShapeMismatchError(
            f"pyramid blocks must be 2-D, got shape {arr.shape}")
    arr = np.array(arr, order="F")
    arr.setflags(write=False)
    return arr


def _components(block: np.ndarray, offset: int, periodic: bool):
    """One :class:`PeriodicSeq` or :class:`FinSeq` per column of a block.

    A finite column is copied into :func:`_finseq`, which checks its
    largest magnitude and its ends instead of rescanning every value.
    """
    if periodic:
        return tuple(PeriodicSeq(col) for col in block.T)
    return tuple(_finseq(col.copy(), offset) for col in block.T)


def _sqrt_sum_squares(block: np.ndarray) -> np.ndarray:
    """``sqrt`` of the summed squares of each row of a 2-D block.

    The squares are summed from a row-major copy, so the rounding is the
    same for every layout of ``block``.  Two squares sum alike in either
    order, so a planar block adds its two columns instead: a reduction
    over an axis that short costs a loop call per row.
    """
    if block.shape[1] == 2:
        x, y = block[:, 0], block[:, 1]
        return np.sqrt(x * x + y * y)
    return np.sqrt(np.add.reduce(np.multiply(block, block, order="C"),
                                 axis=1))


# Rows whose squares overflow are recomputed at this scale.  A power of
# two scales without rounding, and it keeps every entry above 2**-474:
# the smaller ones add nothing beside an entry whose square overflows.
_SHRINK = 2.0 ** -600


def _row_norms(block: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D block.

    Callers hold ``np.errstate(over="ignore")``, once per public call.  A
    row whose squares overflow reads infinite and is recomputed from the
    row times ``_SHRINK``, so only a norm beyond the float range, or a row
    holding an infinity, stays infinite; other rows keep their bits.
    """
    norms = _sqrt_sum_squares(block)
    if norms.size and np.maximum.reduce(norms) == math.inf:
        rows = norms == math.inf
        norms[rows] = _sqrt_sum_squares(block[rows] * _SHRINK) / _SHRINK
    return norms


# Field types of a pyramid document, of its binary blocks and of its
# level_params entries.
_DOCUMENT_FIELDS = {"family": dict, "epsilon": _NUMBER, "boundary": str,
                    "coarse": (list, dict), "details": list,
                    "level_params": list}
_BLOCK_FIELDS = {"shape": [int], "float64le": str}
_LEVEL_FIELDS = {
    "level": int, "mask_offset": int, "mask_taps": [_NUMBER],
    "mask_family": str, "zeta_offset": int, "zeta_taps": [_NUMBER],
    "gamma_offset": int, "gamma_taps": [_NUMBER], "epsilon": _NUMBER,
    "residual_l1": _NUMBER, "decay_C": _NUMBER + (type(None),),
    "decay_lambda": _NUMBER + (type(None),), "detail_offset": int,
    "coarse_offset": int}


def _encode_block(block: np.ndarray) -> dict:
    """The binary JSON form of a block: its shape and base64 payload.

    The payload is the block's little-endian float64 bytes in column-major
    order, one component after another.
    """
    raw = block.astype("<f8", copy=False).tobytes(order="F")
    return {"shape": list(block.shape),
            "float64le": base64.b64encode(raw).decode("ascii")}


def _decode_block(value, where: str):
    """The array of a binary JSON block; a list-form block is returned as is.

    A malformed binary block raises :class:`ShapeMismatchError` naming
    ``where``.
    """
    if not isinstance(value, dict):
        return value
    _check_json(value, where, _BLOCK_FIELDS)
    if value.keys() != _BLOCK_FIELDS.keys():
        extra = sorted(value.keys() - _BLOCK_FIELDS.keys())
        raise ShapeMismatchError(f"{where} has unknown fields {extra}")
    shape = value["shape"]
    if len(shape) != 2 or min(shape) < 0:
        raise ShapeMismatchError(
            f"{where} shape must be two non-negative integers, got {shape}")
    try:
        raw = base64.b64decode(value["float64le"], validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ShapeMismatchError(
            f"{where} payload is not base64: {exc}") from None
    n, d = shape
    if len(raw) != 8 * n * d:
        raise ShapeMismatchError(
            f"{where} payload holds {len(raw)} bytes, expected "
            f"8*{n}*{d} = {8 * n * d}")
    return np.frombuffer(raw, dtype="<f8").reshape(d, n).T


# Loaded operators may differ from recomputed ones by this many units of
# rounding, relative to the l1 norm of the taps that produce them.
_OPERATOR_ULPS = 64 * np.finfo(float).eps


def _check_finite(blocks, what: str) -> None:
    """Raise :class:`DomainError` naming ``what`` unless all blocks are finite.

    A finite sum means finite values; only a block whose sum is not
    finite, which finite values can also give, is scanned.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        finite = all(math.isfinite(np.add.reduce(block, axis=None))
                     or np.isfinite(block).all() for block in blocks)
    if not finite:
        raise DomainError(f"{what} must be finite: found NaN or infinity")


def _check_operators(family: SchemeFamily, epsilon: float, lp: LevelParams,
                     where: str) -> None:
    """Check a level's mask, epsilon and residual against their sources.

    The mask taps must be those of ``family.mask_at_level`` at the mask's
    level, the filter's epsilon the pyramid's, and ``residual_l1`` that
    of the stored mask and zeta taps; taps and residual may differ by
    ``_OPERATOR_ULPS`` times the l1 norm of the taps they come from.  A
    mismatch, or empty zeta taps, raises :class:`ShapeMismatchError`
    naming ``where``.
    """
    taps, expected = lp.mask.taps, family.mask_at_level(lp.mask.level).taps
    if (taps.support != expected.support
            or np.abs(taps.coeffs - expected.coeffs).max()
            > _OPERATOR_ULPS * norm_l1(expected)):
        raise ShapeMismatchError(
            f"{where} mask taps differ from the family's level "
            f"{lp.mask.level} mask")
    if lp.filt.epsilon != epsilon:
        raise ShapeMismatchError(
            f"{where} epsilon is {lp.filt.epsilon!r}, but the pyramid's "
            f"is {epsilon!r}")
    if lp.filt.zeta.is_empty:
        raise ShapeMismatchError(f"{where} zeta taps are empty")
    residual = residual_check(lp.filt, lp.mask)
    tol = _OPERATOR_ULPS * max(1.0, norm_l1(taps) * norm_l1(lp.filt.zeta))
    if not abs(lp.filt.residual_l1 - residual) <= tol:
        raise ShapeMismatchError(
            f"{where} residual_l1 is {lp.filt.residual_l1!r}, but its mask "
            f"and zeta taps give {residual!r}")


class Pyramid(_Immutable):
    """Coarse block plus detail blocks and full operator provenance.

    ``coarse`` (``(N_0, D)``) and ``details[l-1]`` (``(N_l, D)``) are kept
    as read-only copies; ``offsets`` holds the first-row index of each,
    all 0 for periodic data.  ``support`` is the analyzed input's index
    range ``(lo, hi)`` for finite data, which synthesis returns; it is
    None for periodic data and for finite pyramids that did not record
    it.  Inconsistent shapes, counts or supports, blocks that are not
    arrays of real numbers, and ``details`` or ``level_params`` that are
    not sequences (of :class:`LevelParams`, for the latter) raise
    :class:`ShapeMismatchError`; complex or non-finite values raise
    :class:`DomainError`; a family that is not a :class:`SchemeFamily`, or
    an epsilon outside (0, 1), raises :class:`BadParamsError`.  Last, each
    level's operators must match the family and epsilon, as
    :func:`_check_operators` checks, so every pyramid built here loads
    back from :meth:`to_json`.  It is immutable and compares by identity.
    """

    __slots__ = ("coarse", "details", "offsets", "family", "epsilon",
                 "boundary", "level_params", "support")
    _args = ("coarse", "details", "family", "epsilon", "boundary",
             "level_params", "offsets", "support")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, coarse, details, family: SchemeFamily, epsilon: float,
                 boundary: str, level_params, offsets=None, support=None):
        if boundary not in ("periodic", "finite"):
            raise BadParamsError(f"unknown boundary mode {boundary!r}")
        if support is not None:
            if boundary != "finite":
                raise ShapeMismatchError(
                    "only a finite pyramid records an input support")
            try:
                lo, hi = (operator.index(v) for v in support)
            except (TypeError, ValueError):
                raise ShapeMismatchError(
                    f"support must be two integers, got {support!r}"
                ) from None
            if hi < lo:
                raise ShapeMismatchError(f"empty support range {support!r}")
            support = (lo, hi)
        blocks = [_read_only_block(b)
                  for b in (coarse, *_items(details, "details"))]
        level_params = _items(level_params, "level_params")
        if not all(isinstance(lp, LevelParams) for lp in level_params):
            raise ShapeMismatchError("level_params must hold LevelParams")
        levels = [lp.level for lp in level_params]
        if levels != list(range(1, len(blocks))):
            raise ShapeMismatchError(
                f"pyramid has {len(blocks) - 1} detail levels but "
                f"level_params for levels {levels}")
        offsets = (0,) * len(blocks) if offsets is None else tuple(
            _index(o, "offsets", ShapeMismatchError) for o in offsets)
        if len(offsets) != len(blocks):
            raise ShapeMismatchError(
                f"pyramid has {len(blocks)} blocks but {len(offsets)} offsets")
        if boundary == "periodic" and any(offsets):
            raise ShapeMismatchError(
                f"periodic pyramid offsets must be 0, got {offsets}")
        if any(b.shape[1] != blocks[0].shape[1] for b in blocks):
            raise ShapeMismatchError(
                "pyramid blocks differ in their number of components")
        if boundary == "periodic":
            for level, (below, block) in enumerate(zip(blocks, blocks[1:]), 1):
                if block.shape[0] != 2 * below.shape[0]:
                    raise ShapeMismatchError(
                        f"level {level} details have period "
                        f"{block.shape[0]}, expected {2 * below.shape[0]}")
        self._fill(blocks, offsets, _instance(family, SchemeFamily, "family"),
                   _epsilon(epsilon), boundary, level_params, support)
        for i, lp in enumerate(level_params):
            _check_operators(self.family, self.epsilon, lp,
                             f"level_params[{i}]")

    @classmethod
    def _of_analysis(cls, blocks, offsets, family, epsilon, boundary,
                     level_params, support) -> "Pyramid":
        """The pyramid of the blocks :func:`analyze` built.

        They are read-only, column-major, owned and consistent in shape
        and offset by construction, so only their finiteness is checked.
        """
        pyramid = cls.__new__(cls)
        pyramid._fill(blocks, tuple(offsets), family, epsilon, boundary,
                      tuple(level_params), support)
        return pyramid

    def _fill(self, blocks, offsets, family, epsilon, boundary, level_params,
              support) -> None:
        """Set the fields of valid blocks; non-finite values raise.

        Finite input can overflow to infinite details, so every caller's
        blocks are checked.
        """
        _check_finite(blocks, "pyramid coefficients")
        fields = {"coarse": blocks[0], "details": tuple(blocks[1:]),
                  "offsets": offsets, "family": family, "epsilon": epsilon,
                  "boundary": boundary, "level_params": level_params,
                  "support": support}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def levels(self) -> int:
        return len(self.details)

    @property
    def n_components(self) -> int:
        return self.coarse.shape[1]

    def _detail_block(self, level: int) -> np.ndarray:
        if not 1 <= level <= self.levels:
            raise BadParamsError(f"level {level} outside 1..{self.levels}")
        return self.details[level - 1]

    def detail(self, level: int):
        """Components of d^(level), 1-based."""
        return _components(self._detail_block(level), self.offsets[level],
                           self.boundary == "periodic")

    def coarse_array(self):
        return self.coarse[:, 0] if self.n_components == 1 else self.coarse

    def detail_array(self, level: int):
        arr = self._detail_block(level)
        return arr[:, 0] if self.n_components == 1 else arr

    def detail_norms(self, level: int) -> np.ndarray:
        """Per-coefficient Euclidean norms of d^(level)."""
        block = self._detail_block(level)
        with np.errstate(over="ignore"):
            return _row_norms(block)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        """The pyramid as a JSON-ready document.

        ``coarse`` and each entry of ``details`` are binary blocks,
        ``{"shape": [N, D], "float64le": <base64>}``: the little-endian
        float64 bytes of the block, one component after another.  The
        family must describe itself, or :class:`BadParamsError` is raised.
        """
        try:
            family = self.family.describe()
        except NotImplementedError:
            raise BadParamsError(
                f"family {type(self.family).__name__} has no description, "
                f"so its pyramid cannot be serialized") from None
        level_params = []
        for lp in self.level_params:
            entry = {
                "level": lp.level,
                "mask_offset": lp.mask.taps.offset,
                "mask_taps": lp.mask.taps.coeffs.tolist(),
                "mask_family": lp.mask.family_id,
                "zeta_offset": lp.filt.zeta.offset,
                "zeta_taps": lp.filt.zeta.coeffs.tolist(),
                "gamma_offset": lp.filt.gamma_raw.offset,
                "gamma_taps": lp.filt.gamma_raw.coeffs.tolist(),
                "epsilon": lp.filt.epsilon,
                "residual_l1": lp.filt.residual_l1,
                "decay_C": lp.filt.decay_C,
                "decay_lambda": lp.filt.decay_lambda,
                "detail_offset": self.offsets[lp.level],
            }
            if lp.level == 1:
                entry["coarse_offset"] = self.offsets[0]
            level_params.append(entry)
        doc = {
            "family": family,
            "epsilon": self.epsilon,
            "boundary": self.boundary,
            "coarse": _encode_block(self.coarse),
            "details": [_encode_block(block) for block in self.details],
            "level_params": level_params,
        }
        if self.support is not None:
            doc["support"] = list(self.support)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Pyramid":
        """Rebuild a pyramid from :meth:`to_json_dict` output.

        Blocks may also be nested lists, ``[[x, y], ...]`` or ``[x, ...]``
        for one component, as documents written before the binary form
        hold them.  A missing or mistyped field, a malformed binary block,
        or a level whose mask taps are not the family's, whose epsilon is
        not the document's or whose ``residual_l1`` its taps do not give,
        raises
        :class:`ShapeMismatchError` naming it; the constructor checks the
        levels, named by their position in level order.
        """
        _check_json(doc, "pyramid document", _DOCUMENT_FIELDS)
        family = family_from_description(doc["family"])
        for i, entry in enumerate(doc["level_params"]):
            _check_json(entry, f"level_params[{i}]", _LEVEL_FIELDS,
                        ("mask_family", "coarse_offset"))
        params = sorted(doc["level_params"], key=lambda entry: entry["level"])
        offsets = [params[0].get("coarse_offset", 0) if params else 0]
        level_params = []
        for entry in params:
            mask = Mask(FinSeq(entry["mask_taps"], entry["mask_offset"]),
                        level=entry["level"] - 1,
                        family_id=entry.get("mask_family", family.family_id))
            gamma = FinSeq(entry["gamma_taps"], entry["gamma_offset"])
            filt = DecimationFilter(
                zeta=FinSeq(entry["zeta_taps"], entry["zeta_offset"]),
                gamma_raw=gamma,
                epsilon=entry["epsilon"],
                residual_l1=entry["residual_l1"],
                decay_C=entry["decay_C"],
                decay_lambda=entry["decay_lambda"])
            offsets.append(entry["detail_offset"])
            level_params.append(LevelParams(mask, filt))
        coarse = _decode_block(doc["coarse"], "coarse")
        details = [_decode_block(block, f"details[{i}]")
                   for i, block in enumerate(doc["details"])]
        return cls(coarse, details, family, doc["epsilon"], doc["boundary"],
                   level_params, offsets, doc.get("support"))

    @classmethod
    def from_json(cls, text: str) -> "Pyramid":
        return cls.from_json_dict(json.loads(text))


def _analysis_input(data, levels: int, boundary: str):
    """Validated analysis input as a column-major ``(N, D)`` block plus offset.

    Needs ``levels >= 1``; a sequence object of the boundary's kind, taken
    as it is, or a 1-D or 2-D :func:`_real_array`, at offset 0; and for
    periodic data a nonzero period divisible by ``2**levels``.
    """
    levels = _levels(levels)
    if boundary not in ("periodic", "finite"):
        raise BadParamsError(f"unknown boundary mode {boundary!r}")
    periodic = boundary == "periodic"
    if isinstance(data, (FinSeq, PeriodicSeq)):
        if isinstance(data, PeriodicSeq) != periodic:
            raise BadParamsError(
                f"{type(data).__name__} input conflicts with "
                f"boundary={boundary!r}")
        block = (data.values if periodic else data.coeffs)[:, None]
        offset = 0 if periodic else data.offset
    else:
        block, offset = _real_array(data, "input data"), 0
        if block.ndim not in (1, 2):
            raise BadParamsError(
                "data must be 1-D or 2-D (samples x components)")
        block = block[:, None] if block.ndim == 1 else block
    if periodic and block.shape[0] < 1:
        raise BadParamsError("period must be at least 1")
    if periodic and block.shape[0] % (2 ** levels) != 0:
        raise PeriodNotDivisibleError(
            f"period not divisible: {block.shape[0]} samples cannot be "
            f"halved {levels} times")
    return np.asfortranarray(block), offset


def _analysis_step(mask: Mask, filt: DecimationFilter, block: np.ndarray,
                   coarse=None, detail=None, width=None):
    """One analysis level on a cyclic 2-D block: ``(D c, c - S D c)``.

    The two go into new arrays, or into ``coarse`` and ``detail``: the
    same columns of level blocks ``width`` columns wide as ``block`` is.
    """
    coarse = _decimate_block(filt, block, coarse, width)
    detail = _refine_block(mask, coarse, detail, width)
    np.subtract(block, detail, out=detail)
    return coarse, detail


# A periodic chain of at least this many finest rows splits its columns
# into two groups (see _column_split).  Below it the helper thread
# costs more than it saves: at 2^14 to 2^16 rows the split lost, from
# 2^17 on it won (table in CHANGES.md).
_SPLIT_MIN_ROWS = 2 ** 17


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity sets
        return os.cpu_count() or 1


def _column_split(rows: int, width: int) -> int:
    """The first column of a level chain's second group; 0 for one group.

    A chain of at least ``_SPLIT_MIN_ROWS`` rows at its finest level and
    two or more columns, in a process that may run on two CPUs, runs in
    two groups: the first ceil(D/2) columns and the rest.
    """
    if width < 2 or rows < _SPLIT_MIN_ROWS or _usable_cpus() < 2:
        return 0
    return (width + 1) // 2


def _in_column_groups(chain, blocks, half: int) -> None:
    """Run ``chain`` over every column of a periodic level chain.

    ``chain`` computes all levels from a list of the same columns of each
    of ``blocks``, the chain's level blocks.  With ``half`` 0 it gets
    ``blocks`` itself.  Otherwise the calling thread runs it on the
    columns before ``half`` and a helper thread, started and joined here,
    on the rest.  The helper runs in a copy of the caller's context, so
    the caller's ``np.errstate`` holds in it, and its exception is raised
    here after the join.
    """
    if not half:
        chain(blocks)
        return
    failed = []

    def helper():
        try:
            chain([block[:, half:] for block in blocks])
        except BaseException as exc:  # raised in the caller, below
            failed.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run,
                              args=(helper,))
    thread.start()
    try:
        chain([block[:, :half] for block in blocks])
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _periodic_analysis(block: np.ndarray, steps):
    """The coarse block and the details, finest first, of a periodic chain.

    ``steps`` holds the :class:`LevelParams` of levels J..1.  Two column
    groups write into level blocks allocated here, once.  One group
    leaves each level to allocate its blocks as it comes, in memory the
    level before has just freed: from 2^14 to 2^16 rows that ran up to
    20% faster than allocating every level first.
    """
    (n, width), levels = block.shape, len(steps)
    half = _column_split(n, width)
    # the details, finest first, then the coarse blocks
    rows = [n >> k for k in range(levels)] + [n >> k
                                              for k in range(1, levels + 1)]
    blocks = [block] + [np.empty((r, width), order="F") if half else None
                        for r in rows]

    def chain(blocks):
        block = blocks[0]
        for k, lp in enumerate(steps):
            block, blocks[1 + k] = _analysis_step(
                lp.mask, lp.filt, block, blocks[1 + levels + k],
                blocks[1 + k], width)
        blocks[-1] = block

    _in_column_groups(chain, blocks, half)
    return blocks[-1], blocks[1:levels + 1]


def analyze(data, family: SchemeFamily, levels: int,
            epsilon: float = DEFAULT_EPSILON,
            boundary: str = "periodic") -> Pyramid:
    """Decompose ``data`` into a pyramid with ``levels`` detail layers.

    Periodic data must have its period divisible by ``2**levels``.  Finite
    data records its index range, to which synthesis trims.  The
    step-l mask is the family's mask after l-1 refinements, so a conic
    family initialized from the coarse sample count reproduces the
    per-level tension selection that keeps sampled circles exact.
    ``data`` is a real 1-D or 2-D array (samples x components) or a
    sequence object of the boundary's kind; complex or non-finite input,
    or details that overflow to infinity, raise :class:`DomainError`,
    anything else :class:`BadParamsError`, as a ``family`` that is not a
    :class:`SchemeFamily` and an ``epsilon`` outside (0, 1) do.
    """
    family = _instance(family, SchemeFamily, "family")
    epsilon = _epsilon(epsilon)
    block, offset = _analysis_input(data, levels, boundary)
    periodic = boundary == "periodic"
    support = None if periodic else (offset, offset + block.shape[0])
    # Level J first, as analysis runs.
    steps = [_level_params(family, level, epsilon)
             for level in range(levels, 0, -1)]
    details = []
    offsets = [0] * (levels + 1)
    # Finite input can overflow to infinite details; the finiteness check
    # of the blocks raises DomainError for them, not a warning here.
    with np.errstate(over="ignore", invalid="ignore"):
        if periodic:
            block, details = _periodic_analysis(block, steps)
        else:
            for level, params in zip(range(levels, 0, -1), steps):
                mask, filt = params.mask, params.filt
                # D reaches reach(zeta) coarse rows past the data, S another
                # reach(mask) fine rows: 2*reach(zeta) + reach(mask) in all.
                pad = 2 * _reach(filt.zeta) + _reach(mask.taps)
                block, start = _frame(block, offset, offset - pad,
                                      offset + block.shape[0] + pad)
                coarse, detail = _analysis_step(mask, filt, block)
                detail, offsets[level] = _trim(detail, start)
                block, offset = _trim(coarse, start // 2)
                # Owned copies, not views that would keep the frame alive.
                details.append(np.array(detail, order="F"))
            block = np.array(block, order="F")
    for b in [block] + details:
        b.setflags(write=False)
    offsets[0] = offset
    return Pyramid._of_analysis([block] + details[::-1], offsets, family,
                                epsilon, boundary, steps[::-1], support)


def _periodic_synthesis(coarse: np.ndarray, level_params, details):
    """The finest block of a periodic synthesis chain, levels 1..J.

    The level blocks are allocated here, once: level J's block, and one
    of half its rows.  Going down from J, the levels take their rows
    from the two in turn, so level l writes over level l-2, which level
    l-1 has read.  Each column stays in its own column of the two, so
    neither column group reads what the other writes.
    """
    if not details:
        return coarse
    (n, width), levels = details[-1].shape, len(details)
    bufs = (np.empty((n, width), order="F"),
            np.empty((n // 2, width), order="F"))
    fine = [coarse] + [bufs[(levels - level) % 2][:d.shape[0]]
                       for level, d in enumerate(details, 1)]

    def chain(blocks):
        values, adds = blocks[:levels + 1], blocks[levels + 1:]
        for lp, block, out, detail in zip(level_params, values, values[1:],
                                          adds):
            _refine_block(lp.mask, block, out, width)
            out += detail

    _in_column_groups(chain, fine + list(details), _column_split(n, width))
    return fine[-1]


def _synthesize_block(pyramid: Pyramid):
    """Run the synthesis levels; returns the finest block and its offset.

    Finite blocks can sum past the float range; a synthesized block that
    is not finite raises :class:`DomainError`, not a warning.
    """
    block, offset = pyramid.coarse, pyramid.offsets[0]
    with np.errstate(over="ignore", invalid="ignore"):
        if pyramid.boundary == "periodic":
            block = _periodic_synthesis(block, pyramid.level_params,
                                        pyramid.details)
        else:
            for lp, detail, detail_offset in zip(pyramid.level_params,
                                                 pyramid.details,
                                                 pyramid.offsets[1:]):
                # The coarse frame reaches half the mask's reach (plus one
                # row) beyond the block, so S never wraps, and covers the
                # detail too.
                half = _reach(lp.mask.taps) // 2 + 1
                frame, start = _frame(
                    block, offset, min(offset - half, detail_offset // 2),
                    max(offset + block.shape[0] + half,
                        (detail_offset + detail.shape[0] + 1) // 2))
                fine = _refine_block(lp.mask, frame)
                fine[detail_offset - 2 * start:
                     detail_offset - 2 * start + detail.shape[0]] += detail
                block, offset = _trim(fine, 2 * start)
    _check_finite([block], "synthesized values")
    return block, offset


def _output_block(pyramid: Pyramid):
    """The synthesized block over the recorded input support, if any.

    Beyond the support, finite synthesis leaves only rounding residues of
    the analysis frame; they are dropped.  Rows of the support that the
    synthesized block does not reach are zero.
    """
    block, offset = _synthesize_block(_instance(pyramid, Pyramid, "pyramid"))
    if pyramid.support is None:
        return block, offset
    lo, hi = pyramid.support
    out = np.zeros((hi - lo, block.shape[1]), order="F")
    first, last = max(lo, offset), min(hi, offset + block.shape[0])
    if first < last:
        out[first - lo:last - lo] = block[first - offset:last - offset]
    return out, lo


def synthesize(pyramid: Pyramid):
    """Invert :func:`analyze`; returns components like the analyzed input.

    Uses the masks recorded in the pyramid, so a deserialized pyramid
    reconstructs with exactly the operators the analysis applied.
    All components are refined together as one ``(N, D)`` block.  A
    finite pyramid that recorded its input's support comes back on it.
    """
    block, offset = _output_block(pyramid)
    return _components(block, offset, pyramid.boundary == "periodic")


def synthesize_array(pyramid: Pyramid):
    """Synthesize into an array (N,) or (N, D); a finite offset is dropped.

    A finite pyramid that recorded its input's support gives an array of
    the input's shape.
    """
    block, _ = _output_block(pyramid)
    return block[:, 0] if block.shape[1] == 1 else block


# ---------------------------------------------------------------------------
# decay reporting and executable bound checks


@dataclass(frozen=True)
class DetailDecayReport:
    """Detail-norm statistics per level, level 1 (coarsest) first."""

    per_level_inf: list
    per_level_l1: list
    per_level_avg_l2: list

    @property
    def levels(self) -> int:
        return len(self.per_level_inf)

    @property
    def ratios(self) -> list:
        """Coarse-to-fine sup-norm ratios; 0/0 is nan, x/0 is inf."""
        return [hi / lo if lo else (math.inf if hi else math.nan)
                for hi, lo in zip(self.per_level_inf, self.per_level_inf[1:])]

    @property
    def verdict_scale(self) -> float:
        """The largest per-level average norm; 0.0 for no level."""
        return max(self.per_level_avg_l2, default=0.0)


def detail_decay_report(pyramid: Pyramid) -> DetailDecayReport:
    """Per-level detail statistics and consecutive-level sup-norm ratios.

    Coefficient norms are Euclidean across components, so for planar
    curves each detail coefficient contributes one magnitude.
    """
    pyramid = _instance(pyramid, Pyramid, "pyramid")
    inf_norms, l1_norms, avg_norms = [], [], []
    with np.errstate(over="ignore"):
        for block in pyramid.details:
            # the reductions e.max() and e.sum() make, without their
            # wrappers; the mean is the division np.mean makes of that sum
            e = _row_norms(block)
            total = float(np.add.reduce(e))
            inf_norms.append(float(np.maximum.reduce(e)) if e.size else 0.0)
            l1_norms.append(total)
            avg_norms.append(total / e.size if e.size else 0.0)
    return DetailDecayReport(inf_norms, l1_norms, avg_norms)


def detail_bound(pyramid: Pyramid, fprime_inf: float) -> list:
    """Evaluate the decay estimate's right-hand side at every level.

    For data sampled from a differentiable function with derivative bound
    ``fprime_inf`` on the dyadic grid matching the pyramid depth, level l
    details are bounded by

        (K_zeta ||alpha||_1 + K_alpha ||zeta||_1) * fprime_inf
        * prod_{m=l..J} ||zeta^(m)||_1 / ||zeta^(l)||_1 * 2^{-l}.

    A negative ``fprime_inf`` raises :class:`BadParamsError`.
    """
    pyramid = _instance(pyramid, Pyramid, "pyramid")
    fprime_inf = _real_scalar(fprime_inf, "fprime_inf")
    if fprime_inf < 0:
        raise BadParamsError(
            f"fprime_inf must be nonnegative, got {fprime_inf}")
    zeta_norms, tails = _zeta_tails(pyramid.level_params)
    bounds = []
    for lp, zeta_norm, tail in zip(pyramid.level_params, zeta_norms, tails):
        alpha = lp.mask.taps
        zeta = lp.filt.zeta
        k_az = (k_const(zeta) * norm_l1(alpha)
                + k_const(alpha) * norm_l1(zeta))
        bounds.append(k_az * fprime_inf * tail / zeta_norm
                      * 2.0 ** (-lp.level))
    return bounds


def _zeta_tails(level_params):
    """``||zeta^(l)||_1`` and ``prod_{m=l..J} ||zeta^(m)||_1``, l = 1..J."""
    norms = [norm_l1(lp.filt.zeta) for lp in level_params]
    return norms, [math.prod(norms[i:]) for i in range(len(norms))]


# ---------------------------------------------------------------------------
# stability


def _amplification(masks) -> float:
    """M**J if M > 1 else 1, for the largest operator norm M of J masks."""
    m_norm = max(operator_norm_inf(mask) for mask in masks)
    return m_norm ** len(masks) if m_norm > 1.0 else 1.0


def reconstruction_stability_bound(family: SchemeFamily, levels: int) -> float:
    """Amplification constant L of the synthesis: M**J if M > 1 else 1."""
    family = _instance(family, SchemeFamily, "family")
    return _amplification([family.mask_at_level(k)
                           for k in range(_levels(levels))])


def _diff_norm(a: np.ndarray, a_offset: int,
               b: np.ndarray, b_offset: int) -> float:
    """Largest Euclidean row norm of ``a - b``, rows aligned by index.

    Callers hold ``np.errstate(over="ignore")``, as for :func:`_row_norms`.
    """
    lo = min(a_offset, b_offset)
    hi = max(a_offset + a.shape[0], b_offset + b.shape[0])
    diff = np.zeros((hi - lo, a.shape[1]))
    diff[a_offset - lo: a_offset - lo + a.shape[0]] += a
    diff[b_offset - lo: b_offset - lo + b.shape[0]] -= b
    return float(_row_norms(diff).max(initial=0.0))


@dataclass(frozen=True)
class StabilityCheck:
    """A stability inequality ``lhs <= rhs``, which holds up to rounding."""

    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-12 * (1.0 + self.rhs)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def check_reconstruction_stability(pyramid: Pyramid,
                                   perturbed: Pyramid) -> StabilityCheck:
    """Check the synthesis stability inequality on two pyramids.

    Both are synthesized; the output distance must not exceed L times the
    summed input distances (coarse plus all detail levels).
    """
    pyramid = _instance(pyramid, Pyramid, "pyramid")
    perturbed = _instance(perturbed, Pyramid, "perturbed")
    if (pyramid.levels != perturbed.levels
            or pyramid.n_components != perturbed.n_components
            or pyramid.boundary != perturbed.boundary
            or (pyramid.boundary == "periodic"
                and pyramid.coarse.shape != perturbed.coarse.shape)):
        raise ShapeMismatchError("pyramids are not comparable")
    big_l = _amplification([lp.mask for lp in pyramid.level_params])
    budget = 0.0
    with np.errstate(over="ignore"):
        for a, a_offset, b, b_offset in zip(
                (pyramid.coarse,) + pyramid.details, pyramid.offsets,
                (perturbed.coarse,) + perturbed.details, perturbed.offsets):
            budget += _diff_norm(a, a_offset, b, b_offset)
        lhs = _diff_norm(*_synthesize_block(pyramid),
                         *_synthesize_block(perturbed))
    return StabilityCheck(lhs, big_l * budget)


# The number of random sign sequences the operator-norm estimate tries.
_TRIALS = 200


def residual_operator_norm_estimate(mask: Mask,
                                    filt: DecimationFilter) -> float:
    """Randomized lower bound for the sup operator norm of ``I - S D``.

    Maximizes ``||c - S(D c)||_inf`` over 200 random sign sequences of
    unit sup norm, drawn from a generator seeded with 0, on a period
    comfortably larger than the operator stencils.  The sequences are the
    columns of one block, analyzed in one step.
    A lower-bound estimate only; pair it with the analytic upper bound
    ``1 + ||S|| * ||zeta||_1`` for sound inequality checks.
    """
    mask = _instance(mask, Mask, "mask")
    filt = _instance(filt, DecimationFilter, "filt")
    reach = len(filt.zeta) + 2 * len(mask.taps) + 8
    period = 2 * (reach + reach % 2 + 8)
    signs = np.random.default_rng(0).choice((-1.0, 1.0),
                                            size=(_TRIALS, period))
    _, out = _analysis_step(mask, filt, signs.T)
    return float(np.abs(out).max())


@dataclass(frozen=True)
class LevelStability(StabilityCheck):
    """A detail level's inequality and the ``I - S D`` norms its rhs reads."""

    level: int
    opnorm_upper: float
    opnorm_lower_estimate: float


@dataclass(frozen=True)
class DecompositionStability:
    coarse: StabilityCheck
    per_level: tuple

    @property
    def holds(self) -> bool:
        return self.coarse.holds and all(e.holds for e in self.per_level)


def check_decomposition_stability(data, data_tilde, family: SchemeFamily,
                                  levels: int,
                                  epsilon: float = DEFAULT_EPSILON,
                                  boundary: str = "periodic"
                                  ) -> DecompositionStability:
    """Check the analysis stability inequalities on two inputs.

    The coarse outputs must differ by at most the product of the filter
    l1 norms times the input distance, and each detail level by at most
    the corresponding ``I - S D`` operator norm times accumulated filter
    norms.  The unbounded-support operator norm is checked against its
    analytic upper bound; the randomized lower estimate is reported
    alongside for diagnostics.
    """
    p = analyze(data, family, levels, epsilon, boundary)
    q = analyze(data_tilde, family, levels, epsilon, boundary)
    fine_p, offset_p = _analysis_input(data, levels, boundary)
    fine_q, offset_q = _analysis_input(data_tilde, levels, boundary)
    if fine_p.shape[1] != fine_q.shape[1] or (
            boundary == "periodic" and fine_p.shape != fine_q.shape):
        raise ShapeMismatchError("inputs are not comparable")
    zeta_norms, tails = _zeta_tails(p.level_params)
    per_level = []
    with np.errstate(over="ignore"):
        diff_fine = _diff_norm(fine_p, offset_p, fine_q, offset_q)
        coarse = StabilityCheck(
            _diff_norm(p.coarse, p.offsets[0], q.coarse, q.offsets[0]),
            tails[0] * diff_fine)
        for lp, zeta_norm, tail in zip(p.level_params, zeta_norms, tails):
            lhs = _diff_norm(p.details[lp.level - 1], p.offsets[lp.level],
                             q.details[lp.level - 1], q.offsets[lp.level])
            upper = 1.0 + operator_norm_inf(lp.mask) * zeta_norm
            lower = residual_operator_norm_estimate(lp.mask, lp.filt)
            per_level.append(LevelStability(
                lhs, upper * tail / zeta_norm * diff_fine, lp.level, upper,
                lower))
    return DecompositionStability(coarse, tuple(per_level))
