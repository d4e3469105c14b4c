"""Finitely supported and periodic real sequences, and the cyclic kernel.

Two carriers are provided.  :class:`FinSeq` stores a finitely supported
bi-infinite sequence as an offset plus a coefficient block, trimmed so
that the first and last stored entries are nonzero.  :class:`PeriodicSeq`
stores one period of an N-periodic sequence; all indexing is modulo N.
Both are immutable, hold finite real values only (:class:`DomainError`
otherwise) and are not iterable: read ``coeffs`` or ``values``.  Besides
them the module holds the norms and the moment constant the pyramid's
bounds read, and the sequence CSV format.

Every cyclic convolution runs through one kernel, :func:`_cyclic_convolve`,
along axis 0 of an ``(N,)`` or ``(N, D)`` array, for every filter that
reads it: refinement's two polyphase phases in one call, decimation's
one filter in another.  It picks one of three strategies per filter
(blocked Toeplitz GEMMs, an in-place seam split, a loop of
``np.correlate``) by tap count and block size; its docstring gives the
crossovers, measured on a 2-core x86 host.

Refinement and decimation in :mod:`nspyr.subdivision` and
:mod:`nspyr.decimation` call the kernel on whole ``(N, D)`` blocks,
which the pyramid keeps column-major so that every column the kernel
reads and writes is contiguous.  Finite data, in ``refine``,
``decimate`` and the pyramid alike, goes on a zero frame (:func:`_frame`)
wide enough for the kernel to compute linear convolutions.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (BadParamsError, _Immutable, _index, _instance,
                     _real_array)

# Magnitudes below this are flushed to exact zero on construction to keep
# denormals out of canonical trimming.
_FLUSH = 1e-300


def _clean(values) -> np.ndarray:
    """A flushed 1-D copy of sequence values that pass :func:`_real_array`."""
    arr = _real_array(values, "sequence values").copy()
    if arr.ndim != 1:
        raise BadParamsError("sequence values must be one-dimensional")
    arr[np.abs(arr) < _FLUSH] = 0.0
    return arr


class FinSeq(_Immutable):
    """Finitely supported real sequence on the integers.

    Parameters
    ----------
    coeffs : array_like
        Consecutive coefficients starting at ``offset``.  Leading and
        trailing zeros are trimmed; interior zeros are kept.
    offset : int
        Index of the first entry of ``coeffs``; anything
        ``operator.index`` does not read raises :class:`BadParamsError`.

    Notes
    -----
    The support of a nonempty sequence is ``[offset, offset + len - 1]``
    and both endpoints hold nonzero values.  The empty sequence is the
    zero sequence.
    """

    __slots__ = ("offset", "coeffs")
    _args = _key = ("coeffs", "offset")
    __iter__ = None  # __getitem__ answers every index: iteration never ends

    def __init__(self, coeffs=(), offset: int = 0):
        offset = _index(offset, "offset")
        arr = _clean(coeffs)
        nz = arr.nonzero()[0]
        if nz.size == 0:
            arr = arr[:0]
        else:
            offset += int(nz[0])
            arr = arr[nz[0]: nz[-1] + 1]
        arr.setflags(write=False)
        object.__setattr__(self, "offset", offset if arr.size else 0)
        object.__setattr__(self, "coeffs", arr)

    def __len__(self) -> int:
        return self.coeffs.size

    @property
    def is_empty(self) -> bool:
        return self.coeffs.size == 0

    @property
    def support(self):
        """(lo, hi) index pair, or None for the zero sequence."""
        if self.is_empty:
            return None
        return (self.offset, self.offset + len(self) - 1)

    def __getitem__(self, index: int) -> float:
        pos = index - self.offset
        if 0 <= pos < len(self):
            return float(self.coeffs[pos])
        return 0.0

    def indices(self) -> np.ndarray:
        return self.offset + np.arange(len(self))

    def __repr__(self):
        if self.is_empty:
            return "FinSeq([])"
        return f"FinSeq({self.coeffs.tolist()}, offset={self.offset})"


def _finseq(values: np.ndarray, offset: int) -> FinSeq:
    """``FinSeq(values, offset)`` for values a computation has just made.

    ``values`` is a 1-D float64 array that no one else holds, and becomes
    the read-only ``coeffs``; ``offset`` is an int.  Instead of the
    constructor's copy, scan and trim, this checks that the largest
    magnitude is finite and that neither end lies below the flush
    threshold; only when the smallest magnitude does are the small entries
    (zeros and -0.0 among them) set to +0.0 in place, as the constructor
    sets them.  Values that fail a check go through ``FinSeq(...)``, which
    raises the same errors.  (``argmax`` and ``argmin`` cost a third of a
    reduction on small arrays, and take a NaN for the largest magnitude.)
    """
    mags = np.abs(values)
    if (not values.size or not math.isfinite(mags[mags.argmax()])
            or mags[0] < _FLUSH or mags[-1] < _FLUSH):
        return FinSeq(values, offset)
    if mags[mags.argmin()] < _FLUSH:
        values[mags < _FLUSH] = 0.0
    values.setflags(write=False)
    seq = FinSeq.__new__(FinSeq)
    object.__setattr__(seq, "offset", offset)
    object.__setattr__(seq, "coeffs", values)
    return seq


class PeriodicSeq(_Immutable):
    """N-periodic real sequence; ``values`` holds the period starting at 0."""

    __slots__ = ("values",)
    _args = _key = ("values",)
    __iter__ = None  # indexing wraps, so fallback iteration never stops

    def __init__(self, values):
        arr = _clean(values)
        if arr.size < 1:
            raise BadParamsError("period must be at least 1")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def period(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, index: int) -> float:
        return float(self.values[index % self.period])

    def __repr__(self):
        return f"PeriodicSeq({self.values.tolist()})"


def delta() -> FinSeq:
    """Kronecker delta: 1 at index 0."""
    return FinSeq([1.0], 0)


# ---------------------------------------------------------------------------
# the cyclic kernel and the zero frame of finite data


# The crossovers of _cyclic_convolve's strategies (tables in CHANGES.md).
# The loop's cost per output row jumps between 10 and 12 taps.  A GEMM
# block of _GEMM_BLOCK output rows reads only the next block past its
# own, so longer filters stay on the per-column paths.  np.correlate
# copies a strided column (decimation's every other row) anyway, and
# there the seam split lost at every size.
_GEMM_MIN_TAPS = 12
_GEMM_MIN_WORK = 4096
_GEMM_BLOCK = 64
_SEAM_MIN_ROWS = 16384


def _stencil(taps: np.ndarray, offset: int):
    """A filter in the form the cyclic kernel reads.

    ``taps`` holds the filter's coefficients from index ``offset`` on and
    must not be empty.  Returns the reversed taps, the head reach
    ``offset + K - 1`` and the tail reach ``-offset`` (K the tap count):
    output row n reads the column from row ``n - head`` to ``n + tail``.
    """
    return taps[::-1], offset + taps.size - 1, -offset


def _cyclic_convolve(stencils, values: np.ndarray, outs,
                     width=None) -> None:
    """Cyclic convolutions along axis 0 of an ``(N,)`` or ``(N, D)`` array.

    ``stencils`` holds one :func:`_stencil` per filter, every one of which
    reads ``values``.  For a filter of taps ``taps`` from index
    ``offset`` on, ``out[n] = sum_i taps[i] * values[(n - offset - i) mod
    N]``.  Any filter length works, including one longer than N.  Each
    result goes into its entry of ``outs``: arrays or views of
    ``values``' shape, of which one may alias ``values`` only in a call
    with one filter.  ``values`` may be a group of the columns of a
    level block ``width`` columns wide: the strategies are chosen from
    the whole block's entry count, so a column gets the same bits in any
    group.

    Every output row is the dot product of the reversed taps with K
    consecutive entries of the column wrap-extended by the filter's
    reach (K the tap count).  One of three strategies computes each
    filter's rows:

    - *GEMM*: a filter of ``_GEMM_MIN_TAPS`` (12) to ``_GEMM_BLOCK + 1``
      (65) taps on a block of at least ``_GEMM_MIN_WORK`` (4096) entries
      goes through :func:`_toeplitz_convolve`, all columns at once.
      Above that crossover it ran 1.04-5.9 times faster than the loop;
      below it the products' set-up outweighs what they save.  It agrees
      with the loop to rounding.
    - *Seam split*: otherwise, a contiguous column of at least
      ``_SEAM_MIN_ROWS`` (16384) rows, under at most N taps that reach
      at most one period past either end, goes through
      :func:`_seam_correlate`: no extended copy, only a ``2(K-1)``-entry
      one of the column's two ends for the seam rows.  From 2^14 rows on
      it ran 1.02-1.47 times faster than the loop; at 8192 rows it broke
      even, below that and on strided columns it lost.  Its bits are the
      loop's.
    - *Loop*: every other filter runs one ``np.correlate(..., "valid")``
      over a buffer of the columns, each wrap-extended once by the
      largest reach of these filters, end to end (by slicing, or by
      ``np.take(mode="wrap")`` for a reach beyond one period).  A row
      reads the K entries the filter's own extension would hold, so the
      bits are those of one filter and one column at a time.
    """
    n = values.shape[0]
    cols = values[:, None] if values.ndim == 1 else values
    gemm = n * (width or cols.shape[1]) >= _GEMM_MIN_WORK
    seam = _SEAM_MIN_ROWS <= n and values.strides[0] == values.itemsize
    # The loop's filters, and the reach of the one extension they share:
    # it covers rows -head to n + tail, so it holds each filter's own.
    loop, head, tail = [], 0, 0
    for (rtaps, h, t), out in zip(stencils, outs):
        out_cols = out[:, None] if out.ndim == 1 else out
        fits = 0 <= h <= n and 0 <= t <= n
        if gemm and _GEMM_MIN_TAPS <= rtaps.size <= _GEMM_BLOCK + 1:
            _toeplitz_convolve(rtaps[::-1], h, None if fits
                               else np.arange(-h, n + t), cols, out_cols)
        elif seam and fits and rtaps.size <= n:
            for d in range(cols.shape[1]):
                _seam_correlate(rtaps, h, t, cols[:, d], out_cols[:, d])
        else:
            loop.append((rtaps, h, t, out_cols))
            if h > head:
                head = h
            if t > tail:
                tail = t
    if not loop:
        return
    # buf is a view of ext when ext is column-major, as it is for
    # column-major input.  Column d's rows are the n windows from
    # d * (head + n + tail) + head - h on, each inside column d's part.
    ext = (np.concatenate((cols[n - head:], cols, cols[:tail]))
           if head <= n and tail <= n
           else np.take(cols, np.arange(-head, n + tail), axis=0,
                        mode="wrap"))
    buf = ext.T.reshape(-1)
    # np.convolve(ext, taps) is np.correlate(ext, taps[::-1]) behind a
    # wrapper; buf is never shorter than taps, so the two agree bit for bit.
    for rtaps, h, t, out_cols in loop:
        windows = np.correlate(buf, rtaps, "valid")
        for d in range(cols.shape[1]):
            first = d * ext.shape[0] + head - h
            out_cols[:, d] = windows[first:first + n]


def _seam_correlate(rtaps, head, tail, col, out_col) -> None:
    """The seam-split strategy of :func:`_cyclic_convolve` for one column.

    Rows ``head`` to ``N - tail`` correlate the column where it lies.  The
    K-1 seam rows, where the output wraps, correlate one copy of the
    column's last and first K-1 entries: output rows ``N - tail`` to N,
    then 0 to ``head``.  Each row is the dot product of the same K
    entries as on the wrap-extended column, so the bits agree.  The copy
    is made before ``out_col``, which may alias ``col``, is written.
    """
    n = col.shape[0]
    edge = np.concatenate((col[n - head - tail:], col[:head + tail]))
    out_col[head:n - tail] = np.correlate(col, rtaps, "valid")
    if edge.size:  # a one-tap filter has no seam
        edge = np.correlate(edge, rtaps, "valid")
        out_col[n - tail:] = edge[:tail]
        out_col[:head] = edge[tail:]


def _toeplitz_convolve(taps, head, wrap, cols, out_cols) -> None:
    """The GEMM strategy of :func:`_cyclic_convolve` for a 2-D block.

    The wrap-extended columns are the zero-padded rows of one ``(D,
    (nb+1)*B)`` buffer ``E``, viewed as ``(D, nb+1, B)``.  Output block
    ``j`` reads input blocks ``j`` and ``j+1``, so it is ``E[j] @ T0 +
    E[j+1, :K-1] @ T1``, with ``[T0; T1]`` the ``(B+K-1, B)`` Toeplitz
    matrix of the reversed taps.  The blocks go to BLAS in runs of at
    most B, so every GEMM is at most ``(B, B) @ (B, B)``: small enough
    for OpenBLAS to run on the calling thread, so no call waits for BLAS
    worker threads (on a busy host such a wait can cost milliseconds).
    The products land straight in ``out``, strided or not, when the runs
    tile N exactly; otherwise they go through one temporary.
    """
    n, width = cols.shape
    k, b = taps.size, _GEMM_BLOCK
    runs = -(-n // (b * b))
    per_run = -(-n // (b * runs))
    blocks = runs * per_run
    ext = np.empty((width, (blocks + 1) * b))
    ext[:, n + k - 1:] = 0.0
    if wrap is None:
        ext[:, :head] = cols[n - head:].T
        ext[:, head:head + n] = cols.T
        ext[:, head + n:n + k - 1] = cols[:k - 1 - head].T
    else:
        np.take(cols.T, wrap, axis=1, mode="wrap", out=ext[:, :n + k - 1])
    ext = ext.reshape(width, blocks + 1, b)
    # toeplitz[i, j] = taps[k - 1 - i + j]: the rows of a sliding window
    # over the zero-padded taps, last window first
    padded = np.zeros(k + 2 * b - 2)
    padded[b - 1:b - 1 + k] = taps
    toeplitz = np.ascontiguousarray(sliding_window_view(padded, b)[::-1])
    shape = (width, runs, per_run)
    direct = n == blocks * b
    res = (out_cols.T.reshape(shape + (b,)) if direct
           else np.empty(shape + (b,)))
    np.matmul(ext[:, :-1].reshape(shape + (b,)), toeplitz[:b], out=res)
    res += ext[:, 1:, :k - 1].reshape(shape + (k - 1,)) @ toeplitz[b:]
    if not direct:
        out_cols[...] = res.reshape(width, blocks * b)[:, :n].T


def _reach(seq: FinSeq) -> int:
    """Largest |index| in the support of a filter or mask."""
    return max(abs(seq.offset), abs(seq.offset + len(seq) - 1))


def _frame(block: np.ndarray, offset: int, lo: int, hi: int):
    """Zero frame over at least ``[lo, hi)`` holding ``block`` from ``offset``.

    ``block`` is ``(N,)`` or ``(N, D)``.  The frame starts at an even
    index and has an even number of rows; returns the frame and the
    index of its first row.
    """
    start = lo - lo % 2
    rows = hi - start + (hi - start) % 2
    frame = np.zeros((rows,) + block.shape[1:], order="F")
    frame[offset - start: offset - start + block.shape[0]] = block
    return frame, start


def _trim(block: np.ndarray, start: int):
    """Drop the all-zero edge rows of a block starting at index ``start``.

    Returns the rest and its first index, 0 for an all-zero block.
    """
    # block.any(axis=1) without the wrapper of ndarray.any
    rows = np.logical_or.reduce(block, axis=1).nonzero()[0]
    if rows.size == 0:
        return block[:0], 0
    return block[rows[0]: rows[-1] + 1], start + int(rows[0])


# ---------------------------------------------------------------------------
# norms and functionals


def _add_reduce(values: list) -> float:
    """``np.add.reduce`` of a list of floats, bit for bit.

    numpy adds fewer than eight terms one by one from 0.0, as this does
    without numpy's per-call cost; from eight on it sums pairwise, so
    longer lists go to numpy.
    """
    if len(values) >= 8:
        return float(np.add.reduce(np.array(values, dtype=float)))
    total = 0.0
    for value in values:
        total += value
    return total


def _data(c) -> np.ndarray:
    """The values of a sequence object; anything else raises BadParamsError."""
    c = _instance(c, (FinSeq, PeriodicSeq), "c")
    return c.coeffs if isinstance(c, FinSeq) else c.values


def norm_l1(c) -> float:
    return float(np.abs(_data(c)).sum())


def k_const(c: FinSeq) -> float:
    """Moment constant ``2 * sum_i |c_i| * |i|`` in the sequence's own frame.

    Masks and filters are stored centered (symmetry point at index 0), so
    the constant is well defined for them.
    """
    if _instance(c, FinSeq, "c").is_empty:
        return 0.0
    return float(2.0 * np.sum(np.abs(c.coeffs) * np.abs(c.indices())))


# ---------------------------------------------------------------------------
# CSV interchange


# CSV writers format this many rows from one ``tolist()`` per write: the
# Python floats and the text held at once stay under 0.1 MB (a 2^14-row
# ``tolist()`` of a curve would hold about 2 MB).
_CSV_ROWS = 256


def write_sequence_csv(path, c) -> None:
    """Write ``index,value`` rows (FinSeq) or a period header plus values."""
    values = _data(c)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(c, PeriodicSeq):
            fh.write(f"# period={c.period}\n")
        for start in range(0, values.size, _CSV_ROWS):
            chunk = values[start:start + _CSV_ROWS].tolist()
            if isinstance(c, PeriodicSeq):
                fh.write("".join([f"{v!r}\n" for v in chunk]))
            else:
                fh.write("".join([f"{i},{v!r}\n" for i, v in
                                  enumerate(chunk, c.offset + start)]))


def _parse_rows(path, lines, parse) -> list:
    """``parse`` of each ``(lineno, text)`` line of a CSV file.

    A line it cannot parse raises :class:`BadParamsError` naming the file
    and the 1-based line.
    """
    out = []
    for lineno, text in lines:
        try:
            out.append(parse(text))
        except ValueError:
            raise BadParamsError(
                f"{path}, line {lineno}: cannot parse {text!r}") from None
    return out


def _index_value(text: str):
    index, value = text.split(",")
    return int(index), float(value)


def read_sequence_csv(path):
    """Inverse of :func:`write_sequence_csv`.

    A line that does not parse, or repeats an index of an earlier line,
    raises :class:`BadParamsError` naming the file and the 1-based line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1)
                 if ln.strip()]
    if lines and lines[0][1].startswith("#"):
        header = lines[0][1].lstrip("#").strip()
        if not header.startswith("period="):
            raise BadParamsError(f"unrecognized sequence header: {header!r}")
        period = _parse_rows(path, lines[:1],
                             lambda text: int(text.split("=", 1)[1]))[0]
        values = _parse_rows(path, lines[1:], float)
        if len(values) != period:
            raise BadParamsError(
                f"expected {period} values, found {len(values)}")
        return PeriodicSeq(values)
    pairs = _parse_rows(path, lines, _index_value)
    seen = set()
    for (lineno, _), (index, _) in zip(lines, pairs):
        if index in seen:
            raise BadParamsError(
                f"{path}, line {lineno}: repeated index {index}")
        seen.add(index)
    if not pairs:
        return FinSeq()
    pairs.sort()
    lo = pairs[0][0]
    hi = pairs[-1][0]
    out = np.zeros(hi - lo + 1)
    for i, v in pairs:
        out[i - lo] = v
    return FinSeq(out, lo)
