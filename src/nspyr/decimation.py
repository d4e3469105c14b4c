"""Reverse decimation filters for subdivision masks.

A mask ``alpha`` is reversed by the filter ``gamma`` solving the
convolution equation ``gamma * even(alpha) = delta``; the decimation
``D(c) = gamma * downsample2(c)`` then recovers the coarse points a
refinement produced, in the sense that ``c - S(D(c))`` vanishes at even
indices.  ``gamma`` has infinite support but decays geometrically
whenever the even-part symbol has no zero on the unit circle, so it is
truncated at a threshold ``epsilon`` and renormalized to unit sum.

The solve reads everything from the roots of the even part, a Laurent
polynomial (Bartels & Samavati, "Reversing subdivision rules", 2000),
found as the eigenvalues of its companion matrix (``np.linalg.eigvals``
of the matrix ``np.roots`` builds): the symbol is tested for zeros on
the unit circle at the roots' angles, the exact decay rate ``lambda`` is
the root modulus nearest the circle (inverted outside it; roots that
the eigenvalue solver splits off a repeated root are merged first), and
a partial-fraction bound fixes the window ``[-W, W]``, whose outer half
must fall below ``epsilon / 10``.  With no zero on the circle the
inverse is the Fourier inverse of the symbol, so ``gamma`` is read from
the FFT of ``1 / a`` on a grid of m >= 2W + 1 points, then corrected
once by the FFT inverse of the residual ``delta - a * gamma``, itself
computed by direct convolution, which gives the small tail
coefficients their relative accuracy back.  The filter records the
threshold, the l1 residual of the convolution equation and the decay
envelope.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParamsError,
    EmptyEvenPartError,
    NoConvergenceError,
    OddPeriodError,
    SymbolZeroOnCircleError,
)
from .sequences import (
    FinSeq,
    PeriodicSeq,
    _cyclic_convolve,
    _frame,
    _reach,
    _stencil,
    delta,
)
from .subdivision import Mask

_SYMBOL_MIN = 1e-9
_MAX_WINDOW = 2 ** 16
_ROOT_MERGE = 1e-3  # relative distance below which roots count as one
_FILTER_CACHE_MAX = 2048  # filters solve_gamma keeps, oldest out first


def _even_taps(mask: Mask):
    """The even part's coefficients and offset: entry j is alpha_{2j}.

    Read from the mask's even phase with its zero ends trimmed, with no
    sequence built: this is the filter cache's key.
    """
    even, offset = mask._phases[0]
    kept = even.nonzero()[0]
    if kept.size == 0:
        raise EmptyEvenPartError(
            f"mask {mask.family_id!r} level {mask.level} has no even taps")
    return even[kept[0]: kept[-1] + 1], offset + int(kept[0])


def _merge_close_roots(roots, size, gaps) -> np.ndarray:
    """Roots with each group closer than 1e-3 (relative) set to its mean.

    ``size`` and ``gaps`` are ``|roots|`` and the pairwise ``|r_i - r_k|``.
    The eigenvalue solver splits a root of multiplicity m into m roots
    about eps^(1/m) apart; their mean, fixed by the coefficients, is
    accurate.
    Roots farther apart pass through unchanged (``roots`` itself comes
    back when no two are close).  Only the reported decay rate reads the
    merged roots: the symbol test and the window keep the roots as
    found, so two distinct roots near the circle still fail.
    """
    close = gaps <= _ROOT_MERGE * np.maximum.outer(size, size)
    if np.count_nonzero(close) == roots.size:  # the diagonal alone
        return roots
    merged = roots.copy()
    left = np.ones(roots.size, dtype=bool)
    for i in range(roots.size):
        if not left[i]:
            continue
        group = close[i]
        while not np.array_equal(grown := close[group].any(axis=0), group):
            group = grown
        merged[group] = roots[group].mean()
        left &= ~group
    return merged


def _decay_rate(size: np.ndarray) -> float:
    """Root modulus nearest the unit circle, inverted outside it."""
    return float(np.minimum(size, 1.0 / size).max())


def _roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of ``sum_k coeffs[k] z^k``, bit for bit as ``np.roots`` gives.

    The eigenvalues of the companion matrix ``np.roots`` builds; its
    trimming of zero end taps is skipped, which trimmed taps never need.
    """
    companion = np.eye(coeffs.size - 1, k=-1)
    companion[0] = -coeffs[-2::-1] / coeffs[-1]
    return np.linalg.eigvals(companion)


def _half_width(a, gaps, lam: float, epsilon: float) -> int:
    """Window half-width W with ``|gamma_j| < epsilon / 10`` for |j| > W/2.

    ``a`` is the pair ``(coeffs, lo)`` of taps and first index, ``gaps``
    the pairwise distances of the roots r_i of ``z^-lo a(z)``.  Partial
    fractions bound ``|gamma_j|`` by ``S / lambda * lambda^|j + lo|`` with
    ``S = sum 1 / |a_hi prod_(k != i) (r_i - r_k)|``; root gaps are floored
    at 1e-4 so that (nearly) repeated roots give a finite, larger bound.
    """
    coeffs, offset = a
    floored = np.maximum(gaps, 1e-4)
    floored.flat[::gaps.shape[0] + 1] = 1.0  # the diagonal
    residues = 1.0 / floored.prod(axis=1)
    bound = float(residues.sum()) / (abs(float(coeffs[-1])) * lam)
    reach = abs(offset) + math.log(epsilon / (10.0 * bound)) / math.log(lam)
    return 2 * max(math.ceil(reach), coeffs.size)


def _solve_window(a, half_width: int) -> np.ndarray:
    """``gamma`` with ``gamma * a = delta``, on ``[-W, W]``, by FFT.

    ``a`` is the pair ``(coeffs, lo)`` with ``lo <= 0 <= lo + len - 1``.
    The taps are wrapped onto m points, m the least power of two with
    m >= 2W + 1, and ``g = irfft(1 / rfft(a))``.  One correction adds the
    FFT inverse of the residual ``delta - a * g``, which a direct
    convolution of the wrapped ``g`` computes to the relative accuracy
    of each entry.  A spectrum with an exact zero on the grid raises
    :class:`NoConvergenceError`.
    """
    coeffs, lo = a
    hi = lo + coeffs.size - 1
    m = 1 << (2 * half_width).bit_length()
    taps = np.zeros(m)
    taps[:hi + 1] = coeffs[-lo:]
    taps[m + lo:] = coeffs[:-lo]
    spectrum = np.fft.rfft(taps)
    if not spectrum.all():
        k = int(np.flatnonzero(spectrum == 0.0)[0])
        raise NoConvergenceError(
            f"even-part spectrum vanishes at frequency "
            f"{2.0 * np.pi * k / m:.6g} (bin {k} of {m})")
    inverse = 1.0 / spectrum
    g = np.fft.irfft(inverse, m)
    # (a * g)_j - delta_j for j = 0..m-1, from g extended by its cyclic
    # wrap: the negated residual.
    excess = np.convolve(np.concatenate((g[m - hi:], g, g[:-lo])), coeffs,
                         mode="valid")
    excess[0] -= 1.0
    g -= np.fft.irfft(np.fft.rfft(excess) * inverse, m)
    return np.concatenate((g[m - half_width:], g[:half_width + 1]))


@dataclass(frozen=True)
class DecimationFilter:
    """Normalized truncated reverse filter with solve diagnostics.

    ``zeta`` is the unit-sum filter actually applied; ``gamma_raw`` keeps
    the truncated but unnormalized solution.  ``decay_lambda`` is the
    exact rate from the even part's roots, ``decay_C`` the least C with
    ``|gamma_j| <= C * lambda^|j|`` on the kept coefficients; both are None
    for a single even tap (e.g. the interpolating case ``zeta = delta``).
    """

    zeta: FinSeq
    gamma_raw: FinSeq
    epsilon: float
    residual_l1: float
    decay_C: float | None
    decay_lambda: float | None

    @property
    def nonzero_count(self) -> int:
        """Number of coefficients surviving the truncation threshold."""
        return int(np.count_nonzero(self.gamma_raw.coeffs))

    @property
    def is_trivial(self) -> bool:
        return self.zeta == delta()

    @functools.cached_property
    def _stencils(self):
        """``zeta`` in the form the cyclic kernel reads, derived once."""
        return (_stencil(self.zeta.coeffs, self.zeta.offset),)


def _residual_l1(even: np.ndarray, even_offset: int, zeta: FinSeq) -> float:
    """``||delta - a * zeta||_1``, ``a`` the even taps from ``even_offset``.

    One linear convolution, with the delta taken off its index 0 (or,
    when index 0 lies outside the product, its 1 added to the sum).
    """
    product = np.convolve(even, zeta.coeffs)
    at_zero = -(even_offset + zeta.offset)
    if 0 <= at_zero < product.size:
        product[at_zero] -= 1.0
        return float(np.abs(product).sum())
    return float(np.abs(product).sum()) + 1.0


def residual_check(filt: DecimationFilter, mask: Mask) -> float:
    """l1 residual ``||delta - even(alpha) * zeta||_1`` of the reversal."""
    return _residual_l1(*_even_taps(mask), filt.zeta)


_cache_lock = threading.Lock()
_filter_cache: dict[tuple, DecimationFilter] = {}


def solve_gamma(mask: Mask, epsilon: float = 1e-15) -> DecimationFilter:
    """Compute the truncated, normalized reverse filter for ``mask``.

    The even part's roots fix the decay rate and the window ``[-W, W]``.
    ``gamma`` on it is ``irfft(1 / rfft(a))`` on m >= 2W + 1 points, plus
    one correction: the same FFT inverse of the residual
    ``delta - a * gamma``, which is computed by direct convolution.
    Coefficients of magnitude at most ``epsilon`` are dropped and the
    rest scaled to unit sum.

    ``epsilon`` must lie in (0, 1).  Raises :class:`SymbolZeroOnCircleError`
    when the even-part symbol at its roots' angles is within 1e-9 of zero
    (no summable inverse) and :class:`NoConvergenceError` when the roots
    call for a window above 2**16 or the solution's outer half is not
    below ``epsilon / 10``, and :class:`BadParamsError` when no solved
    coefficient exceeds ``epsilon`` (an even part with large taps has a
    small inverse).  Results are cached per (taps, epsilon), up to
    2048 filters, the first cached leaving first: solving is pure, so
    concurrent callers may share filters freely.
    """
    if not 0.0 < epsilon < 1.0:
        raise BadParamsError(f"epsilon must lie in (0, 1), got {epsilon}")
    even, even_offset = _even_taps(mask)
    key = (even.tobytes(), even_offset, float(epsilon))
    with _cache_lock:
        hit = _filter_cache.get(key)
    if hit is not None:
        return hit
    if even.size == 1:
        # One even tap c at offset m inverts exactly to 1/c at -m; for an
        # interpolating mask this is the Kronecker delta and decimation
        # reduces to plain downsampling.
        gamma_raw = FinSeq([1.0 / even[0]], -even_offset)
        c_env, lam = None, None
    else:
        roots = _roots(even)
        size = np.abs(roots)
        lam = _decay_rate(size)
        # |symbol| at a root's angle is |sum_k even[k] u^k|, u = root / |root|.
        symbol = ((roots / size)[:, None] ** np.arange(even.size)) @ even
        if lam >= 1.0 or np.abs(symbol).min() <= _SYMBOL_MIN:
            raise SymbolZeroOnCircleError(
                "even-part symbol vanishes on the unit circle; "
                "no summable inverse filter exists")
        # Solve for the even part shifted by z^-wind, whose winding number
        # about the origin is 0: its inverse is centred on the window.
        wind = even_offset + int(np.count_nonzero(size < 1.0))
        centred = (even, even_offset - wind)
        gaps = np.abs(roots[:, None] - roots[None, :])
        width = _half_width(centred, gaps, lam, epsilon)
        if width > _MAX_WINDOW:
            raise NoConvergenceError(
                f"decay rate {lam:.6g} needs a window above {_MAX_WINDOW}")
        gamma_full = _solve_window(centred, width)
        mags = np.abs(gamma_full)
        half = width // 2  # entry i holds index i - width
        if max(mags[:width - half].max(),
               mags[width + half + 1:].max()) >= epsilon / 10:
            raise NoConvergenceError(
                f"filter tail beyond {half} is not below epsilon/10")
        keep = mags > epsilon
        kept = keep.nonzero()[0]
        if kept.size == 0:
            raise BadParamsError(
                f"epsilon {epsilon:g} truncates every reverse-filter "
                f"coefficient (largest {mags.max():.3g})")
        gamma_raw = FinSeq(np.where(keep, gamma_full, 0.0), -width - wind)
        # The reported rate and envelope read repeated roots merged.
        merged = _merge_close_roots(roots, size, gaps)
        if merged is not roots:
            lam = _decay_rate(np.abs(merged))
        c_env = float((mags[kept]
                       * lam ** -np.abs(kept - (width + wind))).max())

    zeta = FinSeq(gamma_raw.coeffs / gamma_raw.coeffs.sum(), gamma_raw.offset)
    residual = _residual_l1(even, even_offset, zeta)
    filt = DecimationFilter(
        zeta=zeta, gamma_raw=gamma_raw, epsilon=float(epsilon),
        residual_l1=residual, decay_C=c_env, decay_lambda=lam)
    with _cache_lock:
        _filter_cache[key] = filt
        if len(_filter_cache) > _FILTER_CACHE_MAX:
            _filter_cache.pop(next(iter(_filter_cache)))
    return filt


def _decimate_block(filt: DecimationFilter, values: np.ndarray) -> np.ndarray:
    """Periodic decimation of an ``(N,)`` or ``(N, D)`` block along axis 0.

    The filter ``zeta`` runs cyclically over ``values[0::2]``; N must be
    even.
    """
    if values.shape[0] % 2 != 0:
        raise OddPeriodError(
            f"decimation needs an even period, got {values.shape[0]}")
    out = np.empty((values.shape[0] // 2,) + values.shape[1:], order="F")
    _cyclic_convolve(filt._stencils, values[0::2], (out,))
    return out


def decimate(filt: DecimationFilter, c):
    """Apply the decimation ``D(c)_j = sum_i zeta_{j-i} c_{2i}``.

    Equivalent to ``zeta * downsample2(c)``; a periodic input must have
    an even period and comes back with period N/2.  Data is filtered
    directly on its even samples; finite data goes on a zero frame so
    wide that the cyclic kernel does not wrap.
    """
    if isinstance(c, PeriodicSeq):
        return PeriodicSeq(_decimate_block(filt, c.values))
    if c.is_empty:
        return FinSeq()
    pad = 2 * _reach(filt.zeta)
    frame, start = _frame(c.coeffs, c.offset, c.offset - pad,
                          c.offset + len(c) + pad)
    return FinSeq(_decimate_block(filt, frame), start // 2)


def write_filter_csv(path, filt: DecimationFilter) -> None:
    """Write ``index,zeta,gamma_raw`` rows over the union support."""
    zs = dict(zip(filt.zeta.indices().tolist(), filt.zeta.coeffs))
    gs = dict(zip(filt.gamma_raw.indices().tolist(), filt.gamma_raw.coeffs))
    idx = sorted(set(zs) | set(gs))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,zeta,gamma_raw\n")
        for i in idx:
            fh.write(f"{i},{float(zs.get(i, 0.0))!r},{float(gs.get(i, 0.0))!r}\n")


def filter_metadata(filt: DecimationFilter) -> dict:
    """JSON-ready diagnostics block for an exported filter."""
    return {
        "epsilon": filt.epsilon,
        "residual_l1": filt.residual_l1,
        "decay_C": filt.decay_C,
        "decay_lambda": filt.decay_lambda,
        "nonzero_count": filt.nonzero_count,
    }
