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

A cold solve, one that no cached filter answers, costs its eigensolve,
its four transforms on m points and about 80 numpy calls on arrays of
at most m entries; the eigensolve and the transforms call numpy's
gufuncs directly (:func:`_gufuncs`).  On a 2-core x86 host a shipped
family's cold solve took 85-95 us, about 10 us of it the eigensolve and
12-13 us the transforms.  The scalars the roots fix (decay rate,
winding count, window bound, root-merge test) run on Python floats in
the order of the numpy expressions ``tests/oracles.py`` keeps, and the
filter's sequences are built by ``sequences._finseq``: the filters keep
their bits.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParamsError,
    EmptyEvenPartError,
    NoConvergenceError,
    OddPeriodError,
    SymbolZeroOnCircleError,
    _instance,
    _real_scalar,
)
from .sequences import (
    FinSeq,
    PeriodicSeq,
    _add_reduce,
    _cyclic_convolve,
    _finseq,
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

# The reverse filters' truncation threshold when a caller sets none.
DEFAULT_EPSILON = 1e-15


# The eigensolve and the transforms run as the gufuncs behind
# np.linalg.eigvals, np.fft.rfft and np.fft.irfft: on a solve's small
# arrays the public functions' argument handling cost about as much as
# the work.  The gufuncs live in numpy's private modules, so each is used
# only when it imports and gives its public function's bits on a probe;
# otherwise (numpy before 2.0 has no FFT gufuncs) that function runs.
_CORE_AXES = [(0,), (), (0,)]  # axes= of a 1-D transform


def _gufuncs():
    """numpy's eigvals, rfft (even length) and irfft gufuncs, or None each.

    The probe matrix, the companion of (z - 1/2)(z^2 + 1/4), has complex
    eigenvalues, which the public function returns as found.
    """
    probe = np.array([[0.5, -0.25, 0.125], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    eig = rfft = irfft = None
    try:
        from numpy.linalg import _umath_linalg
        got = _umath_linalg.eigvals(probe, signature="d->D")
        if got.tobytes() == np.linalg.eigvals(probe).tobytes():
            eig = _umath_linalg.eigvals
    except (ImportError, AttributeError, TypeError, ValueError):
        pass
    try:
        from numpy.fft import _pocketfft_umath
        x = probe.ravel()[:8]
        spec = _pocketfft_umath.rfft_n_even(x, 1.0, axes=_CORE_AXES,
                                            out=np.empty(5, complex))
        back = _pocketfft_umath.irfft(spec, 1.0 / 8, axes=_CORE_AXES,
                                      out=np.empty(8))
        if (spec.tobytes() == np.fft.rfft(x).tobytes()
                and back.tobytes() == np.fft.irfft(spec, 8).tobytes()):
            rfft, irfft = _pocketfft_umath.rfft_n_even, _pocketfft_umath.irfft
    except (ImportError, AttributeError, TypeError, ValueError):
        pass
    return eig, rfft, irfft


_EIGVALS, _RFFT_EVEN, _IRFFT = _gufuncs()


def _eigvals(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals`` of a real square matrix, bit for bit.

    A matrix that is not finite, or whose eigenvalues do not converge,
    goes to ``np.linalg.eigvals``, which raises ``LinAlgError`` for it.
    """
    if _EIGVALS is None or np.count_nonzero(np.isfinite(matrix)) < matrix.size:
        return np.linalg.eigvals(matrix)
    with np.errstate(invalid="ignore"):  # set by a failed convergence
        w = _EIGVALS(matrix, signature="d->D")
    if np.count_nonzero(np.isfinite(w)) < w.size:
        return np.linalg.eigvals(matrix)
    # the public function's real result when no eigenvalue is complex
    return w if np.count_nonzero(w.imag) else w.real


def _rfft(x: np.ndarray) -> np.ndarray:
    """``np.fft.rfft(x)`` of a real array of even length."""
    if _RFFT_EVEN is None:
        return np.fft.rfft(x)
    return _RFFT_EVEN(x, 1.0, axes=_CORE_AXES,
                      out=np.empty(x.size // 2 + 1, complex))


def _irfft(spectrum: np.ndarray, n: int) -> np.ndarray:
    """``np.fft.irfft(spectrum, n)``."""
    if _IRFFT is None:
        return np.fft.irfft(spectrum, n)
    return _IRFFT(spectrum, 1.0 / n, axes=_CORE_AXES, out=np.empty(n))


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

    ``size`` and ``gaps`` are ``|roots|`` and the pairwise ``|r_i - r_k|``
    (arrays, or a list and nested lists of floats).  The eigenvalue
    solver splits a root of multiplicity m into m roots about eps^(1/m)
    apart; their mean, fixed by the coefficients, is accurate.
    Roots farther apart pass through unchanged (``roots`` itself comes
    back when no two are close; that test runs on Python floats).  Only
    the reported decay rate reads the merged roots: the symbol test and
    the window keep the roots as found, so two distinct roots near the
    circle still fail.
    """
    if not _any_close(size, gaps):
        return roots
    size = np.asarray(size)
    close = np.asarray(gaps) <= _ROOT_MERGE * np.maximum.outer(size, size)
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


def _any_close(size, gaps) -> bool:
    """Whether two roots lie within 1e-3 (relative) of each other."""
    n = len(size)
    for i in range(n):
        for k in range(i + 1, n):
            if gaps[i][k] <= _ROOT_MERGE * max(size[i], size[k]):
                return True
    return False


def _decay_rate(size) -> float:
    """Root modulus nearest the unit circle, inverted outside it.

    ``size`` holds the moduli, nonzero, as floats or an array.
    """
    return float(max([min(s, 1.0 / s) for s in size]))


@functools.lru_cache(maxsize=64)
def _shift(degree: int) -> np.ndarray:
    """The companion matrix's subdiagonal of ones, built once per degree."""
    shift = np.eye(degree, k=-1)
    shift.setflags(write=False)
    return shift


def _roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of ``sum_k coeffs[k] z^k``, bit for bit as ``np.roots`` gives.

    The eigenvalues of the companion matrix ``np.roots`` builds; its
    trimming of zero end taps is skipped, which trimmed taps never need.
    """
    companion = _shift(coeffs.size - 1).copy()
    # -c / d as c / -d, which rounds alike, straight into the first row
    np.divide(coeffs[-2::-1], -coeffs[-1], out=companion[0])
    return _eigvals(companion)


def _residue_sum(gaps) -> float:
    """``sum_i 1 / prod_(k != i) max(|r_i - r_k|, 1e-4)`` of the roots r_i.

    ``gaps`` holds the pairwise ``|r_i - r_k|`` (nested lists of floats,
    or an array).  The floor keeps (nearly) repeated roots finite.  Runs
    on Python floats in numpy's order: each row's product left to right,
    then :func:`_add_reduce`.
    """
    residues = []
    for i, row in enumerate(gaps):
        prod = 1.0
        for k, gap in enumerate(row):
            if k != i:
                prod *= 1e-4 if gap < 1e-4 else gap  # max(gap, 1e-4)
        residues.append(1.0 / prod)
    return _add_reduce(residues)


def _half_width(a, gaps, lam: float, epsilon: float) -> int:
    """Window half-width W with ``|gamma_j| < epsilon / 10`` for |j| > W/2.

    ``a`` is the pair ``(coeffs, lo)`` of taps and first index, ``gaps``
    the pairwise distances of the roots r_i of ``z^-lo a(z)``.  Partial
    fractions bound ``|gamma_j|`` by ``S / lambda * lambda^|j + lo|`` with
    ``S = sum 1 / |a_hi prod_(k != i) (r_i - r_k)|``; root gaps are floored
    at 1e-4 (:func:`_residue_sum`) so that (nearly) repeated roots give a
    finite, larger bound.
    """
    coeffs, offset = a
    bound = _residue_sum(gaps) / (abs(float(coeffs[-1])) * lam)
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
    spectrum = _rfft(taps)
    if np.count_nonzero(spectrum) < spectrum.size:
        k = int(np.flatnonzero(spectrum == 0.0)[0])
        raise NoConvergenceError(
            f"even-part spectrum vanishes at frequency "
            f"{2.0 * np.pi * k / m:.6g} (bin {k} of {m})")
    inverse = 1.0 / spectrum
    g = _irfft(inverse, m)
    # (a * g)_j - delta_j for j = 0..m-1, from g extended by its cyclic
    # wrap: the negated residual.  np.correlate with the reversed taps is
    # np.convolve without its wrapper, bit for bit, the extension being
    # the longer operand.
    excess = np.correlate(np.concatenate((g[m - hi:], g, g[:-lo])),
                          coeffs[::-1], "valid")
    excess[0] -= 1.0
    g -= _irfft(_rfft(excess) * inverse, m)
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
        return float(np.add.reduce(np.abs(product)))
    return float(np.add.reduce(np.abs(product))) + 1.0


def residual_check(filt: DecimationFilter, mask: Mask) -> float:
    """l1 residual ``||delta - even(alpha) * zeta||_1`` of the reversal."""
    filt = _instance(filt, DecimationFilter, "filt")
    return _residual_l1(*_even_taps(_instance(mask, Mask, "mask")), filt.zeta)


_cache_lock = threading.Lock()
# Its first key, the one to evict, is found in constant time; a plain
# dict's takes longer to find as deleted entries pile up at its front.
_filter_cache: OrderedDict[tuple, DecimationFilter] = OrderedDict()


def _epsilon(epsilon) -> float:
    """``epsilon`` as a float in (0, 1), checked before a cache reads it.

    Anything else raises :class:`BadParamsError` naming it, or
    :class:`DomainError` if it is complex.
    """
    epsilon = _real_scalar(epsilon, "epsilon", finite=False)
    if not 0.0 < epsilon < 1.0:
        raise BadParamsError(f"epsilon must lie in (0, 1), got {epsilon}")
    return epsilon


def solve_gamma(mask: Mask,
                epsilon: float = DEFAULT_EPSILON) -> DecimationFilter:
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
    mask = _instance(mask, Mask, "mask")
    epsilon = _epsilon(epsilon)
    even, even_offset = _even_taps(mask)
    key = (even.tobytes(), even_offset, epsilon)
    with _cache_lock:
        hit = _filter_cache.get(key)
    if hit is not None:
        return hit
    if even.size == 1:
        # One even tap c at offset m inverts exactly to 1/c at -m; for an
        # interpolating mask this is the Kronecker delta and decimation
        # reduces to plain downsampling.
        gamma_raw = _finseq(np.array([1.0 / even[0]]), -even_offset)
        c_env, lam = None, None
    else:
        roots = _roots(even)
        size = np.abs(roots)
        # The scalars the roots fix run on Python floats; the moduli and
        # gaps keep numpy's complex modulus, which rounds unlike abs().
        sizes = size.tolist()
        lam = _decay_rate(sizes)
        # |symbol| at a root's angle is |sum_k even[k] u^k|, u = root / |root|.
        symbol = ((roots / size)[:, None] ** np.arange(even.size)) @ even
        symbol = np.abs(symbol)
        if lam >= 1.0 or symbol[symbol.argmin()] <= _SYMBOL_MIN:
            raise SymbolZeroOnCircleError(
                "even-part symbol vanishes on the unit circle; "
                "no summable inverse filter exists")
        # Solve for the even part shifted by z^-wind, whose winding number
        # about the origin is 0: its inverse is centred on the window.
        wind = even_offset + len([s for s in sizes if s < 1.0])
        centred = (even, even_offset - wind)
        gaps = np.abs(roots[:, None] - roots[None, :]).tolist()
        width = _half_width(centred, gaps, lam, epsilon)
        if width > _MAX_WINDOW:
            raise NoConvergenceError(
                f"decay rate {lam:.6g} needs a window above {_MAX_WINDOW}")
        gamma_full = _solve_window(centred, width)
        mags = np.abs(gamma_full)
        half = width // 2  # entry i holds index i - width
        head, tail = mags[:width - half], mags[width + half + 1:]
        if max(head[head.argmax()], tail[tail.argmax()]) >= epsilon / 10:
            raise NoConvergenceError(
                f"filter tail beyond {half} is not below epsilon/10")
        keep = mags > epsilon
        kept = keep.nonzero()[0]
        if kept.size == 0:
            raise BadParamsError(
                f"epsilon {epsilon:g} truncates every reverse-filter "
                f"coefficient (largest {mags.max():.3g})")
        first, last = int(kept[0]), int(kept[-1]) + 1
        gamma_raw = _finseq(
            np.where(keep[first:last], gamma_full[first:last], 0.0),
            first - width - wind)
        # The reported rate and envelope read repeated roots merged.
        merged = _merge_close_roots(roots, sizes, gaps)
        if merged is not roots:
            lam = _decay_rate(np.abs(merged).tolist())
        envelope = mags[kept] * lam ** -np.abs(kept - (width + wind))
        c_env = float(envelope[envelope.argmax()])

    coeffs = gamma_raw.coeffs
    zeta = _finseq(coeffs / np.add.reduce(coeffs), gamma_raw.offset)
    residual = _residual_l1(even, even_offset, zeta)
    filt = DecimationFilter(
        zeta=zeta, gamma_raw=gamma_raw, epsilon=epsilon,
        residual_l1=residual, decay_C=c_env, decay_lambda=lam)
    with _cache_lock:
        _filter_cache[key] = filt
        if len(_filter_cache) > _FILTER_CACHE_MAX:
            _filter_cache.pop(next(iter(_filter_cache)))
    return filt


def _decimate_block(filt: DecimationFilter, values: np.ndarray, out=None,
                    width=None) -> np.ndarray:
    """Periodic decimation of an ``(N,)`` or ``(N, D)`` block along axis 0.

    The filter ``zeta`` runs cyclically over ``values[0::2]``; N must be
    even.  The result goes into a new array or into ``out``; ``width`` is
    that of the level block whose columns ``values`` and ``out`` hold
    (see :func:`_cyclic_convolve`).
    """
    if values.shape[0] % 2 != 0:
        raise OddPeriodError(
            f"decimation needs an even period, got {values.shape[0]}")
    if out is None:
        out = np.empty((values.shape[0] // 2,) + values.shape[1:], order="F")
    _cyclic_convolve(filt._stencils, values[0::2], (out,), width)
    return out


def decimate(filt: DecimationFilter, c):
    """Apply the decimation ``D(c)_j = sum_i zeta_{j-i} c_{2i}``.

    Equivalent to ``zeta * downsample2(c)``; a periodic input must have
    an even period and comes back with period N/2.  Data is filtered
    directly on its even samples; finite data goes on a zero frame so
    wide that the cyclic kernel does not wrap.
    """
    filt = _instance(filt, DecimationFilter, "filt")
    if isinstance(c, PeriodicSeq):
        return PeriodicSeq(_decimate_block(filt, c.values))
    if not isinstance(c, FinSeq):
        raise BadParamsError(f"decimate needs a FinSeq or PeriodicSeq, "
                             f"got {type(c).__name__}")
    if c.is_empty:
        return FinSeq()
    pad = 2 * _reach(filt.zeta)
    frame, start = _frame(c.coeffs, c.offset, c.offset - pad,
                          c.offset + len(c) + pad)
    return FinSeq(_decimate_block(filt, frame), start // 2)


def write_filter_csv(path, filt: DecimationFilter) -> None:
    """Write ``index,zeta,gamma_raw`` rows over the union support."""
    filt = _instance(filt, DecimationFilter, "filt")
    zs = dict(zip(filt.zeta.indices().tolist(), filt.zeta.coeffs))
    gs = dict(zip(filt.gamma_raw.indices().tolist(), filt.gamma_raw.coeffs))
    idx = sorted(set(zs) | set(gs))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,zeta,gamma_raw\n")
        for i in idx:
            fh.write(f"{i},{float(zs.get(i, 0.0))!r},{float(gs.get(i, 0.0))!r}\n")


def filter_metadata(filt: DecimationFilter) -> dict:
    """JSON-ready diagnostics block for an exported filter."""
    filt = _instance(filt, DecimationFilter, "filt")
    return {
        "epsilon": filt.epsilon,
        "residual_l1": filt.residual_l1,
        "decay_C": filt.decay_C,
        "decay_lambda": filt.decay_lambda,
        "nonzero_count": filt.nonzero_count,
    }
