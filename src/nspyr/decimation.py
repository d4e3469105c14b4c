"""Reverse decimation filters for subdivision masks.

A mask ``alpha`` is reversed by the filter ``gamma`` solving the
convolution equation ``gamma * even(alpha) = delta``; the decimation
``D(c) = gamma * downsample2(c)`` then recovers the coarse points a
refinement produced, in the sense that ``c - S(D(c))`` vanishes at even
indices.
``gamma`` has infinite support but decays geometrically whenever the
even-part symbol has no zero on the unit circle, so in practice it is
truncated at a threshold ``epsilon`` and renormalized to unit sum.

The solver truncates the bi-infinite Toeplitz system to a window
``[-W, W]``, solves the banded linear system, and doubles W until the
solution tail is negligible and two successive windows agree.  The
resulting filter carries its diagnostics: truncation threshold, the l1
residual of the convolution equation, and fitted geometric-envelope
constants.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    EmptyEvenPartError,
    FitFailedError,
    NoConvergenceError,
    OddPeriodError,
    SymbolZeroOnCircleError,
)
from .sequences import (
    FinSeq,
    PeriodicSeq,
    _cyclic_convolve,
    convolve,
    delta,
    downsample2,
    norm_l1,
    subtract,
)
from .subdivision import Mask

_SYMBOL_SAMPLES = 4096
_SYMBOL_MIN = 1e-9
_MAX_WINDOW = 2 ** 16
_AGREE_TOL = 1e-13


def even_mask(mask: Mask) -> FinSeq:
    """Even-indexed taps of the mask as a sequence: entry j is alpha_{2j}."""
    ev = downsample2(mask.taps)
    if ev.is_empty:
        raise EmptyEvenPartError(
            f"mask {mask.family_id!r} level {mask.level} has no even taps")
    return ev


def _symbol_min_on_circle(a: FinSeq) -> float:
    omega = np.linspace(0.0, 2.0 * np.pi, _SYMBOL_SAMPLES, endpoint=False)
    sym = np.exp(-1j * np.outer(omega, a.indices())) @ a.coeffs
    return float(np.abs(sym).min())


def _solve_window(a: FinSeq, half_width: int) -> np.ndarray:
    """Solve gamma * a = delta for gamma on [-W, W] (banded Toeplitz)."""
    lo, hi = a.support
    upper = max(0, -lo)
    lower = max(0, hi)
    n = 2 * half_width + 1
    ab = np.zeros((upper + lower + 1, n))
    for tap, off in zip(a.coeffs, range(lo, hi + 1)):
        ab[upper + off, :] = tap
    rhs = np.zeros(n)
    rhs[half_width] = 1.0
    return solve_banded((lower, upper), ab, rhs)


@dataclass(frozen=True)
class DecimationFilter:
    """Normalized truncated reverse filter with solve diagnostics.

    ``zeta`` is the unit-sum filter actually applied; ``gamma_raw`` keeps
    the truncated but unnormalized solution.  ``decay_C``/``decay_lambda``
    hold the fitted envelope ``|gamma_j| <= C * lambda^|j|`` and are None
    when the filter is too short to fit (e.g. the interpolating case
    ``zeta = delta``).
    """

    zeta: FinSeq
    gamma_raw: FinSeq
    epsilon: float
    residual_l1: float
    decay_C: float | None
    decay_lambda: float | None
    source_mask_level: int

    @property
    def nonzero_count(self) -> int:
        """Number of coefficients surviving the truncation threshold."""
        return int(np.count_nonzero(self.gamma_raw.coeffs))

    @property
    def is_trivial(self) -> bool:
        return self.zeta == delta()


def decay_fit(gamma_raw: FinSeq) -> tuple[float, float]:
    """Fit a geometric envelope ``|gamma_j| <= C * lambda^|j|``.

    The rate comes from a least-squares fit of ``log|gamma_j|`` against
    ``|j|`` over the nonzero entries; the constant is then raised so the
    envelope actually dominates every sample.  Needs at least five
    nonzero entries and a fitted rate below one.
    """
    mask = gamma_raw.coeffs != 0.0
    if np.count_nonzero(mask) < 5:
        raise FitFailedError("fewer than 5 nonzero coefficients to fit")
    j = np.abs(gamma_raw.indices()[mask]).astype(float)
    logs = np.log(np.abs(gamma_raw.coeffs[mask]))
    slope, intercept = np.polyfit(j, logs, 1)
    lam = float(np.exp(slope))
    if not lam < 1.0:
        raise FitFailedError(f"fitted rate {lam:.6g} is not below 1")
    c_envelope = float(np.max(np.abs(gamma_raw.coeffs[mask]) * lam ** (-j)))
    return c_envelope, lam


def residual_check(filt: DecimationFilter, mask: Mask) -> float:
    """l1 residual ``||delta - even(alpha) * zeta||_1`` of the reversal."""
    return norm_l1(subtract(delta(), convolve(even_mask(mask), filt.zeta)))


_cache_lock = threading.Lock()
_filter_cache: dict[tuple, DecimationFilter] = {}


def solve_gamma(mask: Mask, epsilon: float = 1e-15) -> DecimationFilter:
    """Compute the truncated, normalized reverse filter for ``mask``.

    Raises :class:`SymbolZeroOnCircleError` when the even-part symbol
    gets within 1e-9 of zero on the unit circle (no summable inverse) and
    :class:`NoConvergenceError` if the adaptive window exceeds 2**16
    without stabilizing.  Results are cached per (taps, epsilon): solving
    is pure, so concurrent callers may share filters freely.
    """
    a = even_mask(mask)
    key = (a.coeffs.tobytes(), a.offset, float(epsilon), mask.level)
    with _cache_lock:
        hit = _filter_cache.get(key)
    if hit is not None:
        return hit

    if len(a) == 1:
        # One even tap c at offset m inverts exactly to 1/c at -m; for an
        # interpolating mask this is the Kronecker delta and decimation
        # reduces to plain downsampling.
        gamma_raw = FinSeq([1.0 / a.coeffs[0]], -a.offset)
    else:
        if _symbol_min_on_circle(a) <= _SYMBOL_MIN:
            raise SymbolZeroOnCircleError(
                "even-part symbol vanishes on the unit circle; "
                "no summable inverse filter exists")
        width = max(16, 4 * len(a))
        previous = None
        gamma_full = None
        while True:
            solution = _solve_window(a, width)
            tail = np.abs(
                solution[np.abs(np.arange(-width, width + 1)) > width // 2])
            tail_ok = tail.size == 0 or tail.max() < epsilon / 10.0
            agree_ok = False
            if previous is not None:
                prev_w, prev_sol = previous
                center = solution[width - prev_w: width + prev_w + 1]
                agree_ok = np.abs(center - prev_sol).max() <= _AGREE_TOL
            if tail_ok and agree_ok:
                gamma_full = solution
                break
            previous = (width, solution)
            width *= 2
            if width > _MAX_WINDOW:
                raise NoConvergenceError(
                    f"filter solve window exceeded {_MAX_WINDOW} "
                    "without stabilizing")
        kept = np.where(np.abs(gamma_full) > epsilon, gamma_full, 0.0)
        gamma_raw = FinSeq(kept, -width)

    zeta = FinSeq(gamma_raw.coeffs / gamma_raw.coeffs.sum(), gamma_raw.offset)
    try:
        c_env, lam = decay_fit(gamma_raw)
    except FitFailedError:
        c_env, lam = None, None
    residual = norm_l1(subtract(delta(), convolve(a, zeta)))
    filt = DecimationFilter(
        zeta=zeta, gamma_raw=gamma_raw, epsilon=float(epsilon),
        residual_l1=residual, decay_C=c_env, decay_lambda=lam,
        source_mask_level=mask.level)
    with _cache_lock:
        _filter_cache[key] = filt
    return filt


def _decimate_block(filt: DecimationFilter, values: np.ndarray) -> np.ndarray:
    """Periodic decimation of an ``(N,)`` or ``(N, D)`` block along axis 0.

    The filter ``zeta`` runs cyclically over ``values[0::2]``; N must be
    even.
    """
    if values.shape[0] % 2 != 0:
        raise OddPeriodError(
            f"decimation needs an even period, got {values.shape[0]}")
    return _cyclic_convolve(filt.zeta.coeffs, filt.zeta.offset, values[0::2])


def decimate(filt: DecimationFilter, c):
    """Apply the decimation ``D(c)_j = sum_i zeta_{j-i} c_{2i}``.

    Equivalent to ``zeta * downsample2(c)``; a periodic input must have
    an even period and comes back with period N/2.  Periodic data is
    filtered directly on its even samples, with no intermediate sequence.
    """
    if isinstance(c, PeriodicSeq):
        return PeriodicSeq(_decimate_block(filt, c.values))
    return convolve(filt.zeta, downsample2(c))


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
        "source_mask_level": filt.source_mask_level,
    }
