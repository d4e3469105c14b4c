"""Reverse decimation filters for subdivision masks.

A mask ``alpha`` is reversed by the filter ``gamma`` solving the
convolution equation ``gamma * even(alpha) = delta``; the decimation
``D(c) = gamma * downsample2(c)`` then recovers the coarse points a
refinement produced, in the sense that ``c - S(D(c))`` vanishes at even
indices.  ``gamma`` has infinite support but decays geometrically
whenever the even-part symbol has no zero on the unit circle, so it is
truncated at a threshold ``epsilon`` and renormalized to unit sum.

The solve reads everything from the roots of the even part, a Laurent
polynomial (Bartels & Samavati, "Reversing subdivision rules", 2000):
the symbol is tested for zeros on the unit circle at the roots' angles,
the exact decay rate ``lambda`` is the root modulus nearest the circle
(inverted outside it), and a partial-fraction bound fixes the window
``[-W, W]`` of one banded Toeplitz solve, whose outer half must fall
below ``epsilon / 10``.  The filter records the threshold, the l1
residual of the convolution equation and the decay envelope.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    BadParamsError,
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

_SYMBOL_MIN = 1e-9
_MAX_WINDOW = 2 ** 16


def even_mask(mask: Mask) -> FinSeq:
    """Even-indexed taps of the mask as a sequence: entry j is alpha_{2j}."""
    ev = downsample2(mask.taps)
    if ev.is_empty:
        raise EmptyEvenPartError(
            f"mask {mask.family_id!r} level {mask.level} has no even taps")
    return ev


def _half_width(a: FinSeq, roots, lam: float, epsilon: float) -> int:
    """Window half-width W with ``|gamma_j| < epsilon / 10`` for |j| > W/2.

    Partial fractions over the roots r_i of ``z^-lo a(z)`` bound
    ``|gamma_j|`` by ``S / lambda * lambda^|j + lo|`` with
    ``S = sum 1 / |a_hi prod_(k != i) (r_i - r_k)|``; root gaps are floored
    at 1e-4 so that (nearly) repeated roots give a finite, larger bound.
    """
    gaps = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(gaps, 1.0)
    residues = 1.0 / np.maximum(gaps, 1e-4).prod(axis=1)
    bound = residues.sum() / (abs(a.coeffs[-1]) * lam)
    reach = abs(a.offset) + np.log(epsilon / (10.0 * bound)) / np.log(lam)
    return 2 * max(int(np.ceil(reach)), len(a))


def _solve_window(a: FinSeq, half_width: int) -> np.ndarray:
    """Banded Toeplitz solve of gamma * a = delta on [-W, W]; lo <= 0 <= hi."""
    n = 2 * half_width + 1
    rhs = np.zeros(n)
    rhs[half_width] = 1.0
    bands = np.repeat(a.coeffs[:, None], n, axis=1)
    return solve_banded((a.support[1], -a.offset), bands, rhs)


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


def decay_fit(gamma_raw: FinSeq) -> tuple[float, float]:
    """Fit a geometric envelope ``|gamma_j| <= C * lambda^|j|``.

    The rate comes from a least-squares fit of ``log|gamma_j|`` against
    ``|j|`` over the nonzero entries; the constant is then raised so the
    envelope actually dominates every sample.  Needs at least five
    nonzero entries and a fitted rate below one.  Kept as a cross-check
    of the exact rate :func:`solve_gamma` reads from the roots.
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

    ``epsilon`` must lie in (0, 1).  Raises :class:`SymbolZeroOnCircleError`
    when the even-part symbol at its roots' angles is within 1e-9 of zero
    (no summable inverse) and :class:`NoConvergenceError` when the roots
    call for a window above 2**16 or the solution's outer half is not
    below ``epsilon / 10``.  Results are cached per (taps, epsilon):
    solving is pure, so concurrent callers may share filters freely.
    """
    if not 0.0 < epsilon < 1.0:
        raise BadParamsError(f"epsilon must lie in (0, 1), got {epsilon}")
    a = even_mask(mask)
    key = (a.coeffs.tobytes(), a.offset, float(epsilon))
    with _cache_lock:
        hit = _filter_cache.get(key)
    if hit is not None:
        return hit

    if len(a) == 1:
        # One even tap c at offset m inverts exactly to 1/c at -m; for an
        # interpolating mask this is the Kronecker delta and decimation
        # reduces to plain downsampling.
        gamma_raw = FinSeq([1.0 / a.coeffs[0]], -a.offset)
        c_env, lam = None, None
    else:
        roots = np.roots(a.coeffs[::-1])
        lam = float(np.minimum(np.abs(roots), 1.0 / np.abs(roots)).max())
        symbol = np.exp(-1j * np.outer(np.angle(roots), a.indices())) @ a.coeffs
        if lam >= 1.0 or np.abs(symbol).min() <= _SYMBOL_MIN:
            raise SymbolZeroOnCircleError(
                "even-part symbol vanishes on the unit circle; "
                "no summable inverse filter exists")
        # Finite sections converge only for winding number 0 about the
        # origin, so solve for the even part shifted by z^-wind.
        wind = a.offset + int(np.count_nonzero(np.abs(roots) < 1.0))
        centred = FinSeq(a.coeffs, a.offset - wind)
        width = _half_width(centred, roots, lam, epsilon)
        if width > _MAX_WINDOW:
            raise NoConvergenceError(
                f"decay rate {lam:.6g} needs a window above {_MAX_WINDOW}")
        gamma_full = _solve_window(centred, width)
        j = np.arange(-width, width + 1)
        if np.abs(gamma_full[np.abs(j) > width // 2]).max() >= epsilon / 10:
            raise NoConvergenceError(
                f"filter tail beyond {width // 2} is not below epsilon/10")
        kept = np.abs(gamma_full) > epsilon
        gamma_raw = FinSeq(np.where(kept, gamma_full, 0.0), -width - wind)
        c_env = float(np.max(np.abs(gamma_full[kept])
                             * lam ** -np.abs(j[kept] - wind), initial=0.0))

    zeta = FinSeq(gamma_raw.coeffs / gamma_raw.coeffs.sum(), gamma_raw.offset)
    residual = norm_l1(subtract(delta(), convolve(a, zeta)))
    filt = DecimationFilter(
        zeta=zeta, gamma_raw=gamma_raw, epsilon=float(epsilon),
        residual_l1=residual, decay_C=c_env, decay_lambda=lam)
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
    }
