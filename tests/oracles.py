"""Reference sequence algebra that the property tests compare against.

The paper's operators written out literally on sequence objects:
refinement is ``alpha * upsample2(c)``, decimation ``zeta *
downsample2(c)``.  Linear convolution is ``np.convolve``; cyclic
convolution is a per-tap roll loop, so it checks the library's kernel
instead of mirroring it.  Every operation returns a new sequence.  Last
come the numpy expressions of the reverse-filter solve's root scalars,
which the library computes on Python floats.
"""

import math

import numpy as np

import nspyr
from nspyr import BadParamsError, FinSeq, OddPeriodError, PeriodicSeq


class FitFailedError(Exception):
    """``decay_fit`` has too few samples or finds no decay."""


def roll_cyclic_convolve(taps, offset, values):
    """Per-tap roll loop: the reference for the cyclic kernel."""
    out = np.zeros_like(values)
    for tap, j in zip(taps, range(offset, offset + taps.size)):
        out += tap * np.roll(values, j, axis=0)
    return out


def extended_correlate(taps, offset, values):
    """The loop strategy of the cyclic kernel written out: each column
    wrap-extended in full with ``np.take``, then one ``np.correlate``.

    It sums each output row as the kernel's per-column strategies do, so
    they must match it bit for bit.
    """
    n = values.shape[0]
    wrap = np.arange(-(offset + taps.size - 1), n - offset)
    cols = values.reshape(n, -1)
    out = np.empty(cols.shape)
    for d in range(cols.shape[1]):
        ext = np.take(cols[:, d], wrap, mode="wrap")
        out[:, d] = np.correlate(ext, taps[::-1], "valid")
    return out.reshape(values.shape)


def kernel_tolerance(taps, values) -> float:
    """Bound on how far two summation orders of a convolution may differ:
    ``64 eps ||taps||_1 max|values| + len(taps) * smallest subnormal``.

    A product below the normal range rounds on the absolute grid of the
    smallest subnormal, not relative to its size, so each tap adds that
    grid step to the relative term.
    """
    info = np.finfo(float)
    return (64 * info.eps * np.abs(taps).sum() * np.abs(values).max(
        initial=0.0) + taps.size * info.smallest_subnormal)


def add(a, b):
    """Pointwise sum of two sequences of the same kind."""
    if isinstance(a, FinSeq) and isinstance(b, FinSeq):
        if a.is_empty:
            return b
        if b.is_empty:
            return a
        lo = min(a.offset, b.offset)
        hi = max(a.offset + len(a), b.offset + len(b))
        out = np.zeros(hi - lo)
        out[a.offset - lo: a.offset - lo + len(a)] += a.coeffs
        out[b.offset - lo: b.offset - lo + len(b)] += b.coeffs
        return FinSeq(out, lo)
    if isinstance(a, PeriodicSeq) and isinstance(b, PeriodicSeq):
        if a.period != b.period:
            raise BadParamsError("periods differ")
        return PeriodicSeq(a.values + b.values)
    raise BadParamsError("mixed sequence kinds")


def scale(c, factor: float):
    if isinstance(c, FinSeq):
        return FinSeq(c.coeffs * factor, c.offset)
    return PeriodicSeq(c.values * factor)


def subtract(a, b):
    return add(a, scale(b, -1.0))


def convolve(a, b):
    """Convolution ``(a*b)_j = sum_i a_i b_{j-i}``.

    Linear for two :class:`FinSeq` operands (support is the Minkowski sum
    of the supports).  Cyclic when one operand is periodic: the finite
    filter wraps modulo the period and the result has the same period.
    Two periodic operands need equal periods.
    """
    if isinstance(a, FinSeq) and isinstance(b, FinSeq):
        if a.is_empty or b.is_empty:
            return FinSeq()
        return FinSeq(np.convolve(a.coeffs, b.coeffs), a.offset + b.offset)
    if isinstance(a, FinSeq) and isinstance(b, PeriodicSeq):
        return PeriodicSeq(roll_cyclic_convolve(a.coeffs, a.offset, b.values))
    if isinstance(a, PeriodicSeq) and isinstance(b, FinSeq):
        return convolve(b, a)
    if isinstance(a, PeriodicSeq) and isinstance(b, PeriodicSeq):
        if a.period != b.period:
            raise BadParamsError("cyclic convolution needs equal periods")
        return PeriodicSeq(roll_cyclic_convolve(a.values, 0, b.values))
    raise BadParamsError("unsupported operand kinds for convolve")


def upsample2(c):
    """Insert a zero after every entry: even output 2k holds c_k."""
    if isinstance(c, FinSeq):
        if c.is_empty:
            return FinSeq()
        up = np.zeros(2 * len(c) - 1)
        up[0::2] = c.coeffs
        return FinSeq(up, 2 * c.offset)
    up = np.zeros(2 * c.period)
    up[0::2] = c.values
    return PeriodicSeq(up)


def downsample2(c):
    """Keep even-indexed entries: output j holds c_{2j}.

    For a periodic sequence the period must be even (the result has
    period N/2); an odd period raises :class:`OddPeriodError`.
    """
    if isinstance(c, FinSeq):
        if c.is_empty:
            return FinSeq()
        first = c.offset if c.offset % 2 == 0 else c.offset + 1
        kept = c.coeffs[first - c.offset:: 2]
        return FinSeq(kept, first // 2)
    if c.period % 2 != 0:
        raise OddPeriodError(f"odd period {c.period}: cannot halve")
    return PeriodicSeq(c.values[0::2])


def norm_inf(c) -> float:
    d = c.coeffs if isinstance(c, FinSeq) else c.values
    return float(np.abs(d).max()) if d.size else 0.0


def even_mask(mask) -> FinSeq:
    """Even-indexed taps of the mask as a sequence: entry j is alpha_{2j}."""
    return downsample2(mask.taps)


def decay_fit(gamma_raw: FinSeq) -> tuple[float, float]:
    """Fit a geometric envelope ``|gamma_j| <= C * lambda^|j|``.

    The rate comes from a least-squares fit of ``log|gamma_j|`` against
    ``|j|`` over the nonzero entries; the constant is then raised so the
    envelope actually dominates every sample.  Needs at least five
    nonzero entries and a fitted rate below one.  A cross-check of the
    exact rate ``solve_gamma`` reads from the roots.
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


def refine(mask, c):
    """The paper's refinement ``alpha * upsample2(c)``."""
    return convolve(mask.taps, upsample2(c))


def decimate(filt, c):
    """The paper's decimation ``zeta * downsample2(c)``."""
    return convolve(filt.zeta, downsample2(c))


def residual_operator_norm_loop(mask, filt, trials=200) -> float:
    """The operator-norm estimate one sign sequence at a time: the
    reference for the library's one-block estimate.

    Each trial draws its own ``period`` signs from the generator seeded
    with 0, and maximizes ``|c - S(D c)|`` with the library's periodic
    ``decimate`` and ``refine``.
    """
    reach = len(filt.zeta) + 2 * len(mask.taps) + 8
    period = 2 * (reach + reach % 2 + 8)
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(trials):
        c = PeriodicSeq(rng.choice((-1.0, 1.0), size=period))
        out = subtract(c, nspyr.refine(mask, nspyr.decimate(filt, c)))
        best = max(best, norm_inf(out))
    return best


def assert_matches(got: FinSeq, want: FinSeq, taps, data: FinSeq) -> None:
    """``got`` is ``want`` within :func:`kernel_tolerance` of ``taps`` on
    ``data``, and zero outside ``want``'s support."""
    assert norm_inf(subtract(got, want)) <= kernel_tolerance(taps, data.coeffs)
    if not got.is_empty:
        assert want.support[0] <= got.support[0]
        assert got.support[1] <= want.support[1]


# The reverse-filter solve's scalars as numpy expressions.  The solve
# computes them on Python floats; the tests hold those to these bit for
# bit.


def decay_rate(size) -> float:
    """Root modulus nearest the unit circle, inverted outside it."""
    return float(np.minimum(size, 1.0 / size).max())


def winding(size) -> int:
    """Number of roots inside the unit circle."""
    return int(np.count_nonzero(size < 1.0))


def residue_sum(gaps) -> float:
    """``sum_i 1 / prod_(k != i) max(|r_i - r_k|, 1e-4)`` from the gaps."""
    floored = np.maximum(gaps, 1e-4)
    floored.flat[::gaps.shape[0] + 1] = 1.0  # the diagonal
    return float((1.0 / floored.prod(axis=1)).sum())


def close_roots(size, gaps):
    """Which roots lie within 1e-3 (relative) of each other; True on the
    diagonal."""
    return gaps <= 1e-3 * np.maximum.outer(size, size)


def merged_roots(roots, size, gaps):
    """Each group of close roots set to its mean; ``roots`` itself when
    no two are close."""
    close = close_roots(size, gaps)
    if np.count_nonzero(close) == roots.size:
        return roots
    merged = roots.copy()
    left = np.ones(roots.size, dtype=bool)
    for i in range(roots.size):
        if left[i]:
            group = close[i]
            while not np.array_equal(grown := close[group].any(axis=0),
                                     group):
                group = grown
            merged[group] = roots[group].mean()
            left &= ~group
    return merged


def window_scalars(even, even_offset, epsilon):
    """What the solve reads from the roots of the even part, by numpy.

    ``even`` holds the trimmed even taps from index ``even_offset`` on,
    with at least two taps.  Returns ``(lam, wind, width, merged_lam)``:
    the decay rate of the roots as found, the winding shift, the window
    half-width, and the decay rate of the merged roots, which the filter
    reports.
    """
    roots = np.roots(even[::-1])
    size = np.abs(roots)
    lam = decay_rate(size)
    wind = even_offset + winding(size)
    gaps = np.abs(roots[:, None] - roots[None, :])
    bound = residue_sum(gaps) / (abs(float(even[-1])) * lam)
    reach = (abs(even_offset - wind)
             + math.log(epsilon / (10.0 * bound)) / math.log(lam))
    width = 2 * max(math.ceil(reach), even.size)
    merged = merged_roots(roots, size, gaps)
    return lam, wind, width, decay_rate(np.abs(merged))
