"""Planar-curve generation, circularity scoring, and anomaly localization.

Closed curves are analyzed with the conic-reproducing pyramid: because
that family regenerates sampled circles exactly, the detail coefficients
of circle data sit at machine noise, and any geometric deviation shows
up as detail energy at the scales (and positions) where it lives.  The
scoring here turns that into a scalar verdict; the localizer analyzes
only the finest level and turns its detail norms into flagged index
ranges on the curve.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .decimation import DEFAULT_EPSILON, _epsilon
from .errors import (BadParamsError, _index, _instance, _real_array,
                     _real_scalar)
from .pyramid import (DetailDecayReport, Pyramid, _analysis_input,
                      _analysis_step, _check_finite, _level_params,
                      _levels, _row_norms, analyze, detail_decay_report)
from .sequences import _CSV_ROWS, _parse_rows
from .subdivision import Conic

# Parameter window of the localized quadrant perturbation: a quarter arc
# centered at the bottom of the curve.
QUADRANT_CENTER = 3.0 * math.pi / 2.0
QUADRANT_HALF_WIDTH = math.pi / 4.0

#: (name, amplitude, frequency) presets of increasing wavy perturbation.
WAVY_PRESETS = (
    ("wavy", 0.01, 7),
    ("oscillating", 0.03, 13),
    ("highly_oscillatory", 0.08, 23),
)


@dataclass(frozen=True)
class PlanarCurve:
    """Ordered planar samples; closed curves wrap around periodically.

    The points must be real and finite: a complex, NaN or infinite
    coordinate raises :class:`DomainError`.  ``closed`` must be a Python
    or numpy bool, kept as a Python bool.
    """

    points: np.ndarray
    closed: bool = True

    def __post_init__(self):
        if not isinstance(self.closed, (bool, np.bool_)):
            raise BadParamsError(f"closed must be a bool, got {self.closed!r}")
        object.__setattr__(self, "closed", bool(self.closed))
        pts = _real_array(self.points, "curve points")
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise BadParamsError("points must be an (N, 2) array")
        if self.closed and pts.shape[0] < 4:
            raise BadParamsError("a closed curve needs at least 4 points")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def parameter_angles(self) -> np.ndarray:
        """Curve parameter 2*pi*j/N of each sample."""
        return 2.0 * np.pi * np.arange(self.n) / self.n


def _center(center) -> np.ndarray:
    """The ``center`` argument as a float64 array of two coordinates."""
    center = _real_array(center, "center")
    if center.shape != (2,):
        raise BadParamsError(
            f"center must be two coordinates, got shape {center.shape}")
    return center


def sample_circle(n: int, radius: float = 1.0,
                  center: tuple = (0.0, 0.0)) -> PlanarCurve:
    """N equispaced samples of a circle, counterclockwise from angle 0.

    ``radius`` is a positive real number and ``center`` two coordinates.
    """
    n = _index(n, "n")
    if n < 4:
        raise BadParamsError(f"need at least 4 samples, got {n}")
    radius = _real_scalar(radius, "radius")
    if radius <= 0:
        raise BadParamsError(f"radius must be positive, got {radius}")
    cx, cy = _center(center)
    ang = 2.0 * np.pi * np.arange(n) / n
    pts = np.stack([cx + radius * np.cos(ang),
                    cy + radius * np.sin(ang)], axis=1)
    return PlanarCurve(pts, closed=True)


def _perturb(curve: PlanarCurve, amplitude: float, frequency: int,
             window) -> PlanarCurve:
    """:func:`perturb_wavy`, its bump weighted by ``window(n)`` if given.

    A non-finite amplitude raises :class:`DomainError` before any arithmetic.
    """
    curve = _instance(curve, PlanarCurve, "curve")
    frequency = _index(frequency, "frequency")
    if frequency < 1:
        raise BadParamsError("frequency must be an integer >= 1")
    amplitude = _real_scalar(amplitude, "amplitude")
    if amplitude == 0.0:
        return curve
    center = curve.points.mean(axis=0)
    rel = curve.points - center
    radii = np.hypot(rel[:, 0], rel[:, 1])
    if np.any(radii == 0.0):
        raise BadParamsError("a sample coincides with the curve centroid")
    bump = amplitude * np.sin(frequency * curve.parameter_angles())
    if window is not None:
        bump *= window(curve.n)
    pts = center + (radii + bump)[:, None] * (rel / radii[:, None])
    return PlanarCurve(pts, closed=curve.closed)


def perturb_wavy(curve: PlanarCurve, amplitude: float,
                 frequency: int) -> PlanarCurve:
    """Add a radial sinusoid ``amplitude * sin(frequency * angle)``.

    The angle is the curve parameter, so the perturbation closes up
    exactly for integer frequency.
    """
    return _perturb(curve, amplitude, frequency, None)


def quadrant_window(curve_n: int) -> np.ndarray:
    """Raised-cosine weights of the quadrant perturbation per sample.

    Supported on parameter angles within a quarter arc of
    ``QUADRANT_CENTER``; continuously differentiable, 1 at the center,
    0 outside.  ``curve_n`` is a non-negative integer.
    """
    curve_n = _index(curve_n, "curve_n")
    if curve_n < 0:
        raise BadParamsError(f"curve_n must be non-negative, got {curve_n}")
    ang = 2.0 * np.pi * np.arange(curve_n) / curve_n
    dist = np.abs(ang - QUADRANT_CENTER)
    dist = np.minimum(dist, 2.0 * np.pi - dist)
    w = np.zeros(curve_n)
    inside = dist < QUADRANT_HALF_WIDTH
    w[inside] = 0.5 * (1.0 + np.cos(np.pi * dist[inside] / QUADRANT_HALF_WIDTH))
    return w


def perturb_quadrant(curve: PlanarCurve, amplitude: float,
                     frequency: int) -> PlanarCurve:
    """Radial sinusoid confined to one quadrant by a smooth window."""
    return _perturb(curve, amplitude, frequency, quadrant_window)


def radial_deviation(curve: PlanarCurve, radius: float,
                     center: tuple = (0.0, 0.0)) -> float:
    """Largest distance of any sample from the reference circle.

    ``radius`` is a positive real number, as for :func:`sample_circle`.
    """
    rel = _instance(curve, PlanarCurve, "curve").points - _center(center)
    radius = _real_scalar(radius, "radius")
    if radius <= 0:
        raise BadParamsError(f"radius must be positive, got {radius}")
    return float(np.abs(np.hypot(rel[:, 0], rel[:, 1]) - radius).max())


# ---------------------------------------------------------------------------
# circularity scoring


def conic_family_for(curve_n: int, levels: int) -> Conic:
    """Conic family tuned to the coarse sample count of the analysis.

    The tension starts at cos(2*pi/N0) for N0 coarse points; iterating it
    level by level matches the per-level sample counts as they double.
    ``levels`` below 1 raises :class:`BadParamsError`, as in :func:`analyze`.
    """
    n0 = _index(curve_n, "curve_n") // 2 ** _levels(levels)
    if n0 < 1:
        raise BadParamsError(
            f"{curve_n} samples cannot support {levels} levels")
    return Conic(math.cos(2.0 * math.pi / n0))


def _closed_curve_family(curve: PlanarCurve, levels: int) -> Conic:
    """:func:`conic_family_for` the curve; open curves are rejected."""
    if not _instance(curve, PlanarCurve, "curve").closed:
        raise BadParamsError("circularity analysis needs a closed curve")
    return conic_family_for(curve.n, levels)


def curve_pyramid(curve: PlanarCurve, levels: int,
                  epsilon: float = DEFAULT_EPSILON) -> Pyramid:
    """Conic-family periodic analysis of a closed curve."""
    family = _closed_curve_family(curve, levels)
    return analyze(curve.points, family, levels, epsilon, boundary="periodic")


def circularity_report(curve: PlanarCurve, levels: int,
                       epsilon: float = DEFAULT_EPSILON) -> DetailDecayReport:
    """Score how far a closed curve is from a uniformly sampled conic.

    The :func:`detail_decay_report` of :func:`curve_pyramid`: per level,
    the l1 norm and the average of the Euclidean detail-coefficient
    norms.  Its ``verdict_scale``, the largest per-level average, sits at
    machine noise for every affine image of a uniformly sampled circle,
    which the conic family annihilates: ellipses score as circles do.  It
    grows with geometric deviation and with nonuniform sampling.
    """
    return detail_decay_report(curve_pyramid(curve, levels, epsilon))


# ---------------------------------------------------------------------------
# anomaly localization


# The absolute floor of the flag threshold, which keeps machine noise on
# circles unflagged, and the widest gap bridged when flags merge into
# ranges: even-index details of a reversed pyramid vanish identically,
# so flags arrive on every other index, and a gap of 2 joins those combs.
_FLOOR = 1e-10
_MERGE_GAP = 2

# The flag threshold's multiple of the median detail norm when a caller
# sets none.
DEFAULT_THRESHOLD_RATIO = 50.0


def _merge_flags(flags: np.ndarray):
    """Group flagged indices into ranges, bridging gaps up to ``_MERGE_GAP``.

    A range may wrap around the seam of the closed curve.
    """
    idx = np.nonzero(flags)[0]
    if idx.size == 0:
        return []
    ranges = []
    start = prev = int(idx[0])
    for i in idx[1:]:
        i = int(i)
        if i - prev <= _MERGE_GAP:
            prev = i
        else:
            ranges.append((start, prev))
            start = prev = i
    ranges.append((start, prev))
    n = flags.size
    if len(ranges) > 1:
        first_start, _ = ranges[0]
        last_start, last_end = ranges[-1]
        if (first_start + n) - last_end <= _MERGE_GAP:
            ranges[0] = (last_start - n, ranges[0][1])
            ranges.pop()
    return ranges


def _median(norms: np.ndarray) -> float:
    """``np.median`` of a nonempty 1-D array of norms, bit for bit.

    The partition is ``np.median``'s own; of two middle values it takes
    ``(p[k-1] + p[k]) / 2``, the sum and division ``np.median`` makes
    (they differ only for two -0.0, which no norm is).  A NaN, which the
    partition puts last, is returned as ``np.median`` returns it.
    """
    k = norms.size // 2
    odd = norms.size % 2
    part = np.partition(norms, (k, -1) if odd else (k - 1, k, -1))
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(part[k] if odd else (part[k - 1] + part[k]) / 2)


def anomaly_flags(curve: PlanarCurve, levels: int,
                  epsilon: float = DEFAULT_EPSILON,
                  threshold_ratio: float = DEFAULT_THRESHOLD_RATIO):
    """Per-index anomaly flags at the finest detail level.

    A coefficient is flagged when its Euclidean norm exceeds
    ``threshold_ratio`` times the median norm, and 1e-10, a floor that
    keeps machine noise on perfect circles unflagged.  Returns the
    boolean flag array and the threshold used.  A negative
    ``threshold_ratio`` raises :class:`BadParamsError`.

    Only the finest level is analyzed: its details ``x - S_J D_J x``
    depend on no coarser level, so they equal those of
    :func:`curve_pyramid` bit for bit and the errors are its errors, except
    that a coarsest level shorter than the mask stencil (64 points at
    ``levels=4``, say) is accepted instead of raising
    :class:`PeriodTooShortError`.  The norms thresholded are therefore
    ``curve_pyramid(curve, levels, epsilon).detail_norms(levels)``, bit
    for bit.
    """
    threshold_ratio = _real_scalar(threshold_ratio, "threshold_ratio")
    if threshold_ratio < 0:
        raise BadParamsError(
            f"threshold_ratio must be nonnegative, got {threshold_ratio}")
    family = _closed_curve_family(curve, levels)
    block, _ = _analysis_input(curve.points, levels, "periodic")
    params = _level_params(family, levels, _epsilon(epsilon))
    with np.errstate(over="ignore", invalid="ignore"):
        _, detail = _analysis_step(params.mask, params.filt, block)
        _check_finite([detail], "pyramid coefficients")
        norms = _row_norms(detail)
        threshold = max(threshold_ratio * _median(norms), _FLOOR)
        return norms > threshold, threshold


def anomaly_localize(curve: PlanarCurve, levels: int,
                     epsilon: float = DEFAULT_EPSILON,
                     threshold_ratio: float = DEFAULT_THRESHOLD_RATIO):
    """Flag index ranges of the curve that break its circular structure.

    Thresholds the finest-level detail norms as in :func:`anomaly_flags`,
    then merges flags at most 2 indices apart into ranges; ranges may
    wrap around the curve seam.  Returns a list of
    (start, end) inclusive index pairs at the finest level, where index j
    sits at parameter angle 2*pi*j/N; a negative start index denotes a
    range wrapping through zero.
    """
    flags, _ = anomaly_flags(curve, levels, epsilon, threshold_ratio)
    return _merge_flags(flags)


# ---------------------------------------------------------------------------
# CSV interchange


def write_curve_csv(path, curve: PlanarCurve) -> None:
    curve = _instance(curve, PlanarCurve, "curve")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# closed={'true' if curve.closed else 'false'}\n")
        for start in range(0, curve.n, _CSV_ROWS):
            rows = curve.points[start:start + _CSV_ROWS].tolist()
            fh.write("".join([f"{x!r},{y!r}\n" for x, y in rows]))


# The ASCII separators 0x1c-0x1f: numpy's text parser strips them around
# a number as blanks, float() refuses them.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _parse_points(text: str):
    """The ``x,y`` rows of ``text`` as an ``(N, 2)`` array, or None.

    One numpy call parses every row, converting numbers as float() does.
    It gives None, for the per-line path to read, on text without a
    nonblank character, on text holding a separator character
    (0x1c-0x1f), on a line it cannot convert (a blank or ``#`` line, an
    underscore, a stray comma), and on rows of another width.
    """
    if not text.strip() or any(ch in text for ch in _SEPARATORS):
        return None
    try:
        points = np.loadtxt(io.StringIO(text), dtype=float, delimiter=",",
                            comments=None, ndmin=2)
    except ValueError:
        return None
    return points if points.shape[1] == 2 else None


def _point(text: str):
    x, y = text.split(",")
    return float(x), float(y)


def _curve_lines(path, numbered):
    """The ``# closed=`` flag and the ``(lineno, text)`` number rows.

    ``numbered`` holds ``(lineno, line)`` pairs of a curve CSV file.
    Blank lines and ``#`` lines other than the header are skipped.
    """
    closed = True
    rows = []
    for lineno, ln in numbered:
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            header = ln.lstrip("#").strip()
            if header.startswith("closed="):
                value = header.split("=", 1)[1]
                if value.lower() not in ("true", "false"):
                    raise BadParamsError(
                        f"{path}, line {lineno}: closed must be true "
                        f"or false, got {value!r}")
                closed = value.lower() == "true"
            continue
        rows.append((lineno, ln))
    return closed, rows


def _read_curve_lines(path, lines) -> PlanarCurve:
    """:func:`read_curve_csv` of a file's lines, one line at a time."""
    closed, numbered = _curve_lines(path, enumerate(lines, 1))
    if not numbered:
        raise BadParamsError(f"no points in {path}")
    return PlanarCurve(_parse_rows(path, numbered, _point), closed=closed)


def read_curve_csv(path) -> PlanarCurve:
    """Inverse of :func:`write_curve_csv`.

    A row that is not two numbers, or a ``# closed=`` header whose value
    is not ``true`` or ``false`` (in any letter case), raises
    :class:`BadParamsError` naming the file and the 1-based line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # A header on line 1 and rows after it, or rows alone, parse in one
    # call.  Any other file, and any file that call refuses, is read
    # line by line, so an error names its line.
    closed, body = True, text
    if text[:1] == "#":
        header, _, body = text.partition("\n")
        closed, _ = _curve_lines(path, [(1, header)])
    points = _parse_points(body)
    if points is None:
        return _read_curve_lines(path, text.split("\n"))
    return PlanarCurve(points, closed=closed)
