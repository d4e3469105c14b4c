"""Workloads of the nspyr benchmark: seeded inputs, operations and gates.

Every input is generated here with numpy from the seed, never with nspyr's
own sampling, perturbation or CSV helpers, so a library change cannot alter
what a workload feeds the library.

A workload hands out its operations in decks.  A deck is a fixed multiset
of operations, put in a seeded order, so every run that completes the same
number of decks runs the same mix of operations, and every count derived
from the mix (calls, flops, stored coefficients) repeats exactly.

Library calls go through module attributes (``nspyr.analyze``, never a
name bound here), so the traced run sees the calls the benchmark makes.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

import nspyr

ROUND_TRIP_TOL = 1e-12
ZETA_SUM_TOL = 1e-12
# Clean circles must score at machine noise and perturbed ones well above
# it; both thresholds are relative to the curve radius.
CLEAN_SCORE_MAX = 1e-9
PERTURBED_SCORE_MIN = 1e-6


# ---------------------------------------------------------------------------
# input generation


def closed_curve(rng, n, shape="wavy"):
    """Planar closed curve of ``n`` samples and its radius.

    ``clean`` is a circle sampled at equal angles, ``wavy`` adds a radial
    sinusoid all round, ``quadrant`` adds one confined by a raised-cosine
    window to a quarter arc.  Radius, centre, phase and perturbation are
    drawn from ``rng``.
    """
    radius = rng.uniform(0.5, 2.0)
    center = rng.uniform(-1.0, 1.0, size=2)
    t = 2.0 * np.pi * np.arange(n) / n + rng.uniform(0.0, 2.0 * np.pi)
    r = np.full(n, radius)
    if shape == "wavy":
        freq = int(rng.integers(3, 14))
        r += radius * rng.uniform(0.005, 0.05) * np.sin(
            freq * t + rng.uniform(0.0, 2.0 * np.pi))
    elif shape == "quadrant":
        freq = int(rng.integers(8, 20))
        mid = rng.uniform(0.0, 2.0 * np.pi)
        dist = np.abs(np.angle(np.exp(1j * (t - mid))))
        window = np.where(dist < np.pi / 4.0,
                          0.5 * (1.0 + np.cos(4.0 * dist)), 0.0)
        r += radius * rng.uniform(0.01, 0.05) * np.sin(freq * t) * window
    elif shape != "clean":
        raise ValueError(f"unknown curve shape {shape!r}")
    pts = center + r[:, None] * np.stack([np.cos(t), np.sin(t)], axis=1)
    return pts, radius


def smooth_signal(rng, n):
    """Sum of three random low-frequency sinusoids plus 1% noise."""
    x = np.linspace(0.0, 1.0, n)
    out = 0.01 * rng.standard_normal(n)
    for _ in range(3):
        out += rng.uniform(0.2, 1.0) * np.sin(
            2.0 * np.pi * rng.uniform(0.5, 6.0) * x + rng.uniform(0, 2 * np.pi))
    return out


def write_curve_csv(path, points):
    """Closed curve in the documented curve CSV format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# closed=true\n")
        fh.writelines(f"{float(x)!r},{float(y)!r}\n" for x, y in points)


def family(kind, theta):
    """Family by CLI name; the tension is ``theta`` (cos(theta) for v)."""
    if kind == "conic":
        return nspyr.Conic(math.cos(theta))
    if kind == "nscubic":
        return nspyr.NSCubic(math.cos(theta))
    if kind == "ns4pt":
        return nspyr.NS4Point(theta)
    if kind == "cubic_bspline":
        return nspyr.cubic_bspline_family()
    raise ValueError(f"unknown family {kind!r}")


def warm_filters(fam, levels):
    for k in range(levels):
        nspyr.solve_gamma(fam.mask_at_level(k))


# ---------------------------------------------------------------------------
# gates and counts, computed outside the timed region


def finite_round_trip_error(signal, comps):
    """Largest deviation of synthesized finite components from the input.

    The synthesized support may be wider than the input's, with values at
    rounding level outside it, so both are compared on the union range.
    """
    worst = 0.0
    for d, seq in enumerate(comps):
        col = signal if signal.ndim == 1 else signal[:, d]
        lo = min(0, seq.offset)
        hi = max(col.size, seq.offset + seq.coeffs.size)
        diff = np.zeros(hi - lo)
        diff[-lo: -lo + col.size] -= col
        diff[seq.offset - lo: seq.offset - lo + seq.coeffs.size] += seq.coeffs
        worst = max(worst, float(np.abs(diff).max()))
    return worst


def even_details_zero(pyr):
    """Whether every detail coefficient at an even index is exactly zero.

    A periodic component holds its period from index 0; a finite one starts
    at its ``offset``.
    """
    for level in range(1, pyr.levels + 1):
        for seq in pyr.detail(level):
            if isinstance(seq, nspyr.PeriodicSeq):
                values, offset = seq.values, 0
            else:
                values, offset = seq.coeffs, seq.offset
            if np.any(values[(offset + np.arange(values.size)) % 2 == 0] != 0.0):
                return False
    return True


def stored_coefficients(pyr):
    total = np.asarray(pyr.coarse_array()).size
    for level in range(1, pyr.levels + 1):
        total += np.asarray(pyr.detail_array(level)).size
    return total


def numpy_residual_l1(mask, filt):
    """``||delta - even(alpha) * zeta||_1`` recomputed with plain numpy.

    Returns the residual and the l1 mass of the product's terms, which
    scales the rounding a different summation order may bring.
    """
    taps = mask.taps
    idx = taps.offset + np.arange(taps.coeffs.size)
    even = taps.coeffs[idx % 2 == 0]
    even_offset = int(idx[idx % 2 == 0][0]) // 2
    conv = np.convolve(even, filt.zeta.coeffs)
    mass = float(np.abs(even).sum() * np.abs(filt.zeta.coeffs).sum())
    at_zero = -(even_offset + filt.zeta.offset)
    if 0 <= at_zero < conv.size:
        conv[at_zero] -= 1.0
        return float(np.abs(conv).sum()), mass
    return float(np.abs(conv).sum()) + 1.0, mass


def residual_matches(mask, filt):
    mine, mass = numpy_residual_l1(mask, filt)
    return (abs(filt.residual_l1 - mine)
            <= 1e-9 * mine + 64 * np.finfo(float).eps * mass)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One benchmark workload: inputs made at set-up, then decks of ops.

    ``run`` is the timed operation.  ``check`` runs outside the timed region
    and returns whether every gate passed plus counts for the size metrics
    (``stored`` coefficients, input ``samples``, ``file_bytes`` written).
    """

    name = ""
    # Percentile reported as op_ms_tail.  At the baseline op count at least
    # ten samples lie beyond it; where the highest such percentile read
    # unsteadily from run to run, the next lower one is used.
    tail_percentile = 90
    # Whole decks run in each phase of the traced run; fixed so that the
    # traced counts repeat exactly.
    trace_decks = 1

    def __init__(self, seed, smoke, workdir):
        self.rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)

    def warm(self):
        pass

    def deck(self):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError


class LargeCurve(Workload):
    """analyze + synthesize_array of one large periodic planar curve."""

    name = "large_curve"
    tail_percentile = 90
    trace_decks = 4
    levels = 4

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        n = 2 ** 10 if smoke else 2 ** 18
        self.points, _ = closed_curve(self.rng, n, "wavy")
        theta = 2.0 * math.pi / (n >> self.levels)
        self.families = [(kind, family(kind, theta)) for kind in
                         ("conic", "ns4pt", "nscubic", "cubic_bspline")]

    def warm(self):
        for _, fam in self.families:
            warm_filters(fam, self.levels)

    def deck(self):
        return self.families

    def run(self, op):
        pyr = nspyr.analyze(self.points, op[1], self.levels,
                            boundary="periodic")
        return pyr, nspyr.synthesize_array(pyr)

    def check(self, op, out):
        pyr, back = out
        ok = (back.shape == self.points.shape
              and float(np.abs(back - self.points).max()) <= ROUND_TRIP_TOL)
        if op[1].interpolating:
            ok = ok and even_details_zero(pyr)
        return ok, {"stored": stored_coefficients(pyr),
                    "samples": self.points.size}


class CurveBatch(Workload):
    """Stream of small closed curves and finite signals, kinds alternating.

    One op is one step of the alternation: a curve scored, then a signal
    round-tripped.  A signal alone takes about a tenth of a curve's time,
    so single-kind ops would put the median in the gap between the kinds.
    """

    name = "curve_batch"
    tail_percentile = 99
    trace_decks = 4
    curve_sizes = (64, 128, 256, 512)
    curve_shapes = ("clean", "wavy", "quadrant")
    signal_families = ("ns4pt", "nscubic", "conic", "cubic_bspline")
    signal_lengths = (256, 320, 448, 600, 800, 1024)
    signal_thetas = (math.pi / 8.0, math.pi / 16.0)
    signal_levels = 4

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        if smoke:
            self.curve_sizes = (64,)
            self.signal_lengths = (256, 320)
        self.families = {(kind, theta): family(kind, theta)
                         for kind in self.signal_families
                         for theta in self.signal_thetas}

    def warm(self):
        for fam in self.families.values():
            warm_filters(fam, self.signal_levels)
        for n in self.curve_sizes:
            for levels in self._curve_levels(n):
                warm_filters(nspyr.conic_family_for(n, levels), levels)

    @staticmethod
    def _curve_levels(n):
        """Depths leaving 16 and 8 coarse points: two conic tensions."""
        top = int(math.log2(n // 8))
        return (top - 1, top)

    def deck(self):
        rng = self.rng
        curves = []
        for n in self.curve_sizes:
            for levels in self._curve_levels(n):
                for shape in self.curve_shapes:
                    pts, radius = closed_curve(rng, n, shape)
                    curves.append((shape, levels,
                                   nspyr.PlanarCurve(pts, closed=True), radius))
        signals = []
        for kind in self.signal_families:
            for i, length in enumerate(self.signal_lengths):
                theta = self.signal_thetas[i % 2]
                signals.append((self.families[(kind, theta)],
                                smooth_signal(rng, length)))
        rng.shuffle(curves)
        rng.shuffle(signals)
        return list(zip(curves, signals))

    def run(self, op):
        (_, levels, curve, _), (fam, signal) = op
        report = nspyr.circularity_report(curve, levels)
        ranges = nspyr.anomaly_localize(curve, levels)
        pyr = nspyr.analyze(signal, fam, self.signal_levels, boundary="finite")
        return report, ranges, pyr, nspyr.synthesize(pyr)

    def check(self, op, out):
        (shape, _, _, radius), (fam, signal) = op
        report, ranges, pyr, comps = out
        score = report.verdict_scale / radius
        if shape == "clean":
            ok = score <= CLEAN_SCORE_MAX and ranges == []
        else:
            ok = score >= PERTURBED_SCORE_MIN
            if shape == "quadrant":
                ok = ok and len(ranges) >= 1
        ok = ok and finite_round_trip_error(signal, comps) <= ROUND_TRIP_TOL
        if fam.interpolating:
            ok = ok and even_details_zero(pyr)
        return ok, {"stored": stored_coefficients(pyr), "samples": signal.size}


class ColdFilters(Workload):
    """Reverse filters for J levels of tensions no earlier op used.

    One op solves a fresh conic tension and a fresh nscubic tension, for
    the same reason curve_batch pairs its kinds: conic solves take about
    1.5 times as long as nscubic ones.
    """

    name = "cold_filters"
    tail_percentile = 95
    trace_decks = 8
    levels = 4
    ops_per_deck = 8
    kinds = ("conic", "nscubic")

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.used = set()

    def _fresh_theta(self):
        while True:
            theta = float(self.rng.uniform(2.0 * math.pi / 64, 2.0 * math.pi / 6))
            if theta not in self.used:
                self.used.add(theta)
                return theta

    def deck(self):
        return [tuple(self._fresh_theta() for _ in self.kinds)
                for _ in range(self.ops_per_deck)]

    def run(self, op):
        solved = []
        for kind, theta in zip(self.kinds, op):
            fam = family(kind, theta)
            masks = [fam.mask_at_level(k) for k in range(self.levels)]
            solved.extend((m, nspyr.solve_gamma(m)) for m in masks)
        return solved

    def check(self, op, out):
        ok = all(abs(float(filt.zeta.coeffs.sum()) - 1.0) <= ZETA_SUM_TOL
                 and residual_matches(mask, filt) for mask, filt in out)
        return ok, {}


class PyramidIO(Workload):
    """CLI decompose to pyramid JSON, then reconstruct back to curve CSV."""

    name = "pyramid_io"
    tail_percentile = 75
    trace_decks = 2
    levels = 4
    pool = 4

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        import nspyr.cli  # noqa: F401  (part of the measured set-up)

        n = 2 ** 8 if smoke else 2 ** 14
        self.inputs = []
        for i in range(self.pool):
            pts, _ = closed_curve(self.rng, n, ("wavy", "quadrant")[i % 2])
            csv = self.workdir / f"curve{i}.csv"
            write_curve_csv(csv, pts)
            self.inputs.append((i, str(csv), pts))
        self.family = nspyr.Conic(math.cos(2.0 * math.pi / (n >> self.levels)))

    def warm(self):
        warm_filters(self.family, self.levels)

    def deck(self):
        return self.inputs

    def run(self, op):
        i, csv, _ = op
        js = str(self.workdir / f"pyr{i}.json")
        back = str(self.workdir / f"back{i}.csv")
        rc1 = nspyr.cli.main(["decompose", "--in", csv, "--out", js,
                              "--family", "conic", "--levels", str(self.levels)])
        rc2 = nspyr.cli.main(["reconstruct", "--in", js, "--out", back])
        return rc1, rc2, js, back

    def check(self, op, out):
        _, _, pts = op
        rc1, rc2, js, back = out
        if rc1 != 0 or rc2 != 0:
            return False, {}
        got = np.loadtxt(back, delimiter=",", comments="#", ndmin=2)
        ok = (got.shape == pts.shape
              and float(np.abs(got - pts).max()) <= ROUND_TRIP_TOL)
        return ok, {"file_bytes": os.path.getsize(js), "samples": pts.shape[0]}


WORKLOADS = {cls.name: cls for cls in
             (LargeCurve, CurveBatch, ColdFilters, PyramidIO)}
