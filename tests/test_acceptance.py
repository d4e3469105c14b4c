"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-
criterion lines.  Every tolerance is pinned here; nothing is deferred.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import family_grid
from oracles import even_mask

from nspyr import (
    Conic,
    NS4Point,
    Pyramid,
    PeriodicSeq,
    analyze,
    anomaly_flags,
    anomaly_localize,
    check_decomposition_stability,
    check_reconstruction_stability,
    cubic_bspline_family,
    detail_bound,
    detail_decay_report,
    perturb_quadrant,
    perturb_wavy,
    quadrant_window,
    radial_deviation,
    refine_n,
    sample_circle,
    solve_gamma,
    synthesize_array,
)
from nspyr.cli import main as cli_main
from nspyr.geometry import PlanarCurve
from nspyr.sequences import FinSeq


def report(criterion, text):
    print(f"\n[PASS] criterion {criterion}: {text}")


def test_criterion_1_roundtrip_exactness(rng):
    start = time.perf_counter()
    worst = 0.0
    for _, family in family_grid():
        for levels in range(1, 6):
            n = 8 * 2 ** levels
            for _ in range(50):
                data = rng.normal(size=n)
                p = analyze(data, family, levels, boundary="periodic")
                err = np.abs(synthesize_array(p) - data).max()
                bound = 1e-12 * (1.0 + np.abs(data).max())
                assert err <= bound
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"4 families x J=1..5 x 50 inputs, worst error {worst:.2e}, "
              f"{elapsed:.2f}s")


def test_criterion_2_interpolating_compression(rng):
    family = NS4Point(2.0 * math.pi / 16.0)
    for levels in (1, 2, 4):
        data = rng.normal(size=16 * 2 ** levels)
        p = analyze(data, family, levels, boundary="periodic")
        for level in range(1, levels + 1):
            d = p.detail_array(level)
            assert np.all(d[0::2] == 0.0), "even-index details must be 0.0"
    report(2, "four-point pyramids have bit-zero even-index details")


def test_criterion_3_decimation_oracle():
    rho = 3.0 - 2.0 * math.sqrt(2.0)
    filt = solve_gamma(cubic_bspline_family().mask_at_level(0), 1e-15)
    # analytic inverse of the even part {1/8, 3/4, 1/8}
    worst = 0.0
    for j in filt.zeta.indices():
        analytic = math.sqrt(2.0) * (-rho) ** abs(j)
        worst = max(worst, abs(filt.zeta[j] - analytic))
    assert worst <= 1e-12
    assert filt.residual_l1 <= 1e-13
    # independent oracle: dense Toeplitz solve at W=200
    width = 200
    a = even_mask(cubic_bspline_family().mask_at_level(0))
    n = 2 * width + 1
    matrix = np.zeros((n, n))
    for row in range(n):
        for col in range(n):
            matrix[row, col] = a[row - col]
    rhs = np.zeros(n)
    rhs[width] = 1.0
    oracle = np.linalg.solve(matrix, rhs)
    for j in filt.gamma_raw.indices():
        assert abs(filt.gamma_raw[j] - oracle[j + width]) <= 1e-12
    report(3, f"cubic filter matches analytic inverse to {worst:.1e}, "
              f"residual {filt.residual_l1:.1e}")


def test_criterion_4_filter_coefficient_count():
    family = Conic(math.cos(2.0 * math.pi / 16.0))
    filt = solve_gamma(family.mask_at_level(0), 1e-15)
    assert 31 <= filt.nonzero_count <= 35
    report(4, f"conic level-1 filter has {filt.nonzero_count} nonzero "
              "coefficients (expected 33 +/- 2)")


def test_criterion_5_circle_reproduction():
    curve = sample_circle(9)
    comps = [PeriodicSeq(curve.points[:, 0]), PeriodicSeq(curve.points[:, 1])]
    conic = Conic(math.cos(2.0 * math.pi / 9.0))
    refined = [refine_n(conic, c, 3) for c in comps]
    pts = np.stack([refined[0].values, refined[1].values], axis=1)
    dev_conic = radial_deviation(PlanarCurve(pts), 1.0)
    assert dev_conic <= 1e-10
    cubic = cubic_bspline_family()
    refined = [refine_n(cubic, c, 3) for c in comps]
    pts = np.stack([refined[0].values, refined[1].values], axis=1)
    dev_cubic = radial_deviation(PlanarCurve(pts), 1.0)
    assert dev_cubic >= 1e-3
    report(5, f"conic deviation {dev_conic:.1e} <= 1e-10, "
              f"cubic deviation {dev_cubic:.1e} >= 1e-3")


def test_criterion_6_circle_pyramid():
    curve = sample_circle(256)
    p = analyze(curve.points, Conic(math.cos(2.0 * math.pi / 16.0)), 4,
                boundary="periodic")
    assert p.coarse_array().shape == (16, 2)
    worst = 0.0
    for level in range(1, 5):
        avg = float(p.detail_norms(level).mean())
        assert avg <= 1e-8
        worst = max(worst, avg)
    report(6, f"256-sample circle: 16 coarse points, "
              f"largest per-level average detail norm {worst:.1e}")


def test_criterion_7_decay_factor():
    # One period of a sine whose period is a dyadic length, sampled on
    # the depth-10 grid: the window endpoints stay grid-aligned at every
    # level, so the sup-norm decay tracks the theoretical factor 2.
    levels = 10
    h = 2.0 ** -levels
    period = 8.0
    n = int(period / h)
    data = np.sin(2.0 * np.pi * np.arange(n) * h / period)
    family = NS4Point(0.0)
    p = analyze(data, family, levels, boundary="finite")
    rep = detail_decay_report(p)
    for level in range(2, levels):
        ratio = rep.ratios[level - 1]
        assert 1.5 <= ratio <= 3.0, f"ratio at level {level}: {ratio}"
    bounds = detail_bound(p, fprime_inf=2.0 * np.pi / period)
    for measured, bound in zip(rep.per_level_inf, bounds):
        assert measured <= bound
    spread = (min(rep.ratios[1:levels - 1]), max(rep.ratios[1:levels - 1]))
    report(7, f"sup-norm ratios in [{spread[0]:.3f}, {spread[1]:.3f}] "
              "within [1.5, 3.0]; all norms below the decay bound")


def test_criterion_8_stability_checkers(rng):
    trials = 100
    for name, family in family_grid():
        data_size = 64
        levels = 3
        for t in range(trials):
            data = rng.normal(size=data_size)
            p = analyze(data, family, levels, boundary="periodic")
            noisy = Pyramid(
                p.coarse + rng.uniform(-1e-3, 1e-3, size=p.coarse.shape),
                [d + rng.uniform(-1e-3, 1e-3, size=d.shape)
                 for d in p.details],
                p.family, p.epsilon, p.boundary, p.level_params)
            rec = check_reconstruction_stability(p, noisy)
            assert rec.holds and rec.slack >= 0.0, f"{name} trial {t}"
        for t in range(trials):
            data = rng.normal(size=data_size)
            tilde = data + rng.uniform(-1e-3, 1e-3, size=data_size)
            dec = check_decomposition_stability(data, tilde, family, levels)
            assert dec.holds, f"{name} trial {t}"
            assert dec.coarse.slack >= 0.0
            for entry in dec.per_level:
                assert entry.rhs - entry.lhs >= 0.0
    report(8, f"both stability inequalities held on {trials} trials "
              "per family, reconstruction and decomposition variants")


def test_criterion_9_circularity_ordering(tmp_path):
    outdir = tmp_path / "circle_demo"
    assert cli_main(["circle-demo", "--out", str(outdir)]) == 0
    doc = json.loads((outdir / "circle_report.json").read_text())
    verdicts = [w["verdict_scale"] for w in doc["wavy"]]
    amplitudes = [w["amplitude"] for w in doc["wavy"]]
    assert amplitudes == sorted(amplitudes)
    assert verdicts[0] < verdicts[1] < verdicts[2]
    for name in ("log_l1.svg", "log_avg_l2.svg"):
        text = (outdir / name).read_text()
        assert text.startswith("<svg") and "<polyline" in text
    report(9, "wavy presets strictly ordered "
              f"({verdicts[0]:.2e} < {verdicts[1]:.2e} < {verdicts[2]:.2e}); "
              "log plots emitted")


def test_criterion_10_anomaly_localization():
    n, levels = 256, 4
    amplitude, frequency = 0.01, 12
    curve = perturb_quadrant(sample_circle(n), amplitude, frequency)
    ranges = anomaly_localize(curve, levels)
    assert len(ranges) == 1
    start, end = ranges[0]
    injected = np.nonzero(quadrant_window(n) > 0.0)[0]
    span = np.arange(start, end + 1)
    coverage = np.isin(injected, span).mean()
    assert coverage >= 0.95
    flags, _ = anomaly_flags(curve, levels)
    spill = int(np.count_nonzero(flags & (quadrant_window(n) == 0.0)))
    assert spill <= 0.05 * n
    report(10, f"single flagged range [{start}, {end}] covers "
               f"{100 * coverage:.1f}% of the perturbed window; "
               f"{spill}/{n} flags spill outside (<= 5%)")
