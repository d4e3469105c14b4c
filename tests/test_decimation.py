import hashlib
import math
import warnings
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_banded

import oracles
from conftest import family_grid
from oracles import (FitFailedError, convolve, decay_fit, downsample2,
                     even_mask, norm_inf, subtract)

from nspyr import (
    BadParamsError,
    Conic,
    FinSeq,
    Mask,
    NoConvergenceError,
    NS4Point,
    NSCubic,
    OddPeriodError,
    PeriodicSeq,
    SymbolZeroOnCircleError,
    analyze,
    cubic_bspline_family,
    cubic_bspline_mask,
    decimate,
    delta,
    norm_l1,
    refine,
    residual_check,
    solve_gamma,
    write_filter_csv,
)
from nspyr import decimation, pyramid, sequences
from nspyr.decimation import filter_metadata

CUBIC_RHO = 3.0 - 2.0 * math.sqrt(2.0)
EPS = np.finfo(float).eps


def analytic_cubic_gamma(width: int) -> FinSeq:
    """Closed-form inverse of the cubic B-spline even part {1/8, 3/4, 1/8}."""
    j = np.arange(-width, width + 1)
    return FinSeq(math.sqrt(2.0) * (-CUBIC_RHO) ** np.abs(j), -width)


def dense_toeplitz_gamma(a: FinSeq, width: int) -> FinSeq:
    """Brute-force oracle: dense solve of the windowed convolution system."""
    n = 2 * width + 1
    matrix = np.zeros((n, n))
    for lag, tap in zip(a.indices(), a.coeffs):
        matrix += tap * np.eye(n, k=-lag)  # entry (row, col) = a[row - col]
    rhs = np.zeros(n)
    rhs[width] = 1.0
    return FinSeq(np.linalg.solve(matrix, rhs), -width)


def cubic_mask():
    return Mask(cubic_bspline_mask(), family_id="cubic_bspline")


class TestEvenMask:
    def test_interpolating_gives_delta(self):
        assert even_mask(NS4Point(0.3).mask_at_level(0)) == delta()

    def test_cubic_bspline(self):
        assert even_mask(cubic_mask()) == FinSeq([1 / 8, 3 / 4, 1 / 8], -1)

    def test_nscubic_formula(self):
        fam = NSCubic(math.cos(2 * math.pi / 9))
        k = 1
        v = fam.tension_at_level(k)
        ev = even_mask(fam.mask_at_level(k))
        d = 2.0 * (v + 1.0) ** 2
        np.testing.assert_allclose(
            ev.coeffs, [1 / d, (4 * v * v + 2) / d, 1 / d], rtol=1e-14)


class TestSolveGamma:
    def test_interpolating_mask_trivial(self):
        filt = solve_gamma(NS4Point(0.7).mask_at_level(2), 1e-15)
        assert filt.zeta == delta()
        assert filt.residual_l1 == 0.0
        assert filt.is_trivial
        assert filt.decay_lambda is None

    def test_cubic_matches_analytic_inverse(self):
        filt = solve_gamma(cubic_mask(), 1e-15)
        analytic = analytic_cubic_gamma(60)
        for j in filt.zeta.indices():
            assert filt.zeta[j] == pytest.approx(analytic[j], abs=1e-12)
        assert filt.zeta[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        # alternating tails with ratio -(3 - 2 sqrt 2)
        for j in range(1, 9):
            ratio = filt.zeta[j + 1] / filt.zeta[j]
            assert ratio == pytest.approx(-CUBIC_RHO, abs=1e-10)

    def test_cubic_matches_dense_oracle(self):
        filt = solve_gamma(cubic_mask(), 1e-15)
        oracle = dense_toeplitz_gamma(even_mask(cubic_mask()), 200)
        for j in filt.gamma_raw.indices():
            assert filt.gamma_raw[j] == pytest.approx(oracle[j], abs=1e-13)

    def test_zeta_sums_to_one(self):
        for mask in (cubic_mask(),
                     Conic(math.cos(2 * math.pi / 16)).mask_at_level(0),
                     NSCubic(math.cos(2 * math.pi / 16)).mask_at_level(0)):
            filt = solve_gamma(mask, 1e-15)
            assert filt.zeta.coeffs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_truncation_keeps_only_above_epsilon(self):
        filt = solve_gamma(cubic_mask(), 1e-6)
        kept = filt.gamma_raw.coeffs[filt.gamma_raw.coeffs != 0.0]
        assert np.abs(kept).min() > 1e-6

    def test_conic_level1_nonzero_count(self):
        # conic family ramped for a 256-sample, 4-level pyramid
        fam = Conic(math.cos(2 * math.pi / 16))
        filt = solve_gamma(fam.mask_at_level(0), 1e-15)
        assert filt.nonzero_count == 33

    def test_symbol_zero_rejected(self):
        # even part {1/4, 1/2, 1/4} has symbol zero at omega = pi
        taps = FinSeq([1 / 4, 1 / 2, 1 / 2, 1 / 2, 1 / 4], -2)
        with pytest.raises(SymbolZeroOnCircleError):
            solve_gamma(Mask(taps), 1e-15)

    def test_filters_symmetric_for_symmetric_masks(self, rng):
        for mask in (cubic_mask(),
                     Conic(math.cos(2 * math.pi / 16)).mask_at_level(1),
                     NSCubic(math.cos(2 * math.pi / 16)).mask_at_level(1)):
            z = solve_gamma(mask, 1e-15).zeta
            flipped = FinSeq(z.coeffs[::-1],
                             -(z.offset + len(z) - 1))
            assert norm_inf(subtract(z, flipped)) <= 1e-13

    def test_zeta_l1_at_least_one(self):
        for mask in (cubic_mask(),
                     NS4Point(0.2).mask_at_level(0),
                     Conic(math.cos(2 * math.pi / 16)).mask_at_level(2),
                     NSCubic(math.cos(2 * math.pi / 16)).mask_at_level(2)):
            assert norm_l1(solve_gamma(mask, 1e-15).zeta) >= 1.0 - 1e-14

    def test_nscubic_filters_converge_across_levels(self):
        fam = NSCubic(math.cos(2 * math.pi / 16))
        zetas = {lvl: solve_gamma(fam.mask_at_level(lvl - 1), 1e-15).zeta
                 for lvl in range(1, 5)}
        early = norm_l1(subtract(zetas[1], zetas[2]))
        late = norm_l1(subtract(zetas[3], zetas[4]))
        assert late < early


class TestResidual:
    def test_interpolating_zero(self):
        filt = solve_gamma(NS4Point(0.0).mask_at_level(0), 1e-15)
        assert residual_check(filt, NS4Point(0.0).mask_at_level(0)) == 0.0

    def test_cubic_tight(self):
        filt = solve_gamma(cubic_mask(), 1e-15)
        assert filt.residual_l1 <= 1e-13

    def test_larger_epsilon_larger_residual(self):
        tight = solve_gamma(cubic_mask(), 1e-15).residual_l1
        loose = solve_gamma(cubic_mask(), 1e-3).residual_l1
        assert loose > tight

    def test_epsilon_monotonicity(self):
        masks = [cubic_mask(),
                 Conic(math.cos(2 * math.pi / 16)).mask_at_level(0),
                 NSCubic(math.cos(2 * math.pi / 16)).mask_at_level(0)]
        for mask in masks:
            residuals = [solve_gamma(mask, eps).residual_l1
                         for eps in (1e-3, 1e-9, 1e-15)]
            # slack covers rounding noise when the residual is dominated
            # by the normalization offset rather than the truncation
            for coarse, fine in zip(residuals, residuals[1:]):
                assert coarse >= fine - 1e-12 * (1.0 + fine)


class TestDecayFit:
    def test_analytic_cubic_rate(self):
        c_env, lam = decay_fit(analytic_cubic_gamma(40))
        assert lam == pytest.approx(CUBIC_RHO, abs=1e-3)
        assert c_env == pytest.approx(math.sqrt(2.0), rel=1e-6)

    def test_delta_fails(self):
        with pytest.raises(FitFailedError):
            decay_fit(delta())

    def test_envelope_dominates(self):
        for mask in (cubic_mask(),
                     Conic(math.cos(2 * math.pi / 16)).mask_at_level(0)):
            filt = solve_gamma(mask, 1e-15)
            c_env, lam = filt.decay_C, filt.decay_lambda
            assert 0.0 < lam < 1.0
            for j, g in zip(filt.gamma_raw.indices(), filt.gamma_raw.coeffs):
                if g != 0.0:
                    assert abs(g) / (c_env * lam ** abs(j)) <= 1.0 + 1e-6


class TestDecimate:
    def test_delta_filter_is_downsampling(self, rng):
        filt = solve_gamma(NS4Point(0.1).mask_at_level(0), 1e-15)
        c = PeriodicSeq(rng.normal(size=16))
        assert decimate(filt, c) == downsample2(c)

    def test_constant_preserved(self):
        filt = solve_gamma(cubic_mask(), 1e-15)
        out = decimate(filt, PeriodicSeq(np.full(16, 1.0)))
        np.testing.assert_allclose(out.values, 1.0, rtol=1e-13)

    def test_odd_period_rejected(self):
        filt = solve_gamma(cubic_mask(), 1e-15)
        with pytest.raises(OddPeriodError):
            decimate(filt, PeriodicSeq(np.ones(7)))

    def test_reverses_refinement_on_evens(self, rng):
        # decimating a refinement recovers the coarse data within the
        # equation residual
        mask = cubic_mask()
        filt = solve_gamma(mask, 1e-15)
        for _ in range(5):
            c = FinSeq(rng.normal(size=12), int(rng.integers(-4, 4)))
            back = decimate(filt, refine(mask, c))
            err = norm_inf(subtract(back, c))
            assert err <= max(filt.residual_l1, 1e-15) * norm_inf(c) + 1e-13

    def test_even_reversibility_periodic(self, rng):
        for mask in (cubic_mask(),
                     Conic(math.cos(2 * math.pi / 16)).mask_at_level(3),
                     NSCubic(math.cos(2 * math.pi / 16)).mask_at_level(2)):
            filt = solve_gamma(mask, 1e-15)
            for _ in range(5):
                c = PeriodicSeq(rng.normal(size=32))
                resid = subtract(c, refine(mask, decimate(filt, c)))
                evens = downsample2(resid)
                bound = filt.residual_l1 * norm_inf(c)
                assert norm_inf(evens) <= bound + 1e-13


class TestFiniteDecimate:
    """Finite decimation on the zero frame against ``zeta * downsample2(c)``."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(family_grid()), st.integers(0, 3),
           st.integers(-9, 9), st.integers(0, 300),
           st.integers(0, 2 ** 32 - 1))
    @example(family_grid()[3], 0, 0, 0, 0)   # empty input
    @example(family_grid()[2], 1, 7, 1, 0)   # one sample, odd offset
    def test_matches_oracle(self, named, level, offset, length, seed):
        _, family = named
        filt = solve_gamma(family.mask_at_level(level))
        c = FinSeq(np.random.default_rng(seed).uniform(-1.0, 1.0, length),
                   offset)
        got = decimate(filt, c)
        if length == 1 and offset % 2:
            assert got.is_empty  # no even-indexed sample to keep
        oracles.assert_matches(got, oracles.decimate(filt, c),
                               filt.zeta.coeffs, c)

    @pytest.mark.parametrize("name, family", [
        named for named in family_grid() if named[0] != "ns4pt"])
    def test_long_input_takes_the_gemm_path(self, rng, gemm_calls, name,
                                            family):
        # the frame's 4100-odd even samples under a 33-45-tap filter
        filt = solve_gamma(family.mask_at_level(0))
        c = FinSeq(rng.uniform(-1.0, 1.0, 8200), -7)
        got = decimate(filt, c)
        assert gemm_calls == [len(filt.zeta)]
        oracles.assert_matches(got, oracles.decimate(filt, c),
                               filt.zeta.coeffs, c)


class TestExport:
    def test_filter_csv_and_metadata(self, tmp_path):
        filt = solve_gamma(cubic_mask(), 1e-15)
        path = tmp_path / "zeta.csv"
        write_filter_csv(path, filt)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,zeta,gamma_raw"
        assert len(lines) == 1 + len(filt.zeta)
        meta = filter_metadata(filt)
        assert meta["epsilon"] == 1e-15
        assert meta["residual_l1"] <= 1e-13
        assert 0.0 < meta["decay_lambda"] < 1.0
        assert meta["nonzero_count"] == len(filt.zeta)
        assert "source_mask_level" not in meta


def tension_masks():
    """Conic and nscubic masks for tensions 2*pi/N, N from 6 to 256."""
    return st.builds(
        lambda kind, theta, level: kind(math.cos(theta)).mask_at_level(level),
        st.sampled_from([Conic, NSCubic]),
        st.floats(2 * math.pi / 256, 2 * math.pi / 6),
        st.integers(0, 3))


def count_window_solves(monkeypatch):
    """Empty the filter and level caches; count the window solves after."""
    calls = []
    solve = decimation._solve_window
    monkeypatch.setattr(decimation, "_filter_cache", {})
    pyramid._level_params.cache_clear()
    monkeypatch.setattr(decimation, "_solve_window",
                        lambda a, w: calls.append(w) or solve(a, w))
    return calls


class TestRootsOfEvenPart:
    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True))
    def test_symbol_zero_between_samples_rejected(self, w0):
        # even part [1, -2 cos w0, 1] vanishes at omega = +-w0, wherever w0
        # falls relative to any sampling grid (e.g. 2*pi*100.5/4096)
        taps = FinSeq([1.0, 0.0, -2.0 * math.cos(w0), 0.0, 1.0], -2)
        with pytest.raises(SymbolZeroOnCircleError):
            solve_gamma(Mask(taps), 1e-15)

    def test_cubic_decay_lambda_exact(self):
        lam = solve_gamma(cubic_mask(), 1e-15).decay_lambda
        assert abs(lam - CUBIC_RHO) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(tension_masks())
    def test_random_tensions_match_oracles(self, mask):
        filt = solve_gamma(mask, 1e-15)
        g = filt.gamma_raw
        oracle = dense_toeplitz_gamma(even_mask(mask), 120)
        idx = g.indices()
        assert np.abs(g.coeffs - oracle.coeffs[idx + 120]).max() <= 1e-13
        assert filt.zeta.coeffs.sum() == pytest.approx(1.0, abs=1e-12)
        # the least-squares fit is biased by the second conic root pair,
        # by up to 7e-4 over these tensions
        assert decay_fit(g)[1] == pytest.approx(filt.decay_lambda, abs=1e-3)
        kept = g.coeffs != 0.0
        envelope = filt.decay_C * filt.decay_lambda ** np.abs(idx[kept])
        assert np.all(np.abs(g.coeffs[kept]) <= envelope * (1.0 + 1e-12))

    def test_one_banded_solve_per_cold_filter(self, monkeypatch):
        calls = count_window_solves(monkeypatch)
        nontrivial = 0
        for fam in (Conic(math.cos(2 * math.pi / 16)),
                    NSCubic(math.cos(2 * math.pi / 16)), NS4Point(0.3)):
            for level in range(4):
                filt = solve_gamma(fam.mask_at_level(level), 1e-15)
                nontrivial += not filt.is_trivial
        assert nontrivial == 8
        assert len(calls) == nontrivial

    def test_stationary_family_solves_once(self, monkeypatch, rng):
        calls = count_window_solves(monkeypatch)
        analyze(rng.normal(size=(64, 2)), cubic_bspline_family(), 4)
        assert len(decimation._filter_cache) == 1
        assert len(calls) == 1

    def test_masks_with_equal_even_parts_share_a_filter(self):
        cubic = Mask(cubic_bspline_mask())
        other_odd = Mask(FinSeq([1 / 8, 0.3, 3 / 4, 0.7, 1 / 8], -2))
        assert even_mask(cubic) == even_mask(other_odd)
        assert solve_gamma(cubic, 3e-13) is solve_gamma(other_odd, 3e-13)
        # Even parts trimmed of zero ends: both are the delta at 0.
        four_point = NS4Point().mask_at_level(0)
        linear = Mask(FinSeq([0.5, 1.0, 0.5], -1))
        assert even_mask(four_point) == even_mask(linear) == delta()
        assert solve_gamma(four_point, 3e-13) is solve_gamma(linear, 3e-13)

    def test_filter_cache_stays_at_cap(self, monkeypatch):
        monkeypatch.setattr(decimation, "_filter_cache", {})
        cap = decimation._FILTER_CACHE_MAX
        masks = [NSCubic(math.cos(2 * math.pi / (8 + k / 64))).mask_at_level(0)
                 for k in range(cap + 10)]
        for mask in masks:
            solve_gamma(mask, 1e-15)
        cache = decimation._filter_cache
        assert len(cache) == cap
        keys = [(even_mask(m).coeffs.tobytes(), even_mask(m).offset, 1e-15)
                for m in masks]
        assert not any(key in cache for key in keys[:10])
        assert all(key in cache for key in keys[10:])

    def test_window_above_limit_rejected_before_solving(self, monkeypatch):
        # roots 0.9999 and 1/0.9999: the symbol stays above 1e-9 on the
        # circle, but the decay is far too slow for a 2**16 window
        r = 0.9999
        taps = FinSeq([1.0, 0.0, -(r + 1.0 / r), 0.0, 1.0], -2)
        calls = count_window_solves(monkeypatch)
        with pytest.raises(NoConvergenceError, match="window above"):
            solve_gamma(Mask(taps), 1e-15)
        assert calls == []

    def test_one_sided_inverse(self):
        # a(z) = 9/z + 6 + z = (z + 3)^2 / z winds once around the origin;
        # its inverse z / (z + 3)^2 has gamma_j = (-1)^(j-1) j / 3^(j+1), j >= 1
        taps = FinSeq([9.0, 0.0, 6.0, 0.0, 1.0], -2)
        g = solve_gamma(Mask(taps), 1e-15).gamma_raw
        j = g.indices()
        assert g.offset == 1
        np.testing.assert_allclose(
            g.coeffs, (-1.0) ** (j - 1) * j / 3.0 ** (j + 1), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("even, offset", [
        ([0.5, 1.0], 5), ([1.0, 2.2, 1.0], 0),
        ([1.0, 8.0, 24.0, 32.0, 16.0], -2)])
    def test_nonzero_winding_solves_equation(self, even, offset):
        taps = np.zeros(2 * len(even) - 1)
        taps[::2] = even
        mask = Mask(FinSeq(taps, 2 * offset))
        g = solve_gamma(mask, 1e-15).gamma_raw
        assert norm_l1(subtract(delta(), convolve(even_mask(mask), g))) <= 1e-13

    @pytest.mark.parametrize("epsilon", [0.0, -1e-15, 1.0, float("nan")])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        with pytest.raises(BadParamsError, match="epsilon"):
            solve_gamma(cubic_mask(), epsilon)

    def test_epsilon_above_every_coefficient_rejected(self):
        # even part 7 * prod(roots) with taps up to 1e8: every solved
        # coefficient is below 1e-8, so truncation would leave no filter
        even = [103219200.0, -62276021.80968224, 22870377.563965864,
                -4937021.144396084, 751555.9617852054, -77272.8866208266,
                5668.360823949443, -257.1838975932345, 7.0]
        with pytest.raises(BadParamsError, match="truncates every"):
            solve_gamma(even_part_mask(even, 0), 1e-8)
        assert len(solve_gamma(even_part_mask(even, 0), 1e-15).zeta) > 0


def even_part_mask(even, offset):
    """Mask whose even taps are ``even`` from index ``offset`` on, odd zero."""
    taps = np.zeros(2 * len(even) - 1)
    taps[::2] = even
    return Mask(FinSeq(taps, 2 * offset))


class TestRepeatedRoots:
    @pytest.mark.parametrize("even, offset, rate", [
        ([1.0, 8.0, 24.0, 32.0, 16.0], -2, 0.5),  # (1 + 2z)^4 / z^2
        ([27.0, 27.0, 9.0, 1.0], -1, 1.0 / 3.0),  # (z + 3)^3 / z
    ])
    def test_decay_lambda_exact(self, monkeypatch, even, offset, rate):
        monkeypatch.setattr(decimation, "_filter_cache", {})
        filt = solve_gamma(even_part_mask(even, offset), 1e-15)
        assert abs(filt.decay_lambda - rate) <= 1e-12
        g = filt.gamma_raw
        kept = g.coeffs != 0.0
        envelope = filt.decay_C * filt.decay_lambda ** np.abs(
            g.indices()[kept])
        assert np.all(np.abs(g.coeffs[kept]) <= envelope * (1.0 + 1e-12))

    def test_shipped_family_filters_unchanged(self, monkeypatch):
        # Their even-part roots lie far apart, so merging is a no-op and
        # every filter equals the one solved from the raw roots.
        def digest():
            monkeypatch.setattr(decimation, "_filter_cache", {})
            out = hashlib.sha256()
            for k in range(40):
                theta = 2 * math.pi / (6 + 1.3 * k)
                for fam in (Conic(math.cos(theta)), NSCubic(math.cos(theta)),
                            cubic_bspline_family()):
                    for level in range(8):
                        f = solve_gamma(fam.mask_at_level(level), 1e-15)
                        out.update(f.zeta.coeffs.tobytes())
                        out.update(f.gamma_raw.coeffs.tobytes())
                        out.update(repr((f.zeta.offset, f.decay_C,
                                         f.decay_lambda,
                                         f.residual_l1)).encode())
            return out.hexdigest()

        merged = digest()
        monkeypatch.setattr(decimation, "_merge_close_roots",
                            lambda roots, *_: roots)
        assert digest() == merged


def reference_residual(mask, zeta):
    """``||delta - even(alpha) * zeta||_1`` through the sequence algebra."""
    return norm_l1(subtract(delta(), convolve(even_mask(mask), zeta)))


class TestResidualAlgebra:
    @pytest.mark.parametrize("shift", [0, 3, -5])
    @pytest.mark.parametrize("name, family", family_grid())
    def test_matches_sequence_algebra(self, name, family, shift):
        for level in range(4):
            m = family.mask_at_level(level)
            mask = Mask(FinSeq(m.taps.coeffs, m.taps.offset + 2 * shift))
            for epsilon in (1e-15, 1e-10, 1e-6):
                filt = solve_gamma(mask, epsilon)
                assert filt.residual_l1 == reference_residual(mask, filt.zeta)
                assert residual_check(filt, mask) == filt.residual_l1

    def test_delta_outside_the_product(self):
        # even part 1 + 2z placed at indices 3..4, zeta = 0.5 at 0: the
        # product 0.5 z^3 + z^4 misses index 0, whose 1 adds to the norm
        mask = even_part_mask([1.0, 2.0], 3)
        zeta = FinSeq([0.5], 0)
        assert decimation._residual_l1(np.array([1.0, 2.0]), 3, zeta) == 2.5
        assert reference_residual(mask, zeta) == 2.5


def window_problem(mask, epsilon):
    """The centred even part and window ``solve_gamma`` solves for ``mask``.

    Returns ``(centred, width, wind, roots)`` for even parts of two or
    more taps, with the symbol sampled by complex exponentials at the
    angles of the ``np.roots`` roots; raises as ``solve_gamma`` does
    before its solve.
    """
    a = even_mask(mask)
    roots = np.roots(a.coeffs[::-1])
    size = np.abs(roots)
    symbol = np.exp(-1j * np.outer(np.angle(roots), a.indices())) @ a.coeffs
    lam = decimation._decay_rate(size)
    if lam >= 1.0 or np.abs(symbol).min() <= decimation._SYMBOL_MIN:
        raise SymbolZeroOnCircleError("reference")
    wind = a.offset + int(np.count_nonzero(size < 1.0))
    centred = (a.coeffs, a.offset - wind)
    gaps = np.abs(roots[:, None] - roots[None, :])
    width = decimation._half_width(centred, gaps, lam, epsilon)
    if width > decimation._MAX_WINDOW:
        raise NoConvergenceError("reference")
    return centred, width, wind, roots


def reference_filter(mask, epsilon):
    """The cold solve with ``scipy.linalg.solve_banded`` on the same window.

    For even parts of two or more taps.  LAPACK's banded solver stands in
    for the FFT solve of ``solve_gamma``.  Returns the unit-sum filter,
    the decay rate read from the merged roots, and the solved window,
    whose entry 0 holds index ``start``.
    """
    (coeffs, lo), width, wind, roots = window_problem(mask, epsilon)
    n = 2 * width + 1
    rhs = np.zeros(n)
    rhs[width] = 1.0
    bands = np.repeat(coeffs[:, None], n, axis=1)
    gamma_full = solve_banded((coeffs.size - 1 + lo, -lo), bands, rhs)
    j = np.arange(-width, width + 1)
    if np.abs(gamma_full[np.abs(j) > width // 2]).max() >= epsilon / 10:
        raise NoConvergenceError("reference")
    kept = np.abs(gamma_full) > epsilon
    if not kept.any():
        raise BadParamsError("reference")
    gamma_raw = FinSeq(np.where(kept, gamma_full, 0.0), -width - wind)
    zeta = FinSeq(gamma_raw.coeffs / gamma_raw.coeffs.sum(), gamma_raw.offset)
    size = np.abs(roots)
    gaps = np.abs(roots[:, None] - roots[None, :])
    lam = decimation._decay_rate(
        np.abs(decimation._merge_close_roots(roots, size, gaps)))
    return zeta, lam, gamma_full, -width - wind


def assert_matches_reference(mask, epsilon):
    """``solve_gamma`` agrees with the LAPACK solve of the same window.

    Same error type; the same kept coefficients, except where LAPACK's
    coefficient lies within the tolerance of ``epsilon``; kept values
    within 1e-12 of the largest; the same decay rate.  Two terms widen
    the tolerance where the window, not the solver, limits agreement:
    LAPACK's own error grows with the condition number
    ``||a||_1 ||gamma||_1`` of the window system (on such draws LAPACK,
    not the FFT, was off by 1.5e-12 against a 300-bit solve), and both
    solves miss ``gamma`` outside the window, by a mass that its outer
    half bounds (a window sized for epsilon 1e-8 and taps of 7e6 put the
    FFT's wrap-around 4e-12 of the largest coefficient from LAPACK's
    exact triangular solve).  Returns both zeta filters when both solved.
    """
    try:
        zeta, lam, window, start = reference_filter(mask, epsilon)
    except (SymbolZeroOnCircleError, NoConvergenceError,
            BadParamsError) as exc:
        with pytest.raises(type(exc)):
            solve_gamma(mask, epsilon)
        return None
    got = solve_gamma(mask, epsilon)
    width = window.size // 2
    cond = norm_l1(even_mask(mask)) * np.abs(window).sum()
    outer = np.abs(window[:width - width // 2]).sum() + np.abs(
        window[width + width // 2 + 1:]).sum()
    tol = max(1e-12, 2 * EPS * cond) * np.abs(window).max() + outer
    ours = np.zeros_like(window)
    ours[got.gamma_raw.indices() - start] = got.gamma_raw.coeffs
    differ = (ours != 0.0) != (np.abs(window) > epsilon)
    assert np.all(np.abs(np.abs(window[differ]) - epsilon) <= tol)
    assert np.abs(ours - np.where(ours != 0.0, window, 0.0)).max() <= tol
    assert got.decay_lambda == lam
    return got.zeta, zeta


def root_modulus():
    """Moduli off the unit circle, inside and outside, both signs."""
    return st.one_of(st.floats(0.05, 0.92), st.floats(1.08, 20.0))


@st.composite
def factored_even_parts(draw, min_factors=1, max_factors=4):
    """Even taps ``c * prod(factors)`` from linear and quadratic factors.

    A quadratic factor is a complex-conjugate root pair; the roots keep
    away from the unit circle, so the filter exists, and the offset sets
    the winding number.
    """
    poly = np.array([1.0])
    for _ in range(draw(st.integers(min_factors, max_factors))):
        r = draw(root_modulus())
        if draw(st.booleans()):
            sign = draw(st.sampled_from([-1.0, 1.0]))
            poly = np.convolve(poly, [1.0, -sign * r])
        else:
            t = draw(st.floats(0.05, math.pi - 0.05))
            poly = np.convolve(poly, [1.0, -2.0 * r * math.cos(t), r * r])
    scale = draw(st.floats(0.1, 10.0))
    return (scale * poly[::-1]).tolist(), draw(st.integers(-6, 6))


epsilons = st.floats(-15.0, -8.0).map(lambda e: 10.0 ** e)


@st.composite
def repeated_root_even_parts(draw):
    """Even taps ``c * (z - r)^m * q(z)``: a root of multiplicity m, which
    the eigenvalue solver splits into m close roots, beside other roots."""
    r = draw(root_modulus()) * draw(st.sampled_from([-1.0, 1.0]))
    poly = np.array([1.0])
    for _ in range(draw(st.integers(2, 4))):
        poly = np.convolve(poly, [1.0, -r])
    rest, offset = draw(factored_even_parts(0, 2))
    return np.convolve(poly[::-1], rest).tolist(), offset


def root_sets():
    """Root arrays of 1 to 12 roots: real or conjugate pairs, moduli on
    both sides of the circle, some repeated to within rounding."""
    def build(pairs):
        roots = []
        for modulus, angle, copies in pairs:
            root = modulus * complex(math.cos(angle), math.sin(angle))
            for i in range(copies):
                roots.append(root * (1.0 + i * 1e-6))
        return np.array(roots[:12])
    return st.lists(st.tuples(root_modulus(), st.floats(0.0, math.pi),
                              st.integers(1, 3)),
                    min_size=1, max_size=6).map(build)


def bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestWindowScalars:
    """The scalars the roots fix run on Python floats, bit for bit as the
    numpy expressions of :mod:`oracles` give them."""

    @settings(max_examples=150, deadline=None)
    @given(root_sets())
    def test_helpers_match_numpy(self, roots):
        size = np.abs(roots)
        gaps = np.abs(roots[:, None] - roots[None, :])
        sizes, rows = size.tolist(), gaps.tolist()
        assert bits(decimation._decay_rate(sizes)) == bits(
            oracles.decay_rate(size))
        assert bits(decimation._residue_sum(rows)) == bits(
            oracles.residue_sum(gaps))
        merged = decimation._merge_close_roots(roots, sizes, rows)
        want = oracles.merged_roots(roots, size, gaps)
        assert (merged is roots) == (want is roots)
        assert merged.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), max_size=20))
    def test_add_reduce_matches_numpy(self, values):
        assert bits(sequences._add_reduce(values)) == bits(
            np.add.reduce(np.array(values, dtype=float)))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(factored_even_parts(), repeated_root_even_parts()),
           epsilons)
    def test_solve_reads_the_numpy_scalars(self, part, epsilon):
        even, offset = part
        solve = decimation._solve_window
        windows = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decimation, "_filter_cache", {})
            patch.setattr(decimation, "_solve_window", lambda a, w: (
                windows.append((a[1], w)) or solve(a, w)))
            try:
                filt = solve_gamma(even_part_mask(even, offset), epsilon)
            except (SymbolZeroOnCircleError, NoConvergenceError,
                    BadParamsError):
                filt = None
        assume(windows)  # the solve got as far as its window
        lam, wind, width, merged_lam = oracles.window_scalars(
            np.array(even), offset, epsilon)
        assert windows == [(offset - wind, width)]
        if filt is not None:
            assert bits(filt.decay_lambda) == bits(merged_lam)


class TestDirectGufuncs:
    """The eigensolve and the transforms, called as numpy's gufuncs, give
    the public functions' bits, and the public functions stand in for
    them."""

    def test_gufuncs_in_use(self):
        # numpy 2 has all three; numpy 1 has no FFT gufuncs
        assert decimation._EIGVALS is not None
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
            assert decimation._RFFT_EVEN is not None
            assert decimation._IRFFT is not None

    @settings(max_examples=150, deadline=None)
    @given(arrays(float, st.integers(1, 9),
                  elements=st.one_of(st.floats(-1e3, 1e3),
                                     st.sampled_from([0.0, 1.0, -1.0]))))
    def test_eigvals_of_companions(self, row):
        companion = np.eye(row.size, k=-1)
        companion[0] = row
        want = np.linalg.eigvals(companion)
        got = decimation._eigvals(companion)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_matrix_raises_as_eigvals_does(self, bad):
        companion = np.eye(3, k=-1)
        companion[0, 1] = bad
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            decimation._eigvals(companion)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300).flatmap(lambda half: arrays(
        float, 2 * half, elements=st.floats(-1e6, 1e6))))
    def test_transforms(self, x):
        spectrum = np.fft.rfft(x)
        assert decimation._rfft(x).tobytes() == spectrum.tobytes()
        assert (decimation._irfft(spectrum, x.size).tobytes()
                == np.fft.irfft(spectrum, x.size).tobytes())

    def test_public_functions_give_the_same_filters(self, monkeypatch):
        def filters():
            monkeypatch.setattr(decimation, "_filter_cache", OrderedDict())
            out = []
            for theta in (0.1, 0.7, 1.0):
                for fam in (Conic(math.cos(theta)), NSCubic(math.cos(theta))):
                    for level in range(4):
                        f = solve_gamma(fam.mask_at_level(level))
                        out.append((f.zeta.coeffs.tobytes(), f.zeta.offset,
                                    f.decay_C, f.decay_lambda))
            return out

        direct = filters()
        for name in ("_EIGVALS", "_RFFT_EVEN", "_IRFFT"):
            monkeypatch.setattr(decimation, name, None)
        assert filters() == direct


class TestLapackOracle:
    """The FFT solve against LAPACK's banded solve and an exact solve.

    LAPACK solves the finite section of the window, the FFT its cyclic
    version; both approximate the same inverse, so they agree to a
    tolerance, not bit for bit.
    """

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.05, 0.92), st.floats(1.08, 20.0),
           st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]),
           st.floats(0.1, 10.0), st.integers(-6, 6), epsilons)
    def test_three_taps_one_band_each_side(self, r_in, r_out, s_in, s_out,
                                           scale, offset, epsilon):
        # one root inside and one outside the circle: the window system
        # has one sub- and one super-diagonal
        even = scale * np.convolve([1.0, -s_in * r_in], [1.0, -s_out * r_out])
        assert_matches_reference(
            even_part_mask(even[::-1].tolist(), offset), epsilon)

    @settings(max_examples=80, deadline=None)
    @given(factored_even_parts(), epsilons)
    def test_factored_even_parts(self, even_offset, epsilon):
        even, offset = even_offset
        assert_matches_reference(even_part_mask(even, offset), epsilon)

    @settings(max_examples=40, deadline=None)
    @given(tension_masks(), st.sampled_from([0, 5, -7]), epsilons)
    def test_shipped_families(self, mask, shift, epsilon):
        shifted = Mask(FinSeq(mask.taps.coeffs, mask.taps.offset + 2 * shift))
        pair = assert_matches_reference(shifted, epsilon)
        if pair is not None:
            got, expected = pair
            assert got.support == expected.support
            assert (np.abs(got.coeffs - expected.coeffs).max()
                    <= 16 * EPS * norm_l1(expected))

    @settings(max_examples=25, deadline=None)
    @given(factored_even_parts(max_factors=3), epsilons)
    def test_exact_finite_section(self, even_offset, epsilon):
        # the window's solve against an exact rational solve of the
        # finite section on a window twice as wide
        even, offset = even_offset
        try:
            centred, width, _, _ = window_problem(
                even_part_mask(even, offset), epsilon)
        except (SymbolZeroOnCircleError, NoConvergenceError):
            return
        assume(width <= 60)
        exact = exact_finite_section(*centred, 2 * width)
        assume(exact is not None)
        exact = np.array([float(v) for v in exact])
        inner = exact[width: 3 * width + 1]
        gamma = decimation._solve_window(centred, width)
        # the FFT's wrap-around adds gamma from outside the window, at
        # most its mass there
        outside = np.abs(exact).sum() - np.abs(inner).sum()
        assert (np.abs(gamma - inner).max()
                <= 32 * EPS * np.abs(inner).max() + outside)

    @pytest.mark.parametrize("coeffs, offset", [
        ([1.0, 1.0], -1),  # 1 + 1/z: zero at frequency pi
        ([0.0, 0.0], 0),  # every frequency
    ])
    def test_singular_window_raises_no_convergence(self, coeffs, offset):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergenceError, match="at frequency"):
                decimation._solve_window((np.array(coeffs), offset), 3)

    def test_pure_shift_inverts(self):
        # a = 1/z has the inverse z, gamma_1 = 1: index 1 is entry 4; the
        # correction leaves errors of order eps^2 elsewhere
        gamma = decimation._solve_window((np.array([1.0, 0.0, 0.0]), -1), 3)
        assert gamma[4] == 1.0
        assert np.abs(np.delete(gamma, 4)).max() <= EPS ** 2


def exact_finite_section(coeffs, lo, half):
    """Exact solution of the finite section of ``gamma * a = delta``.

    The system on ``[-half, half]``, entry (r, c) = ``a[r - c]``, solved
    by banded elimination in ``fractions.Fraction`` arithmetic without
    pivoting; None when a pivot vanishes.
    """
    n = 2 * half + 1
    hi = lo + len(coeffs) - 1
    taps = [Fraction(float(c)) for c in coeffs]
    rows = [{c: taps[r - c - lo]
             for c in range(max(0, r - hi), min(n, r - lo + 1))}
            for r in range(n)]
    rhs = [Fraction(0)] * n
    rhs[half] = Fraction(1)
    for k in range(n):
        pivot = rows[k][k]
        if pivot == 0:
            return None
        right = [(c, v) for c, v in rows[k].items() if c > k]
        for r in range(k + 1, min(n, k + hi + 1)):
            factor = rows[r].pop(k, 0) / pivot
            if factor:
                for c, v in right:
                    rows[r][c] = rows[r].get(c, 0) - factor * v
                rhs[r] -= factor * rhs[k]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        x[k] = (rhs[k] - sum(v * x[c] for c, v in rows[k].items() if c > k)
                ) / rows[k][k]
    return x
