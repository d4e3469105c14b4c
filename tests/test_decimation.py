import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspyr import (
    BadParamsError,
    Conic,
    FinSeq,
    FitFailedError,
    Mask,
    NoConvergenceError,
    NS4Point,
    NSCubic,
    OddPeriodError,
    PeriodicSeq,
    SymbolZeroOnCircleError,
    analyze,
    convolve,
    cubic_bspline_family,
    cubic_bspline_mask,
    decay_fit,
    decimate,
    delta,
    downsample2,
    even_mask,
    norm_inf,
    norm_l1,
    refine,
    residual_check,
    solve_gamma,
    subtract,
    write_filter_csv,
)
from nspyr import decimation
from nspyr.decimation import filter_metadata

CUBIC_RHO = 3.0 - 2.0 * math.sqrt(2.0)


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
    """Empty the filter cache and count the banded solves that follow."""
    calls = []
    solve = decimation._solve_window
    monkeypatch.setattr(decimation, "_filter_cache", {})
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
            solve_gamma(Mask(taps, check_parity=False), 1e-15)

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

    def test_window_above_limit_rejected_before_solving(self, monkeypatch):
        # roots 0.9999 and 1/0.9999: the symbol stays above 1e-9 on the
        # circle, but the decay is far too slow for a 2**16 window
        r = 0.9999
        taps = FinSeq([1.0, 0.0, -(r + 1.0 / r), 0.0, 1.0], -2)
        calls = count_window_solves(monkeypatch)
        with pytest.raises(NoConvergenceError, match="window above"):
            solve_gamma(Mask(taps, check_parity=False), 1e-15)
        assert calls == []

    def test_one_sided_inverse(self):
        # a(z) = 9/z + 6 + z = (z + 3)^2 / z winds once around the origin;
        # its inverse z / (z + 3)^2 has gamma_j = (-1)^(j-1) j / 3^(j+1), j >= 1
        taps = FinSeq([9.0, 0.0, 6.0, 0.0, 1.0], -2)
        g = solve_gamma(Mask(taps, check_parity=False), 1e-15).gamma_raw
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
        mask = Mask(FinSeq(taps, 2 * offset), check_parity=False)
        g = solve_gamma(mask, 1e-15).gamma_raw
        assert norm_l1(subtract(delta(), convolve(even_mask(mask), g))) <= 1e-13

    @pytest.mark.parametrize("epsilon", [0.0, -1e-15, 1.0, float("nan")])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        with pytest.raises(BadParamsError, match="epsilon"):
            solve_gamma(cubic_mask(), epsilon)
