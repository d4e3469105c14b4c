import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import family_grid

from nspyr import (
    BadParamsError,
    Conic,
    DomainError,
    FinSeq,
    NS4Point,
    NSCubic,
    PeriodicSeq,
    PeriodNotDivisibleError,
    Pyramid,
    ShapeMismatchError,
    analyze,
    check_decomposition_stability,
    check_reconstruction_stability,
    cubic_bspline_family,
    detail_bound,
    detail_decay_report,
    norm_l1,
    perturb_wavy,
    reconstruction_stability_bound,
    residual_operator_norm_estimate,
    sample_circle,
    synthesize,
    synthesize_array,
)


def roundtrip_error(data, family, levels, boundary):
    p = analyze(data, family, levels, boundary=boundary)
    out = synthesize_array(p)
    arr = np.asarray(data, dtype=float)
    if boundary == "finite":
        # finite supports may widen with tiny residues; compare on the
        # original index range (analysis starts at offset 0)
        comps = synthesize(p)
        err = 0.0
        cols = arr[:, None] if arr.ndim == 1 else arr
        for d, comp in enumerate(comps):
            for i, v in enumerate(cols[:, d]):
                err = max(err, abs(comp[i] - v))
        return err
    return np.abs(out - arr).max()


class TestRoundTrip:
    @pytest.mark.parametrize("name,family", family_grid())
    @pytest.mark.parametrize("levels", [1, 3])
    def test_periodic(self, rng, name, family, levels):
        n = 16 * 2 ** levels
        data = rng.normal(size=n)
        err = roundtrip_error(data, family, levels, "periodic")
        assert err <= 1e-12 * (1.0 + np.abs(data).max())

    @pytest.mark.parametrize("name,family", family_grid())
    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
    def test_finite(self, rng, name, family, levels):
        data = rng.normal(size=100)
        err = roundtrip_error(data, family, levels, "finite")
        assert err <= 1e-12 * (1.0 + np.abs(data).max())

    def test_planar(self, rng):
        curve = sample_circle(64)
        fam = Conic(math.cos(2 * math.pi / 8))
        p = analyze(curve.points, fam, 3, boundary="periodic")
        out = synthesize_array(p)
        assert np.abs(out - curve.points).max() <= 1e-12


class TestAnalyzeContracts:
    def test_period_not_divisible(self):
        with pytest.raises(PeriodNotDivisibleError) as excinfo:
            analyze(np.ones(100), cubic_bspline_family(), 3,
                    boundary="periodic")
        assert "period not divisible" in str(excinfo.value)

    def test_needs_at_least_one_level(self):
        with pytest.raises(BadParamsError):
            analyze(np.ones(16), cubic_bspline_family(), 0,
                    boundary="periodic")

    @pytest.mark.parametrize("shape", [(96,), (96, 2)],
                             ids=["scalar", "planar"])
    def test_interpolating_details_vanish_on_evens(self, rng, shape):
        fam = NS4Point(2 * math.pi / 12)
        data = rng.normal(size=shape)
        p = analyze(data, fam, 3, boundary="periodic")
        for level in range(1, 4):
            d = p.detail_array(level)
            assert np.all(d[0::2] == 0.0)

    @pytest.mark.parametrize("boundary", ["periodic", "finite"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, boundary, bad):
        data = np.cos(2 * math.pi * np.arange(64) / 64)
        data[17] = bad
        with pytest.raises(DomainError, match="finite"):
            analyze(data, cubic_bspline_family(), 2, boundary=boundary)
        planar = np.stack([data, data[::-1]], axis=1)
        with pytest.raises(DomainError, match="finite"):
            analyze(planar, cubic_bspline_family(), 2, boundary=boundary)

    def test_interpolating_uses_plain_downsampling(self, rng):
        fam = NS4Point(2 * math.pi / 12)
        data = rng.normal(size=48)
        p = analyze(data, fam, 2, boundary="periodic")
        for lp in p.level_params:
            assert lp.filt.is_trivial
        np.testing.assert_array_equal(p.coarse_array(), data[::4])

    def test_circle_pyramid_nearly_zero_details(self):
        curve = sample_circle(256)
        fam = Conic(math.cos(2 * math.pi / 16))
        p = analyze(curve.points, fam, 4, boundary="periodic")
        assert p.coarse_array().shape == (16, 2)
        for level in range(1, 5):
            assert p.detail_norms(level).max() <= 1e-8

    @pytest.mark.parametrize("name,family", [f for f in family_grid()
                                             if f[0] != "nscubic"])
    def test_constants_have_tiny_details(self, name, family):
        # families whose parity sums are exactly one reproduce constants,
        # and the unit-sum filter preserves them on the way down
        p = analyze(np.full(64, 3.7), family, 2, boundary="periodic")
        for level in range(1, 3):
            assert p.detail_norms(level).max() <= 1e-12

    def test_linearity(self, rng):
        fam = NSCubic(math.cos(2 * math.pi / 16))
        c = rng.normal(size=64)
        e = rng.normal(size=64)
        a, b = 1.7, -0.4
        p_mix = analyze(a * c + b * e, fam, 3, boundary="periodic")
        p_c = analyze(c, fam, 3, boundary="periodic")
        p_e = analyze(e, fam, 3, boundary="periodic")
        mix_coarse = a * p_c.coarse_array() + b * p_e.coarse_array()
        scale = max(1.0, np.abs(mix_coarse).max())
        np.testing.assert_allclose(p_mix.coarse_array(), mix_coarse,
                                   atol=1e-12 * scale)
        for level in range(1, 4):
            want = a * p_c.detail_array(level) + b * p_e.detail_array(level)
            np.testing.assert_allclose(p_mix.detail_array(level), want,
                                       atol=1e-12 * (1 + np.abs(want).max()))


class TestSynthesisVariants:
    def test_zeroed_details_keep_circle(self):
        curve = sample_circle(256)
        fam = Conic(math.cos(2 * math.pi / 16))
        p = analyze(curve.points, fam, 4, boundary="periodic")
        zeroed = Pyramid(
            p.coarse,
            [[PeriodicSeq(np.zeros(d.period)) for d in lvl]
             for lvl in p.details],
            p.family, p.epsilon, p.boundary, p.level_params)
        out = synthesize_array(zeroed)
        radii = np.hypot(out[:, 0], out[:, 1])
        assert np.abs(radii - 1.0).max() <= 1e-8

    def test_scaled_details_stay_within_stability_budget(self, rng):
        curve = sample_circle(256)
        noisy_pts = curve.points + rng.normal(scale=1e-3, size=(256, 2))
        fam = Conic(math.cos(2 * math.pi / 16))
        p = analyze(noisy_pts, fam, 4, boundary="periodic")
        halved = Pyramid(
            p.coarse,
            [[PeriodicSeq(0.5 * d.values) for d in lvl]
             for lvl in p.details],
            p.family, p.epsilon, p.boundary, p.level_params)
        check = check_reconstruction_stability(p, halved)
        assert check.holds and check.slack >= 0.0

    def test_shape_mismatch_detected(self, rng):
        data = rng.normal(size=32)
        p = analyze(data, cubic_bspline_family(), 2, boundary="periodic")
        broken = Pyramid(
            p.coarse,
            [p.details[0], [PeriodicSeq(np.zeros(13))]],
            p.family, p.epsilon, p.boundary, p.level_params)
        with pytest.raises(ShapeMismatchError):
            synthesize(broken)


class TestDecayReport:
    def test_circle_levels_all_tiny(self):
        curve = sample_circle(256)
        fam = Conic(math.cos(2 * math.pi / 16))
        p = analyze(curve.points, fam, 4, boundary="periodic")
        rep = detail_decay_report(p)
        assert all(v <= 1e-8 for v in rep.per_level_inf)
        assert len(rep.ratios) == 3

    def test_decay_bound_dominates_measurements(self):
        # one dyadic period of a sine sampled on the depth-10 grid
        levels = 10
        h = 2.0 ** -levels
        n = 8 * 2 ** levels
        data = np.sin(2 * np.pi * np.arange(n) * h / 8.0)
        fam = NS4Point(0.0)
        p = analyze(data, fam, levels, boundary="finite")
        rep = detail_decay_report(p)
        bounds = detail_bound(p, fprime_inf=2.0 * np.pi / 8.0)
        for measured, bound in zip(rep.per_level_inf, bounds):
            assert measured <= bound

    def test_wavy_details_grow_with_amplitude(self):
        from nspyr import perturb_wavy
        fam = Conic(math.cos(2 * math.pi / 16))
        norms = []
        for amp in (0.005, 0.02, 0.08):
            curve = perturb_wavy(sample_circle(256), amp, 11)
            p = analyze(curve.points, fam, 4, boundary="periodic")
            rep = detail_decay_report(p)
            norms.append(rep.per_level_inf)
        for lo, hi in zip(norms, norms[1:]):
            assert all(a < b for a, b in zip(lo, hi))


class TestStability:
    def test_bound_examples(self):
        # nonnegative taps with exact parity sums force operator norm 1
        assert reconstruction_stability_bound(cubic_bspline_family(), 4) == 1.0
        assert reconstruction_stability_bound(NS4Point(0.0), 3) == \
            pytest.approx(1.25 ** 3, rel=1e-15)
        # exponential cubic masks are nonnegative but their parity sums
        # sit a hair above one, so the amplification is barely above one
        big_l = reconstruction_stability_bound(
            NSCubic(math.cos(2 * math.pi / 16)), 3)
        assert 1.0 < big_l < 1.001

    def test_identical_pyramids(self, rng):
        data = rng.normal(size=64)
        p = analyze(data, cubic_bspline_family(), 3, boundary="periodic")
        check = check_reconstruction_stability(p, p)
        assert check.holds and check.lhs == 0.0

    def test_perturbed_details(self, rng):
        fam = NSCubic(math.cos(2 * math.pi / 16))
        data = rng.normal(size=64)
        p = analyze(data, fam, 4, boundary="periodic")
        noisy = Pyramid(
            p.coarse,
            [[PeriodicSeq(d.values + rng.uniform(-1e-3, 1e-3,
                                                 size=d.period))
              for d in lvl] for lvl in p.details],
            p.family, p.epsilon, p.boundary, p.level_params)
        check = check_reconstruction_stability(p, noisy)
        assert check.holds and check.slack >= 0.0

    def test_perturbed_coarse_only(self, rng):
        data = rng.normal(size=64)
        p = analyze(data, cubic_bspline_family(), 3, boundary="periodic")
        shifted = Pyramid(
            [PeriodicSeq(c.values + 1e-3) for c in p.coarse],
            p.details, p.family, p.epsilon, p.boundary, p.level_params)
        assert check_reconstruction_stability(p, shifted).holds

    def test_decomposition_identical(self, rng):
        data = rng.normal(size=64)
        res = check_decomposition_stability(
            data, data, cubic_bspline_family(), 3, trials=20)
        assert res.holds and res.coarse.lhs == 0.0

    def test_decomposition_uniform_noise(self, rng):
        fam = NSCubic(math.cos(2 * math.pi / 16))
        data = rng.normal(size=64)
        noisy = data + rng.uniform(-1e-4, 1e-4, size=64)
        res = check_decomposition_stability(data, noisy, fam, 3, trials=50)
        assert res.holds
        assert res.coarse.slack >= 0.0
        for entry in res.per_level:
            assert entry.opnorm_lower_estimate <= entry.opnorm_upper + 1e-12

    def test_decomposition_interpolating_filters_are_unit(self, rng):
        fam = NS4Point(2 * math.pi / 12)
        data = rng.normal(size=48)
        noisy = data + rng.uniform(-1e-4, 1e-4, size=48)
        res = check_decomposition_stability(data, noisy, fam, 2, trials=20)
        assert res.holds
        p = analyze(data, fam, 2, boundary="periodic")
        assert all(norm_l1(lp.filt.zeta) == 1.0 for lp in p.level_params)
        # with unit filters the coarse bound is exactly the input distance
        assert res.coarse.rhs == pytest.approx(
            np.abs(noisy - data).max(), rel=1e-12)

    def test_opnorm_estimate_cached_and_positive(self):
        fam = cubic_bspline_family()
        mask = fam.mask_at_level(0)
        from nspyr import solve_gamma
        filt = solve_gamma(mask, 1e-15)
        first = residual_operator_norm_estimate(mask, filt, trials=50)
        second = residual_operator_norm_estimate(mask, filt, trials=50)
        assert first == second > 0.0


class TestSerialization:
    @pytest.mark.parametrize("boundary", ["periodic", "finite"])
    def test_json_roundtrip_bit_exact(self, rng, boundary):
        fam = Conic(math.cos(2 * math.pi / 8))
        data = rng.normal(size=(64, 2))
        p = analyze(data, fam, 3, boundary=boundary)
        q = Pyramid.from_json(p.to_json())
        assert q.boundary == p.boundary
        assert q.epsilon == p.epsilon
        np.testing.assert_array_equal(q.coarse_array(), p.coarse_array())
        for level in range(1, 4):
            np.testing.assert_array_equal(q.detail_array(level),
                                          p.detail_array(level))
        for lp, lq in zip(p.level_params, q.level_params):
            assert lp.mask.taps == lq.mask.taps
            assert lp.filt.zeta == lq.filt.zeta
            assert lp.filt.residual_l1 == lq.filt.residual_l1
        np.testing.assert_array_equal(synthesize_array(q),
                                      synthesize_array(p))

    def test_json_field_order_stable(self, rng):
        data = rng.normal(size=32)
        p = analyze(data, cubic_bspline_family(), 2, boundary="periodic")
        text = p.to_json()
        assert "\n" not in text
        assert list(json.loads(text).keys()) == [
            "family", "epsilon", "boundary", "coarse", "details",
            "level_params"]

    def test_detail_count_must_match_level_params(self, rng):
        p = analyze(rng.normal(size=64), cubic_bspline_family(), 3,
                    boundary="periodic")
        doc = json.loads(p.to_json())
        doc["details"] = doc["details"][:2]
        with pytest.raises(ShapeMismatchError, match="detail levels"):
            Pyramid.from_json_dict(doc)

    def test_committed_indented_document_loads(self):
        # written with indent=1 by demos/03_pyramid_roundtrip.py
        path = (Path(__file__).parent.parent
                / "demos" / "output" / "wavy_pyramid.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        p = Pyramid.from_json_dict(doc)
        curve = perturb_wavy(sample_circle(256), amplitude=0.02, frequency=9)
        assert np.abs(synthesize_array(p) - curve.points).max() <= 1e-12
        assert json.loads(p.to_json()) == doc

    def test_deserialized_synthesis_matches_input(self, rng):
        data = rng.normal(size=64)
        fam = NSCubic(math.cos(2 * math.pi / 16))
        p = analyze(data, fam, 3, boundary="periodic")
        q = Pyramid.from_json(p.to_json())
        assert np.abs(synthesize_array(q) - data).max() <= 1e-12


class TestFinSeqInputs:
    def test_finseq_component_offsets_survive(self, rng):
        seq = FinSeq(rng.normal(size=40), offset=-7)
        p = analyze(seq, cubic_bspline_family(), 2, boundary="finite")
        out = synthesize(p)[0]
        err = max(abs(out[i] - seq[i])
                  for i in range(seq.offset - 3, seq.offset + len(seq) + 3))
        assert err <= 1e-12 * (1 + max(abs(seq.coeffs.max()),
                                       abs(seq.coeffs.min())))

    def test_boundary_flag_must_match_type(self, rng):
        with pytest.raises(BadParamsError):
            analyze(PeriodicSeq(rng.normal(size=16)),
                    cubic_bspline_family(), 2, boundary="finite")
