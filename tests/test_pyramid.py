import base64
import copy
import json
import math
import os
import pickle
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import family_grid, list_form_document
import oracles
from oracles import decimate, refine, subtract

from nspyr import (
    BadParamsError,
    Conic,
    DetailDecayReport,
    DomainError,
    FinSeq,
    LevelParams,
    Mask,
    NS4Point,
    NSCubic,
    PeriodicSeq,
    PeriodNotDivisibleError,
    Pyramid,
    SchemeFamily,
    ShapeMismatchError,
    Stationary,
    analyze,
    anomaly_flags,
    check_decomposition_stability,
    check_reconstruction_stability,
    circularity_report,
    conic_family_for,
    cubic_bspline_family,
    cubic_bspline_mask,
    detail_bound,
    detail_decay_report,
    family_from_description,
    norm_l1,
    perturb_wavy,
    reconstruction_stability_bound,
    residual_operator_norm_estimate,
    sample_circle,
    solve_gamma,
    synthesize,
    synthesize_array,
)
from nspyr import pyramid
from nspyr.pyramid import _row_norms


def assert_same_pyramid(q, p):
    """``q`` holds the blocks of ``p`` bit for bit and all its metadata."""
    blocks = (p.coarse,) + p.details
    assert [b.shape for b in (q.coarse,) + q.details] == [
        b.shape for b in blocks]
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip((q.coarse,) + q.details, blocks))
    assert (q.offsets, q.support) == (p.offsets, p.support)
    assert (q.family, q.epsilon, q.boundary) == (
        p.family, p.epsilon, p.boundary)
    assert q.level_params == p.level_params
    # the JSON of every number, offsets and operators included, is the same
    assert q.to_json() == p.to_json()


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


class TestLongFilterPath:
    """At N = 2^12 the finest decimation (2048 x 2) runs through GEMM."""

    @pytest.mark.parametrize("name,family", family_grid())
    def test_planar_round_trip(self, rng, gemm_calls, name, family):
        n = 2 ** 12
        t = 2 * math.pi * np.arange(n) / n
        data = np.stack([np.cos(t), np.sin(t)], axis=1)
        data += 0.05 * rng.normal(size=data.shape)
        p = analyze(data, family, 4)
        assert np.abs(synthesize_array(p) - data).max() <= 1e-12
        if family.interpolating:
            # ns4pt: a 1-tap filter, so no level takes the GEMM path
            assert gemm_calls == []
            for d in p.details:
                assert np.all(d[0::2] == 0.0)
        else:
            # only the finest decimation (2048 x 2) reaches the crossover
            assert gemm_calls == [len(p.level_params[-1].filt.zeta)]

    @pytest.mark.parametrize("radius", [0.5, 1.0, 3.0])
    def test_clean_circle_scores_at_noise(self, gemm_calls, radius):
        curve = sample_circle(2 ** 12, radius=radius, center=(0.3, -1.2))
        report = circularity_report(curve, 4)
        assert len(gemm_calls) == 1
        assert report.verdict_scale <= 1e-9 * radius


class TestKernelCalls:
    @pytest.mark.parametrize("boundary", ["periodic", "finite"])
    @pytest.mark.parametrize("name,family", family_grid())
    def test_one_call_per_decimation_and_refinement(self, rng, kernel_calls,
                                                    name, family, boundary):
        # a level decimates with its one filter, then refines both phases
        # in one call; synthesis refines once per level
        p = analyze(rng.normal(size=(128, 2)), family, 3, boundary=boundary)
        assert kernel_calls == [1, 2] * 3
        synthesize_array(p)
        assert kernel_calls == [1, 2] * 3 + [2] * 3


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

    @pytest.mark.parametrize(
        "shape,boundary",
        [((96,), "periodic"), ((96, 2), "periodic"),
         ((96,), "finite"), ((96, 2), "finite")],
        ids=["scalar", "planar", "scalar-finite", "planar-finite"])
    def test_interpolating_details_vanish_on_evens(self, rng, shape,
                                                   boundary):
        # a stationary family is interpolating when its taps say so
        four_point = Stationary(
            FinSeq([-1 / 16, 0, 9 / 16, 1, 9 / 16, 0, -1 / 16], -3),
            "four_point")
        data = rng.normal(size=shape)
        for fam in (NS4Point(2 * math.pi / 12), four_point):
            assert fam.interpolating
            p = analyze(data, fam, 3, boundary=boundary)
            for level in range(1, 4):
                d = p.detail_array(level)
                # row i holds index offsets[level] + i
                assert np.all(d[p.offsets[level] % 2::2] == 0.0)
                assert np.abs(d).max() > 0.0

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
            [np.zeros_like(d) for d in p.details],
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
            [0.5 * d for d in p.details],
            p.family, p.epsilon, p.boundary, p.level_params)
        check = check_reconstruction_stability(p, halved)
        assert check.holds and check.slack >= 0.0

    def test_shape_mismatch_detected(self, rng):
        data = rng.normal(size=32)
        p = analyze(data, cubic_bspline_family(), 2, boundary="periodic")
        with pytest.raises(ShapeMismatchError):
            Pyramid(
                p.coarse,
                [p.details[0], np.zeros((13, 1))],
                p.family, p.epsilon, p.boundary, p.level_params)


class TestDecayReport:
    def test_circle_levels_all_tiny(self):
        curve = sample_circle(256)
        fam = Conic(math.cos(2 * math.pi / 16))
        p = analyze(curve.points, fam, 4, boundary="periodic")
        rep = detail_decay_report(p)
        assert all(v <= 1e-8 for v in rep.per_level_inf)
        assert len(rep.ratios) == 3

    @pytest.mark.parametrize("boundary", ["periodic", "finite"])
    @pytest.mark.parametrize("name,family", family_grid())
    def test_levels_and_ratios_read_from_the_norms(self, rng, name, family,
                                                   boundary):
        # a level is its position, the report's levels count its norms, and
        # its ratios divide consecutive sup norms
        t = 2 * math.pi * np.arange(64) / 64
        data = np.stack([np.cos(t), np.sin(t)], axis=1)
        data += 0.01 * rng.normal(size=data.shape)
        p = analyze(data, family, 3, boundary=boundary)
        assert [lp.level for lp in p.level_params] == [1, 2, 3]
        assert [LevelParams(lp.mask, lp.filt) for lp in p.level_params] == [
            *p.level_params]
        rep = detail_decay_report(p)
        assert rep == DetailDecayReport(rep.per_level_inf, rep.per_level_l1,
                                        rep.per_level_avg_l2)
        inf = rep.per_level_inf
        assert rep.levels == p.levels == 3
        assert rep.ratios == [inf[0] / inf[1], inf[1] / inf[2]]

    def test_ratios_over_zero_norms(self):
        rep = DetailDecayReport([0.0, 0.0, 2.0, 0.0, 3.0], [0.0] * 5,
                                [0.0] * 5)
        assert rep.levels == 5
        np.testing.assert_array_equal(rep.ratios,
                                      [math.nan, 0.0, math.inf, 0.0])
        empty = DetailDecayReport([], [], [])
        assert (empty.levels, empty.ratios, empty.verdict_scale) == (
            0, [], 0.0)

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
            [d + rng.uniform(-1e-3, 1e-3, size=d.shape) for d in p.details],
            p.family, p.epsilon, p.boundary, p.level_params)
        check = check_reconstruction_stability(p, noisy)
        assert check.holds and check.slack >= 0.0

    def test_perturbed_coarse_only(self, rng):
        data = rng.normal(size=64)
        p = analyze(data, cubic_bspline_family(), 3, boundary="periodic")
        shifted = Pyramid(
            p.coarse + 1e-3,
            p.details, p.family, p.epsilon, p.boundary, p.level_params)
        assert check_reconstruction_stability(p, shifted).holds

    def test_decomposition_identical(self, rng):
        data = rng.normal(size=64)
        res = check_decomposition_stability(
            data, data, cubic_bspline_family(), 3)
        assert res.holds and res.coarse.lhs == 0.0

    def test_decomposition_uniform_noise(self, rng):
        fam = NSCubic(math.cos(2 * math.pi / 16))
        data = rng.normal(size=64)
        noisy = data + rng.uniform(-1e-4, 1e-4, size=64)
        res = check_decomposition_stability(data, noisy, fam, 3)
        assert res.holds
        assert res.coarse.slack >= 0.0
        for entry in res.per_level:
            assert entry.opnorm_lower_estimate <= entry.opnorm_upper + 1e-12

    def test_decomposition_interpolating_filters_are_unit(self, rng):
        fam = NS4Point(2 * math.pi / 12)
        data = rng.normal(size=48)
        noisy = data + rng.uniform(-1e-4, 1e-4, size=48)
        res = check_decomposition_stability(data, noisy, fam, 2)
        assert res.holds
        p = analyze(data, fam, 2, boundary="periodic")
        assert all(norm_l1(lp.filt.zeta) == 1.0 for lp in p.level_params)
        # with unit filters the coarse bound is exactly the input distance
        assert res.coarse.rhs == pytest.approx(
            np.abs(noisy - data).max(), rel=1e-12)

    def test_opnorm_estimate_cached_and_positive(self):
        fam = cubic_bspline_family()
        mask = fam.mask_at_level(0)
        filt = solve_gamma(mask, 1e-15)
        first = residual_operator_norm_estimate(mask, filt)
        second = residual_operator_norm_estimate(mask, filt)
        assert first == second > 0.0

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("name, family", family_grid())
    def test_opnorm_estimate_matches_per_trial_loop(self, name, family,
                                                    level):
        # the block of trials draws the loop's signs in the loop's order;
        # a wide block may take the kernel's GEMM strategy, which sums
        # in another order, but an interpolating filter only subsamples
        mask = family.mask_at_level(level - 1)
        filt = solve_gamma(mask)
        got = residual_operator_norm_estimate(mask, filt)
        want = oracles.residual_operator_norm_loop(mask, filt)
        if name == "ns4pt":
            assert got == want
        assert abs(got - want) <= 4 * np.finfo(float).eps * want

    @pytest.mark.parametrize("name, family", family_grid())
    def test_opnorm_estimate_analyzes_one_block(self, name, family,
                                                monkeypatch):
        calls = []

        def spy(mask, filt, block):
            calls.append(block.shape)
            return step(mask, filt, block)

        step = pyramid._analysis_step
        monkeypatch.setattr(pyramid, "_analysis_step", spy)
        mask = family.mask_at_level(1)
        residual_operator_norm_estimate(mask, solve_gamma(mask))
        assert len(calls) == 1 and calls[0][1] == 200


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

    @pytest.mark.parametrize("clone", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy])
    @pytest.mark.parametrize("boundary", ["periodic", "finite"])
    def test_pickle_and_deepcopy(self, rng, boundary, clone):
        p = analyze(rng.normal(size=(64, 2)), Conic(math.cos(2 * math.pi / 8)),
                    3, boundary=boundary)
        q = clone(p)
        assert q.to_json() == p.to_json()
        assert synthesize_array(q).tobytes() == synthesize_array(p).tobytes()
        assert all(not b.flags.writeable for b in (q.coarse,) + q.details)
        assert q.level_params == p.level_params == clone(p.level_params)
        assert hash(clone(p.level_params)) == hash(p.level_params)

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
        # list-form blocks, written with indent=1 by an early
        # demos/03_pyramid_roundtrip.py
        path = Path(__file__).parent / "data" / "wavy_pyramid_lists.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(doc["coarse"], list)
        p = Pyramid.from_json_dict(doc)
        curve = perturb_wavy(sample_circle(256), amplitude=0.02, frequency=9)
        assert np.abs(synthesize_array(p) - curve.points).max() <= 1e-12
        binary = json.loads(p.to_json())
        assert isinstance(binary["coarse"], dict)
        assert_same_pyramid(Pyramid.from_json_dict(binary), p)
        for key in ("family", "epsilon", "boundary", "level_params"):
            assert binary[key] == doc[key]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(family_grid()), st.integers(1, 4),
           st.integers(1, 3), st.sampled_from(["periodic", "finite"]),
           st.integers(-9, 9), st.sampled_from([1e-300, 1.0, 1e250]),
           st.integers(0, 2 ** 32 - 1))
    def test_binary_and_list_documents_round_trip(
            self, named, levels, ncomp, boundary, offset, scale, seed):
        _, family = named
        rng = np.random.default_rng(seed)
        if boundary == "periodic":
            data = rng.normal(size=(2 ** levels * rng.integers(8, 17), ncomp))
        else:
            data = rng.normal(size=(rng.integers(1, 70), ncomp))
        data *= scale
        if boundary == "finite" and ncomp == 1:
            data = FinSeq(data[:, 0], offset)
        p = analyze(data, family, levels, boundary=boundary)
        text = p.to_json()
        doc = json.loads(text)
        assert all(isinstance(b, dict)
                   for b in [doc["coarse"]] + doc["details"])
        assert_same_pyramid(Pyramid.from_json(text), p)
        assert_same_pyramid(Pyramid.from_json_dict(list_form_document(p)), p)

    def test_deserialized_synthesis_matches_input(self, rng):
        data = rng.normal(size=64)
        fam = NSCubic(math.cos(2 * math.pi / 16))
        p = analyze(data, fam, 3, boundary="periodic")
        q = Pyramid.from_json(p.to_json())
        assert np.abs(synthesize_array(q) - data).max() <= 1e-12


class TestPyramidValidation:
    def test_ragged_detail_rejected(self, rng):
        p = analyze(rng.normal(size=(64, 2)), cubic_bspline_family(), 3)
        doc = list_form_document(p)
        doc["details"][1][5] = [0.0]
        with pytest.raises(ShapeMismatchError, match="rectangular"):
            Pyramid.from_json_dict(doc)

    @pytest.mark.parametrize("bad", [{"x": 1.0}, "x", [1.0, [2.0]]])
    def test_non_numeric_coefficients_rejected(self, rng, bad):
        doc = list_form_document(analyze(rng.normal(size=(64, 2)),
                                         cubic_bspline_family(), 3))
        doc["details"][0][4] = bad
        with pytest.raises(ShapeMismatchError, match="blocks of numbers"):
            Pyramid.from_json_dict(doc)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["coarse", "details"])
    def test_non_finite_coefficients_rejected(self, rng, field, bad):
        p = analyze(rng.normal(size=64), cubic_bspline_family(), 3)
        doc = list_form_document(p)
        block = doc["coarse"] if field == "coarse" else doc["details"][2]
        block[3] = bad
        with pytest.raises(DomainError, match="finite"):
            Pyramid.from_json_dict(doc)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["coarse", "details"])
    def test_non_finite_binary_coefficients_rejected(self, rng, field, bad):
        p = analyze(rng.normal(size=(64, 2)), cubic_bspline_family(), 3)
        block = np.array(p.coarse if field == "coarse" else p.details[2])
        block[3, 1] = bad
        doc = json.loads(p.to_json())
        if field == "coarse":
            doc["coarse"] = pyramid._encode_block(block)
        else:
            doc["details"][2] = pyramid._encode_block(block)
        with pytest.raises(DomainError, match="finite"):
            Pyramid.from_json_dict(doc)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda b: b.update(float64le=b["float64le"][:-1]), "not base64"),
        (lambda b: b.update(float64le=b["float64le"][:4] + "\n!!!"
                            + b["float64le"][4:]), "not base64"),
        (lambda b: b.update(float64le="\u00e9" + b["float64le"][1:]),
         "not base64"),
        (lambda b: b.update(float64le=b["float64le"][:-12]), "bytes"),
        (lambda b: b.update(float64le=base64.b64encode(
            base64.b64decode(b["float64le"]) + bytes(8)).decode()),
         "bytes"),
        (lambda b: b.update(shape=[b["shape"][0] + 1, 2]), "bytes"),
        (lambda b: b.update(shape=b["shape"][:1]), "two non-negative"),
        (lambda b: b.update(shape=b["shape"] + [1]), "two non-negative"),
        (lambda b: b.update(shape=[-b["shape"][0], -2]), "two non-negative"),
        (lambda b: b.update(shape=[16.0, 2]), "'shape'"),
        (lambda b: b.update(shape=[True, 2]), "'shape'"),
        (lambda b: b.update(shape="16x2"), "'shape'"),
        (lambda b: b.update(float64le=[0.0]), "'float64le'"),
        (lambda b: b.pop("shape"), "'shape'"),
        (lambda b: b.pop("float64le"), "'float64le'"),
        (lambda b: b.update(order="F"), r"unknown fields \['order'\]"),
    ], ids=["truncated-base64", "bad-character", "non-ascii", "short",
            "long", "shape-too-large", "shape-one-number", "shape-three",
            "shape-negative", "shape-float", "shape-bool", "shape-string",
            "payload-list", "no-shape", "no-payload", "extra-key"])
    @pytest.mark.parametrize("field", ["coarse", "details[2]"])
    def test_malformed_binary_block_names_the_field(self, rng, field,
                                                    corrupt, message):
        doc = json.loads(analyze(rng.normal(size=(64, 2)),
                                 cubic_bspline_family(), 3).to_json())
        corrupt(doc["coarse"] if field == "coarse" else doc["details"][2])
        with pytest.raises(ShapeMismatchError, match=message) as info:
            Pyramid.from_json_dict(doc)
        assert str(info.value).startswith(field)

    def test_level_params_run_from_level_one(self, rng):
        p = analyze(rng.normal(size=64), cubic_bspline_family(), 3)
        with pytest.raises(ShapeMismatchError, match="detail levels"):
            Pyramid(p.coarse, p.details, p.family, p.epsilon, p.boundary,
                    p.level_params[::-1])

    def test_level_is_read_from_the_mask(self, rng):
        p = analyze(rng.normal(size=64), cubic_bspline_family(), 2)
        first, second = p.level_params
        wrong = LevelParams(Mask(second.mask.taps, 5, second.mask.family_id),
                            second.filt)
        assert wrong.level == 6
        with pytest.raises(ShapeMismatchError,
                           match=r"level_params for levels \[1, 6\]"):
            Pyramid(p.coarse, p.details, p.family, p.epsilon, p.boundary,
                    [first, wrong])

    def test_pyramid_is_immutable(self, rng):
        p = analyze(rng.normal(size=(16, 2)), cubic_bspline_family(), 1)
        coarse = p.coarse
        with pytest.raises(AttributeError, match="Pyramid is immutable"):
            p.coarse = np.full((8, 2), np.nan)
        with pytest.raises(AttributeError, match="Pyramid is immutable"):
            p.extra = 1
        assert p.coarse is coarse

    def test_level_epsilon_is_the_pyramids(self):
        curve = sample_circle(64)
        p = analyze(curve.points, conic_family_for(64, 2), 2)
        with pytest.raises(ShapeMismatchError,
                           match=r"^level_params\[0\] epsilon is 1e-15, "
                                 r"but the pyramid's is 1e-06$"):
            Pyramid(p.coarse, p.details, p.family, 1e-6, p.boundary,
                    p.level_params)
        # an edited document: the filters were solved at 1e-15
        doc = json.loads(p.to_json())
        doc["epsilon"] = 1e-6
        with pytest.raises(ShapeMismatchError,
                           match=r"^level_params\[0\] epsilon"):
            Pyramid.from_json_dict(doc)
        doc["epsilon"] = 1e-15
        doc["level_params"][1]["epsilon"] = 1e-6
        with pytest.raises(ShapeMismatchError,
                           match=r"^level_params\[1\] epsilon is 1e-06"):
            Pyramid.from_json_dict(doc)

    def test_periodic_offsets_are_zero(self, rng):
        p = analyze(rng.normal(size=(64, 2)), cubic_bspline_family(), 2)
        with pytest.raises(ShapeMismatchError,
                           match=r"^periodic pyramid offsets must be 0, "
                                 r"got \(7, 3, 1\)$"):
            Pyramid(p.coarse, p.details, p.family, p.epsilon, "periodic",
                    p.level_params, offsets=(7, 3, 1))
        q = Pyramid(p.coarse, p.details, p.family, p.epsilon, "periodic",
                    p.level_params, offsets=(0, 0, 0))
        assert q.offsets == (0, 0, 0)

    def test_one_offset_per_block(self, rng):
        p = analyze(rng.normal(size=40), cubic_bspline_family(), 2,
                    boundary="finite")
        with pytest.raises(ShapeMismatchError, match="offsets"):
            Pyramid(p.coarse, p.details, p.family, p.epsilon, p.boundary,
                    p.level_params, p.offsets[:-1])

    def test_component_counts_agree(self, rng):
        p = analyze(rng.normal(size=(64, 2)), cubic_bspline_family(), 2)
        with pytest.raises(ShapeMismatchError, match="components"):
            Pyramid(p.coarse, [p.details[0], p.details[1][:, :1]],
                    p.family, p.epsilon, p.boundary, p.level_params)

    def test_blocks_are_read_only_copies(self, rng):
        p = analyze(rng.normal(size=(64, 2)), cubic_bspline_family(), 2)
        coarse = np.array(p.coarse)
        q = Pyramid(coarse, p.details, p.family, p.epsilon, p.boundary,
                    p.level_params)
        coarse[0, 0] += 1.0
        assert q.coarse[0, 0] == p.coarse[0, 0]
        with pytest.raises(ValueError):
            q.details[0][0, 0] = 1.0

    def test_analyzed_periodic_blocks_are_kept(self, rng, monkeypatch):
        built, step = [], pyramid._analysis_step
        monkeypatch.setattr(
            pyramid, "_analysis_step",
            lambda *args: built.append(step(*args)) or built[-1])
        p = analyze(rng.normal(size=(64, 2)), cubic_bspline_family(), 2)
        assert p.coarse is built[-1][0]
        assert all(d is b[1] for d, b in zip(p.details[::-1], built))

    @pytest.mark.parametrize("boundary", ["periodic", "finite"])
    def test_another_pyramids_blocks_are_copied(self, rng, boundary):
        # a pyramid's blocks are owned, read-only, column-major arrays;
        # another pyramid built from them, or a copy, gets its own
        p = analyze(rng.normal(size=(64, 2)), cubic_bspline_family(), 2,
                    boundary=boundary)
        built = Pyramid(p.coarse, p.details, p.family, p.epsilon,
                        p.boundary, p.level_params, p.offsets, p.support)
        for q in (built, copy.copy(p)):
            for mine, theirs in zip((q.coarse,) + q.details,
                                    (p.coarse,) + p.details):
                assert mine is not theirs
                assert mine.flags.owndata and mine.flags.f_contiguous
                assert not mine.flags.writeable
                assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("boundary", ["periodic", "finite"])
    def test_overflowing_analysis_rejected(self, boundary):
        # finite input whose details overflow to infinity
        with pytest.raises(DomainError, match="pyramid coefficients"):
            analyze(np.tile([1.7e308, -1.7e308], 32), Conic(0.9), 2,
                    boundary=boundary)

    def test_overflowing_synthesis_rejected(self, rng):
        # finite blocks whose synthesis overflows to infinity: neither the
        # components nor the array come back with non-finite values
        p = analyze(rng.normal(size=(40, 2)), cubic_bspline_family(), 2,
                    boundary="finite")
        huge = Pyramid(np.full(p.coarse.shape, 1.7e308),
                       [np.full(d.shape, 1.7e308) for d in p.details],
                       p.family, p.epsilon, p.boundary, p.level_params,
                       p.offsets, p.support)
        for entry in (synthesize, synthesize_array):
            with pytest.raises(DomainError, match="values must be finite"):
                entry(huge)

    def test_finite_components_as_the_constructor_builds_them(self, rng):
        # zero ends and values below the flush threshold, which synthesis
        # can leave, are trimmed and flushed as FinSeq(...) does
        p = analyze(rng.normal(size=(50, 2)), NSCubic(0.8), 3,
                    boundary="finite")
        block = np.array(synthesize_array(p), order="F")
        block[:3, 0] = 0.0
        block[10, 1] = 1e-310
        got = pyramid._components(block, -7, periodic=False)
        for col, seq in zip(block.T, got):
            want = FinSeq(col, -7)
            assert seq.offset == want.offset
            assert seq.coeffs.tobytes() == want.coeffs.tobytes()
            assert not seq.coeffs.flags.writeable
        assert got[0].offset == -4 and got[1][3] == 0.0

    @pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["coarse", "details"])
    def test_finiteness_of_blocks_whose_sum_overflows(self, rng, field, bad):
        # a finite block may sum to infinity: such a block is scanned, and
        # accepted, by every way a pyramid is built; one value that is not
        # finite is still rejected
        p = analyze(rng.normal(size=(64, 2)), cubic_bspline_family(), 3)
        blocks = [np.array(p.coarse)] + [np.array(d) for d in p.details]
        at = 0 if field == "coarse" else 3
        blocks[at][:2, 1] = 1e308
        with np.errstate(over="ignore"):
            assert blocks[at].sum() == np.inf
        if bad is not None:
            blocks[at][5, 0] = bad
        doc = json.loads(p.to_json())
        doc["coarse"] = pyramid._encode_block(blocks[0])
        doc["details"] = [pyramid._encode_block(b) for b in blocks[1:]]
        builds = [
            lambda: Pyramid(blocks[0], blocks[1:], p.family, p.epsilon,
                            p.boundary, p.level_params),
            lambda: Pyramid.from_json_dict(doc),
        ]
        for build in builds:
            if bad is not None:
                with pytest.raises(DomainError, match="pyramid coefficients"):
                    build()
                continue
            q = build()
            kept = q.coarse if field == "coarse" else q.details[2]
            assert kept.tobytes() == blocks[at].tobytes()
            again = pickle.loads(pickle.dumps(q))
            assert again.details[2].tobytes() == q.details[2].tobytes()

    @pytest.mark.parametrize("corrupt, field", [
        (lambda d: d.pop("family"), "'family'"),
        (lambda d: d.update(family={"kind": "conic"}), "'v_init'"),
        (lambda d: d.update(family=["conic"]), "'family'"),
        (lambda d: d.update(epsilon="x"), "'epsilon'"),
        (lambda d: d.update(boundary=None), "'boundary'"),
        (lambda d: d.update(details=5), "'details'"),
        (lambda d: d["level_params"][1].pop("zeta_taps"), "'zeta_taps'"),
        (lambda d: d["level_params"][0].update(level=1.0), "'level'"),
        (lambda d: d["level_params"][0].update(decay_C="big"), "'decay_C'"),
        (lambda d: d["level_params"][0].update(mask_taps=[1.0, None]),
         "'mask_taps'"),
        (lambda d: d["level_params"].append(3), r"level_params\[2\]"),
    ], ids=["no-family", "family-without-tension", "family-not-object",
            "epsilon-string", "boundary-null", "details-number",
            "no-zeta-taps", "level-float", "decay-string", "tap-null",
            "entry-number"])
    def test_malformed_document_names_the_field(self, rng, corrupt, field):
        doc = json.loads(analyze(rng.normal(size=40), cubic_bspline_family(),
                                 2, boundary="finite").to_json())
        corrupt(doc)
        with pytest.raises(ShapeMismatchError, match=field):
            Pyramid.from_json_dict(doc)

    @pytest.mark.parametrize("tamper, message", [
        (lambda e: e["mask_taps"].__setitem__(4, e["mask_taps"][4] + 1e-9),
         "mask taps differ"),
        (lambda e: e.update(mask_taps=e["mask_taps"] + [1e-3]),
         "mask taps differ"),
        (lambda e: e.update(mask_offset=e["mask_offset"] - 2),
         "mask taps differ"),
        (lambda e: e.update(residual_l1=e["residual_l1"] + 1e-9),
         "residual_l1 is"),
        (lambda e: e["zeta_taps"].__setitem__(0, e["zeta_taps"][0] + 1e-9),
         "residual_l1 is"),
        (lambda e: e.update(zeta_offset=e["zeta_offset"] + 1),
         "residual_l1 is"),
        (lambda e: e.update(zeta_taps=[]), "zeta taps are empty"),
        (lambda e: e.update(zeta_taps=[0.0] * len(e["zeta_taps"])),
         "zeta taps are empty"),
    ], ids=["mask-tap", "mask-extra-tap", "mask-offset", "residual",
            "zeta-tap", "zeta-offset", "zeta-empty", "zeta-zeros"])
    def test_tampered_operators_name_the_entry(self, rng, tamper, message):
        doc = json.loads(analyze(rng.normal(size=(64, 2)), Conic(0.9),
                                 3).to_json())
        # entries in reverse level order: the error names the list index
        doc["level_params"].reverse()
        tamper(doc["level_params"][1])
        with pytest.raises(ShapeMismatchError, match=message) as info:
            Pyramid.from_json_dict(doc)
        assert str(info.value).startswith("level_params[1] ")

    def test_masks_of_another_level_rejected(self, rng):
        # each level of a nonstationary family has its own mask
        doc = json.loads(analyze(rng.normal(size=(64, 2)), Conic(0.9),
                                 3).to_json())
        first, second = doc["level_params"][:2]
        first["mask_taps"], second["mask_taps"] = (second["mask_taps"],
                                                   first["mask_taps"])
        with pytest.raises(ShapeMismatchError,
                           match=r"level_params\[0\] mask taps differ "
                                 r"from the family's level 0 mask"):
            Pyramid.from_json_dict(doc)

    def test_document_must_be_an_object(self):
        with pytest.raises(ShapeMismatchError, match="JSON object"):
            Pyramid.from_json_dict([1, 2])

    def test_optional_fields_may_be_left_out(self, rng):
        p = analyze(rng.normal(size=(64, 2)), cubic_bspline_family(), 3)
        doc = json.loads(p.to_json())
        for entry in doc["level_params"]:
            entry.pop("coarse_offset", None)
            del entry["mask_family"]
        q = Pyramid.from_json_dict(doc)
        assert synthesize_array(q).tobytes() == synthesize_array(p).tobytes()
        doc = json.loads(analyze(rng.normal(size=40), cubic_bspline_family(),
                                 2, boundary="finite").to_json())
        del doc["support"], doc["level_params"][0]["coarse_offset"]
        q = Pyramid.from_json_dict(doc)
        assert q.support is None and q.offsets[0] == 0


def union_block(comps):
    """FinSeq components on the union of their supports: (array, offset)."""
    nonempty = [c for c in comps if not c.is_empty]
    if not nonempty:
        return np.zeros((0, len(comps))), 0
    lo = min(c.offset for c in nonempty)
    hi = max(c.offset + len(c) for c in nonempty)
    arr = np.zeros((hi - lo, len(comps)))
    for d, c in enumerate(comps):
        arr[c.offset - lo: c.offset - lo + len(c), d] = c.coeffs
    return arr, lo


def reference_blocks(columns, family, levels):
    """Finite analysis one component at a time with the oracle algebra.

    Runs decimate -> refine -> subtract on each :class:`FinSeq` column and
    returns the coarse level and the detail levels 1..J as union blocks.
    """
    current = list(columns)
    details = []
    for level in range(levels, 0, -1):
        mask = family.mask_at_level(level - 1)
        filt = solve_gamma(mask, 1e-15)
        coarse = [decimate(filt, c) for c in current]
        details.append([subtract(c, refine(mask, q))
                        for c, q in zip(current, coarse)])
        current = coarse
    return [union_block(comps) for comps in [current] + details[::-1]]


def shifted_stationary(taps: FinSeq, offset: int):
    return Stationary(FinSeq(taps.coeffs, offset), name=f"shift{offset}")


# Off-centre masks: the cubic B-spline from index 4 (its filter is
# one-sided) and the four-point mask from index -7 (copy tap at -4).  Each
# is shifted by an even amount; an odd shift swaps the mask's parities and
# leaves an even part that vanishes at z = -1.
FINITE_FAMILIES = family_grid() + [
    ("cubic_at_4", shifted_stationary(cubic_bspline_mask(), 4)),
    ("fourpoint_at_-7", shifted_stationary(
        NS4Point(0.0).mask_at_level(0).taps, -7)),
]


class TestFiniteBlocks:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(FINITE_FAMILIES), st.integers(0, 70),
           st.integers(-9, 9), st.integers(1, 4), st.integers(1, 2),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_per_component_reference(self, named, length, offset,
                                             levels, ncomp, seed):
        _, family = named
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(length, ncomp))
        if ncomp == 2:
            # give the columns different supports
            data[:rng.integers(0, length + 1), 0] = 0.0
            data[rng.integers(0, length + 1):, 1] = 0.0
            columns = [FinSeq(col, 0) for col in data.T]
            p = analyze(data, family, levels, boundary="finite")
        else:
            columns = [FinSeq(data[:, 0], offset)]
            p = analyze(columns[0], family, levels, boundary="finite")

        blocks = (p.coarse,) + p.details
        for block, block_offset, (ref, ref_offset) in zip(
                blocks, p.offsets, reference_blocks(columns, family, levels)):
            assert block_offset == ref_offset
            assert block.shape == ref.shape
            scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
            assert np.abs(block - ref).max(initial=0.0) <= 1e-12 * scale

        scale = 1.0 + float(np.abs(data).max(initial=0.0))
        for col, out in zip(columns, synthesize(p)):
            for i in set(col.indices()) | set(out.indices()):
                assert abs(out[i] - col[i]) <= 1e-12 * scale

        if family.interpolating:
            for level in range(1, levels + 1):
                d = p.details[level - 1]
                assert np.all(d[p.offsets[level] % 2::2] == 0.0)


class TestFiniteSupport:
    """Finite synthesis comes back on the analyzed input's index range."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(family_grid()), st.integers(1, 4),
           st.integers(-9, 9), st.integers(1, 90),
           st.integers(0, 2 ** 32 - 1))
    def test_output_support_is_the_inputs(self, named, levels, offset,
                                          length, seed):
        _, family = named
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1.0, 1.0, size=length)
        coeffs[[0, -1]] = rng.choice((-1.0, 1.0), size=2) * rng.uniform(
            0.25, 1.0, size=2)
        seq = FinSeq(coeffs, offset)
        p = analyze(seq, family, levels, boundary="finite")
        assert p.support == (offset, offset + length)
        out = synthesize(p)[0]
        assert out.support == seq.support
        assert np.abs(out.coeffs - seq.coeffs).max() <= 1e-12
        arr = synthesize_array(p)
        assert arr.shape == (length,)
        assert np.abs(arr - coeffs).max() <= 1e-12

    def test_sixty_samples_come_back_on_their_range(self, rng):
        data = rng.normal(size=(60, 2))
        p = analyze(data, Conic(math.cos(2 * math.pi / 16)), 4,
                    boundary="finite")
        assert synthesize_array(p).shape == (60, 2)
        for comp in synthesize(p):
            assert comp.support == (0, 59)
        # without the support the widened frame's residues come back
        block, offset = pyramid._synthesize_block(p)
        assert offset < 0 and offset + block.shape[0] > 60

    def test_support_is_serialized_for_finite_documents_only(self, rng):
        fam = NSCubic(math.cos(2 * math.pi / 16))
        data = rng.normal(size=64)
        periodic = json.loads(analyze(data, fam, 3).to_json())
        assert "support" not in periodic
        p = analyze(FinSeq(data, -5), fam, 3, boundary="finite")
        doc = json.loads(p.to_json())
        assert doc["support"] == [-5, 59]
        q = Pyramid.from_json_dict(doc)
        assert q.support == (-5, 59)
        assert synthesize_array(q).tobytes() == synthesize_array(p).tobytes()

    def test_document_without_support_comes_back_untrimmed(self, rng):
        p = analyze(rng.normal(size=60), cubic_bspline_family(), 3,
                    boundary="finite")
        doc = json.loads(p.to_json())
        del doc["support"]
        q = Pyramid.from_json_dict(doc)
        assert q.support is None
        block, offset = pyramid._synthesize_block(p)
        assert synthesize(q)[0] == FinSeq(block[:, 0], offset)
        assert synthesize_array(q).tobytes() == block[:, 0].tobytes()

    @pytest.mark.parametrize("support", [
        [3], [1, 2, 3], [0.5, 4], "ab", 7, [5, 4]])
    def test_malformed_support_rejected(self, rng, support):
        p = analyze(rng.normal(size=40), cubic_bspline_family(), 2,
                    boundary="finite")
        doc = json.loads(p.to_json())
        doc["support"] = support
        with pytest.raises(ShapeMismatchError, match="support"):
            Pyramid.from_json_dict(doc)

    def test_periodic_document_with_support_rejected(self, rng):
        doc = json.loads(analyze(rng.normal(size=32),
                                 cubic_bspline_family(), 2).to_json())
        doc["support"] = [0, 32]
        with pytest.raises(ShapeMismatchError, match="support"):
            Pyramid.from_json_dict(doc)


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


def layouts(data):
    """The same values row-major, column-major and with strided rows."""
    return [np.ascontiguousarray(data), np.asfortranarray(data),
            np.repeat(data, 2, axis=0)[::2]]


class TestBlockLayout:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(family_grid()),
           st.sampled_from(["periodic", "finite"]), st.integers(1, 3),
           st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_input_layout_does_not_change_the_pyramid(
            self, named, boundary, levels, ncomp, seed):
        _, family = named
        rng = np.random.default_rng(seed)
        n = 16 * 2 ** levels if boundary == "periodic" else rng.integers(70)
        data = rng.normal(size=(n, ncomp))
        pyramids = [analyze(x, family, levels, boundary=boundary)
                    for x in layouts(data)]
        doc = pyramids[0].to_json()
        out = synthesize_array(pyramids[0])
        for p in pyramids + [Pyramid.from_json(doc)]:
            assert p.to_json() == doc
            assert synthesize_array(p).tobytes() == out.tobytes()
            # each component of every stored block is one contiguous column
            for block in (p.coarse,) + p.details:
                assert block.flags.f_contiguous
            if family.interpolating:
                for level in range(1, levels + 1):
                    d = p.details[level - 1]
                    assert np.all(d[p.offsets[level] % 2::2] == 0.0)

    def test_row_norms_do_not_depend_on_layout(self, rng):
        # nine columns: numpy sums a contiguous row of 8 or more pairwise,
        # a strided one in order
        block = rng.normal(size=(50, 9))
        want = _row_norms(block)
        np.testing.assert_array_equal(want, np.sqrt((block ** 2).sum(axis=1)))
        got = _row_norms(np.asfortranarray(block))
        assert got.tobytes() == want.tobytes()


class TestLevelCache:
    @pytest.fixture(autouse=True)
    def empty_level_cache(self):
        pyramid._level_params.cache_clear()

    def test_equal_families_share_level_params(self, rng):
        x = rng.normal(size=(64, 2))
        built = [conic_family_for(64, 3), conic_family_for(64, 3),
                 family_from_description(conic_family_for(64, 3).describe())]
        first, *others = [analyze(x, fam, 3).level_params for fam in built]
        for params in others:
            assert all(a is b for a, b in zip(first, params))
        info = pyramid._level_params.cache_info()
        assert (info.currsize, info.misses, info.hits) == (3, 3, 6)

    def test_stationary_families_apart_by_name(self, rng):
        x = rng.normal(size=64)
        named = analyze(x, cubic_bspline_family(), 2).level_params
        plain = analyze(x, Stationary(cubic_bspline_mask()), 2).level_params
        for a, b in zip(named, plain):
            assert a is not b
            assert (a.mask.family_id, b.mask.family_id) == (
                "cubic_bspline", "stationary")
        assert pyramid._level_params.cache_info().currsize == 4

    def test_family_without_description_analyzes(self, rng):
        class Undescribed(SchemeFamily):
            family_id = "undescribed"

            def mask_at_level(self, k):
                return Conic(0.9).mask_at_level(k)

        x = rng.normal(size=(64, 2))
        family = Undescribed()
        p, q = (analyze(x, family, 3) for _ in range(2))
        assert all(a is b for a, b in zip(p.level_params, q.level_params))
        # compared by identity: a second instance has levels of its own
        r = analyze(x, Undescribed(), 3)
        assert p.level_params[0] is not r.level_params[0]
        assert p.level_params == r.level_params
        assert pyramid._level_params.cache_info().currsize == 6
        assert np.abs(synthesize_array(p) - x).max() <= 1e-12
        # it cannot be saved, and says why with a typed error
        with pytest.raises(BadParamsError, match="Undescribed"):
            p.to_json()

    def test_family_must_give_masks_of_their_level(self, rng):
        class LevelZero(SchemeFamily):
            family_id = "level_zero"

            def mask_at_level(self, k):
                return Mask(cubic_bspline_mask())

        x = rng.normal(size=64)
        assert analyze(x, LevelZero(), 1).level_params[0].level == 1
        with pytest.raises(BadParamsError,
                           match="^family 'level_zero' gave a level 0 mask "
                                 "for level 1$"):
            analyze(x, LevelZero(), 2)

    def test_cache_stays_at_cap_over_a_tension_search(self, rng):
        cap = pyramid._level_params.cache_info().maxsize
        assert cap == 2048
        x = rng.normal(size=16)
        thetas = [0.2 + 1e-4 * k for k in range(cap + 10)]
        for theta in thetas:
            analyze(x, NS4Point(theta), 1)
        info = pyramid._level_params.cache_info()
        assert (info.currsize, info.misses) == (cap, cap + 10)
        # the latest cap tensions are cached, least recently used first
        for theta in thetas[10:]:
            pyramid._level_params(NS4Point(theta), 1, 1e-15)
        assert pyramid._level_params.cache_info().hits == cap
        pyramid._level_params(NS4Point(thetas[0]), 1, 1e-15)
        assert pyramid._level_params.cache_info().misses == cap + 11

    @pytest.mark.parametrize("boundary", ["periodic", "finite"])
    @pytest.mark.parametrize("name, family", family_grid())
    def test_cold_and_warm_analyses_agree(self, rng, name, family, boundary):
        x = rng.normal(size=(128, 2))
        cold = analyze(x, family, 3, boundary=boundary).to_json()
        assert analyze(x, family, 3, boundary=boundary).to_json() == cold
        info = pyramid._level_params.cache_info()
        assert (info.currsize, info.misses, info.hits) == (3, 3, 3)

    def test_anomaly_flags_reuse_the_finest_level(self, monkeypatch):
        curve = perturb_wavy(sample_circle(128), 0.01, 7)
        circularity_report(curve, 3)
        monkeypatch.setattr(Conic, "mask_at_level", None)
        flags, _ = anomaly_flags(curve, 3)
        assert flags.size == 128


FOUR_POINT = Stationary(FinSeq([-1 / 16, 0, 9 / 16, 1, 9 / 16, 0, -1 / 16], -3),
                        "four_point")


def split_chains(monkeypatch, min_rows=64, cpus=(0, 1)):
    """Lower the column-split threshold to ``min_rows``; pin the CPU set.

    Returns the helper threads the pyramid starts from then on.
    """
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(pyramid, "_SPLIT_MIN_ROWS", min_rows)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                        raising=False)
    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def outputs(data, family, levels):
    """The bytes of a periodic pyramid's JSON and of both syntheses."""
    p = analyze(data, family, levels)
    return (p.to_json(), synthesize_array(p).tobytes(),
            [c.values.tobytes() for c in synthesize(p)])


class TestColumnGroups:
    """Large periodic blocks run their level chains in two column groups."""

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(2, 5), rows=st.sampled_from([128, 4096, 2 ** 15]),
           family=st.sampled_from([f for _, f in family_grid()]
                                  + [FOUR_POINT]),
           levels=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_two_groups_give_the_bytes_of_one(self, width, rows, family,
                                              levels, seed):
        # 128 rows take the loop strategy, 4096 the GEMM one at the finest
        # decimation and 2^15 the seam split at the finest refinement
        data = np.random.default_rng(seed).normal(size=(rows, width))
        with pytest.MonkeyPatch.context() as mp:
            started = split_chains(mp, min_rows=math.inf)
            one = outputs(data, family, levels)
            assert started == []
            mp.setattr(pyramid, "_SPLIT_MIN_ROWS", 64)
            two = outputs(data, family, levels)
            assert len(started) == 3
        assert two == one

    @pytest.mark.parametrize("rows, gemm, seam", [
        (128, False, False), (4096, True, False), (2 ** 15, True, True)])
    def test_groups_take_the_whole_blocks_strategy(
            self, rng, monkeypatch, gemm_calls, seam_calls, rows, gemm, seam):
        # at 4096 x 2 the decimation reads 2048 x 2 = 4096 entries, the
        # GEMM crossover, though each group reads only 2048 of them; at
        # 2^15 rows each group refines its 2^14-row column by seam split
        # too, and at 128 rows everything runs through the loop
        split_chains(monkeypatch)
        fam = Conic(math.cos(2 * math.pi / 16))
        analyze(rng.normal(size=(rows, 2)), fam, 1)
        zeta = len(pyramid._level_params(fam, 1, 1e-15).filt.zeta)
        assert gemm_calls == ([zeta, zeta] if gemm else [])
        assert seam_calls == ([rows // 2] * 4 if seam else [])

    @pytest.mark.parametrize("width", [2, 3, 5])
    def test_groups_split_the_columns(self, rng, monkeypatch, width):
        # the caller computes the first ceil(D/2) columns, one helper the
        # rest, in analysis and in synthesis: each refines once per level
        split_chains(monkeypatch)
        seen, refine_block = [], pyramid._refine_block

        def spy(mask, values, out, whole):
            assert whole == width and out.base.shape[1] == width
            seen.append((out.shape[1], threading.current_thread()
                         is threading.main_thread()))
            return refine_block(mask, values, out, whole)

        monkeypatch.setattr(pyramid, "_refine_block", spy)
        synthesize_array(analyze(rng.normal(size=(128, width)),
                                 cubic_bspline_family(), 2))
        half = (width + 1) // 2
        assert sorted(seen) == sorted([(half, True),
                                       (width - half, False)] * 4)

    def test_real_threshold(self, rng, monkeypatch):
        # 2^17 finest rows split, in the analysis and both syntheses;
        # fewer rows, or one column, do not
        started = split_chains(monkeypatch, min_rows=2 ** 17)
        fam = NSCubic(math.cos(2 * math.pi / 16))
        for shape, threads in [((2 ** 17, 2), 3), ((2 ** 17 - 16, 2), 0),
                               ((2 ** 17, 1), 0)]:
            data = rng.normal(size=shape)
            del started[:]
            split = outputs(data, fam, 4)
            assert len(started) == threads
            monkeypatch.setattr(pyramid, "_SPLIT_MIN_ROWS", math.inf)
            assert outputs(data, fam, 4) == split
            monkeypatch.setattr(pyramid, "_SPLIT_MIN_ROWS", 2 ** 17)

    def test_one_cpu_starts_no_helper(self, rng, monkeypatch):
        data = rng.normal(size=(256, 3))
        one = outputs(data, NS4Point(2 * math.pi / 16), 3)
        started = split_chains(monkeypatch, cpus=[0])
        assert outputs(data, NS4Point(2 * math.pi / 16), 3) == one
        assert started == []

    def test_no_thread_outlives_a_call(self, rng, monkeypatch):
        started = split_chains(monkeypatch)
        before = threading.active_count()
        p = analyze(rng.normal(size=(128, 2)), Conic(0.9), 3)
        assert threading.active_count() == before
        synthesize(p)
        assert threading.active_count() == before
        synthesize_array(p)
        assert threading.active_count() == before
        assert len(started) == 3
        assert not any(thread.is_alive() for thread in started)

    def test_overflow_in_the_helpers_group_is_a_domain_error(self, rng,
                                                            monkeypatch):
        # column 1 is the helper's; the caller's np.errstate holds there,
        # so the overflow is the finiteness check's DomainError, not a
        # RuntimeWarning raised as an error
        started = split_chains(monkeypatch)
        data = rng.normal(size=(128, 2))
        data[:, 1] = np.tile([1.7e308, -1.7e308], 64)
        with pytest.raises(DomainError, match="pyramid coefficients"):
            analyze(data, Conic(0.9), 2)
        p = analyze(rng.normal(size=(128, 2)), cubic_bspline_family(), 2)
        blocks = [np.array(b) for b in (p.coarse,) + p.details]
        for block in blocks:
            block[:, 1] = 1.7e308
        huge = Pyramid(blocks[0], blocks[1:], p.family, p.epsilon,
                       p.boundary, p.level_params)
        for entry in (synthesize, synthesize_array):
            with pytest.raises(DomainError, match="values must be finite"):
                entry(huge)
        assert len(started) == 4

    def test_helpers_exception_is_raised_in_the_caller(self, rng,
                                                       monkeypatch):
        split_chains(monkeypatch)
        before = threading.active_count()
        step = pyramid._analysis_step

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise ZeroDivisionError("in the helper")
            return step(*args)

        monkeypatch.setattr(pyramid, "_analysis_step", failing)
        with pytest.raises(ZeroDivisionError, match="in the helper"):
            analyze(rng.normal(size=(128, 2)), Conic(0.9), 2)
        assert threading.active_count() == before
