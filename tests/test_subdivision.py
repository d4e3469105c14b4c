import copy
import json
import math
import pickle
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import family_grid
from oracles import convolve, upsample2

from nspyr import (
    BadParamsError,
    Conic,
    DegenerateParameterError,
    DomainError,
    FinSeq,
    Mask,
    NS4Point,
    NSCubic,
    PeriodicSeq,
    PeriodTooShortError,
    Stationary,
    conic_params,
    cubic_bspline_family,
    cubic_bspline_mask,
    delta,
    family_from_description,
    operator_norm_inf,
    radial_deviation,
    refine,
    refine_n,
    sample_circle,
    v_next,
)
from nspyr.geometry import PlanarCurve
from nspyr import subdivision
from nspyr.subdivision import _refine_block


def brute_refine(taps: FinSeq, c: FinSeq) -> dict:
    """(S c)_j = sum_i alpha_{j-2i} c_i evaluated literally."""
    out = {}
    for i, cv in zip(c.indices(), c.coeffs):
        for t_idx, tv in zip(taps.indices(), taps.coeffs):
            j = t_idx + 2 * i
            out[j] = out.get(j, 0.0) + tv * cv
    return out


def circle_components(n):
    ang = 2.0 * np.pi * np.arange(n) / n
    return PeriodicSeq(np.cos(ang)), PeriodicSeq(np.sin(ang))


class TestMask:
    def test_parity_enforced(self):
        # the rule of stationary schemes, which a stationary family checks
        with pytest.raises(BadParamsError,
                           match="^mask parity sums deviate from 1 by "
                                 "4.000e-01$"):
            Stationary(FinSeq([0.5, 0.6, 0.5], -1))

    def test_mask_takes_taps_off_parity(self):
        # nonstationary masks may break the parity rule at every level
        mask = Mask(FinSeq([0.5, 0.6, 0.5], -1))
        assert mask.parity_deviation == (pytest.approx(-0.4), 0.0)

    def test_parity_sums_exposed(self):
        m = Mask(cubic_bspline_mask())
        assert m.even_sum == pytest.approx(1.0, abs=1e-15)
        assert m.odd_sum == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
           st.integers(-50, 50))
    def test_parity_sums_match_boolean_index(self, taps, offset):
        seq = FinSeq(taps, offset)
        if seq.is_empty:
            return
        m = Mask(seq)
        idx = seq.indices()
        assert m.even_sum == float(seq.coeffs[idx % 2 == 0].sum())
        assert m.odd_sum == float(seq.coeffs[idx % 2 == 1].sum())


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("check_parity", [True, False])
    def test_non_finite_taps_rejected(self, bad, check_parity):
        # the taps never reach the parity check of a stationary family,
        # where NaN sums would pass, nor a mask, which has none
        build = Stationary if check_parity else Mask
        with pytest.raises(DomainError, match="values must be finite"):
            build(FinSeq([0.5, bad, 0.5], -1))

    def test_nan_tension_rejected(self):
        # at construction, before any mask is built from it
        with pytest.raises(DomainError, match="^v_init must be finite"):
            Conic(math.nan)

    @pytest.mark.parametrize("clone", [
        lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy])
    @pytest.mark.parametrize("name, family", family_grid())
    def test_pickle_and_deepcopy(self, name, family, clone):
        mask = family.mask_at_level(2)
        back = clone(mask)
        assert (back.taps, back.level, back.family_id) == (
            mask.taps, mask.level, mask.family_id)
        assert back._phases[1][0].tobytes() == mask._phases[1][0].tobytes()
        with pytest.raises(AttributeError):
            back.level = 0

    @pytest.mark.parametrize("name, family", family_grid())
    def test_equality_is_over_taps_level_and_family(self, name, family):
        mask = family.mask_at_level(2)
        again = Mask(FinSeq(mask.taps.coeffs.copy(), mask.taps.offset),
                     mask.level, mask.family_id)
        assert again == mask and hash(again) == hash(mask)
        assert len({mask, again}) == 1
        assert mask != Mask(mask.taps, mask.level + 1, mask.family_id)
        assert mask != Mask(mask.taps, mask.level, "other")
        shifted = FinSeq(mask.taps.coeffs, mask.taps.offset + 2)
        assert mask != Mask(shifted, mask.level, mask.family_id)
        assert mask != mask.taps


class TestTensionMachinery:
    def test_v_next_fixed_point(self):
        assert v_next(1.0) == 1.0

    def test_v_next_half_angle(self):
        theta = 1.234
        assert v_next(math.cos(theta)) == pytest.approx(
            math.cos(theta / 2), rel=1e-15)

    def test_v_next_at_zero(self):
        assert v_next(0.0) == pytest.approx(0.7071067811865476, rel=1e-15)

    def test_v_next_domain(self):
        with pytest.raises(DomainError):
            v_next(-1.0)

    def test_v_next_monotone_to_one(self):
        for theta in (0.3, 1.0, 2.0, 3.0):
            v = math.cos(theta)
            previous = v
            for _ in range(40):
                v = v_next(v)
                assert v >= previous - 1e-15
                previous = v
            assert v == pytest.approx(1.0, abs=1e-10)


class TestConicParams:
    def test_degenerate_at_one_and_zero(self):
        with pytest.raises(DegenerateParameterError):
            conic_params(1.0)
        with pytest.raises(DegenerateParameterError):
            conic_params(0.0)

    @pytest.mark.parametrize("v", [math.cos(2 * math.pi / 64),
                                   math.cos(2 * math.pi / 9),
                                   math.cosh(2 * math.pi / 9)])
    def test_masks_pass_parity(self, v):
        a, b = conic_params(v)
        assert math.isfinite(a) and math.isfinite(b)
        mask = Conic(v).mask_at_level(0)
        dev = max(abs(d) for d in mask.parity_deviation)
        assert dev <= 1e-12

    def test_matches_directly_printed_form(self):
        # the implementation cancels the removable (v-1) factor; away from
        # v=1 it must agree with the literal quotient to near machine
        for v in (0.5, math.cos(2 * math.pi / 9), math.cosh(0.7), -0.3):
            s = math.sqrt(2.0 * (v + 1.0))
            a_printed = ((2.0 + s) * (2.0 - v * s)
                         / (8.0 * v * (v - 1.0) * s * (v + 3.0 + 2.0 * s)))
            a, _ = conic_params(v)
            assert a == pytest.approx(a_printed, rel=1e-13)


class TestMaskFamilies:
    def test_ns4pt_theta_zero_taps(self):
        taps = NS4Point(0.0).mask_at_level(0).taps
        assert taps[0] == 1.0
        odd = [taps[i] for i in (-3, -1, 1, 3)]
        assert odd == [-1 / 16, 9 / 16, 9 / 16, -1 / 16]

    def test_nscubic_v_one_is_cubic_bspline(self):
        taps = NSCubic(1.0).mask_at_level(0).taps
        assert taps == cubic_bspline_mask()

    def test_nscubic_even_rule_formula(self):
        fam = NSCubic(math.cos(2 * math.pi / 9))
        k = 2
        v = fam.tension_at_level(k)
        taps = fam.mask_at_level(k).taps
        assert taps[-2] == pytest.approx(1 / (2 * (v + 1) ** 2), rel=1e-14)
        assert taps[0] == pytest.approx(
            (4 * v * v + 2) / (2 * (v + 1) ** 2), rel=1e-14)
        assert taps[1] == pytest.approx(2 * v / (v + 1) ** 2, rel=1e-14)

    def test_nscubic_masks_tend_to_cubic_bspline(self):
        fam = NSCubic(math.cos(2 * math.pi / 8))
        taps30 = fam.mask_at_level(30).taps
        ref = cubic_bspline_mask()
        assert np.abs(taps30.coeffs - ref.coeffs).max() <= 1e-8

    def test_nscubic_parity_deviation_decays(self):
        fam = NSCubic(math.cos(2 * math.pi / 8))
        devs = [max(abs(d) for d in fam.mask_at_level(k).parity_deviation)
                for k in range(12)]
        assert all(d2 < d1 for d1, d2 in zip(devs, devs[1:]))
        assert devs[-1] < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 64, 256, 512])
    def test_parity_grid_ns4pt(self, n):
        fam = NS4Point(2 * math.pi / n)
        for k in range(13):
            dev = max(abs(d) for d in fam.mask_at_level(k).parity_deviation)
            assert dev <= 1e-12

    @pytest.mark.parametrize("n", [8, 16, 64, 256, 512])
    @pytest.mark.parametrize("kind", ["cos", "cosh"])
    def test_parity_grid_conic(self, n, kind):
        v0 = math.cos(2 * math.pi / n) if kind == "cos" \
            else math.cosh(2 * math.pi / n)
        fam = Conic(v0)
        for k in range(13):
            dev = max(abs(d) for d in fam.mask_at_level(k).parity_deviation)
            assert dev <= 1e-12

    def test_theta_zero_parity_ns4pt_all_levels(self):
        fam = NS4Point(0.0)
        for k in range(13):
            dev = max(abs(d) for d in fam.mask_at_level(k).parity_deviation)
            assert dev <= 1e-12


class TestOperatorNorm:
    def test_cubic_bspline(self):
        assert operator_norm_inf(Mask(cubic_bspline_mask())) == 1.0

    def test_four_point(self):
        assert operator_norm_inf(NS4Point(0.0).mask_at_level(0)) == 1.25

    def test_nonnegative_mask_norm_one(self):
        taps = FinSeq([0.25, 0.5, 0.5, 0.5, 0.25], -2)
        assert operator_norm_inf(Mask(taps)) == pytest.approx(1.0, abs=1e-15)


class TestRefine:
    def test_definition_on_delta(self):
        mask = Mask(FinSeq([1.0, 1.0], 0))
        out = refine(mask, delta())
        assert out == FinSeq([1.0, 1.0], 0)

    def test_matches_brute_force(self, rng):
        mask = Mask(cubic_bspline_mask())
        for _ in range(10):
            coeffs = rng.normal(size=int(rng.integers(1, 8)))
            coeffs[0] = coeffs[0] or 1.0
            c = FinSeq(coeffs, int(rng.integers(-3, 3)))
            out = refine(mask, c)
            for j, v in brute_refine(mask.taps, c).items():
                assert out[j] == pytest.approx(v, rel=1e-13, abs=1e-13)

    def test_partition_of_unity_periodic(self):
        mask = Mask(cubic_bspline_mask())
        out = refine(mask, PeriodicSeq(np.ones(8)))
        np.testing.assert_allclose(out.values, 1.0, rtol=1e-15)
        assert out.period == 16

    def test_interpolation_copies_even_outputs(self, rng):
        fam = NS4Point(2 * math.pi / 12)
        for k in range(4):
            c = PeriodicSeq(rng.normal(size=12))
            out = refine(fam.mask_at_level(k), c)
            assert np.array_equal(out.values[0::2], c.values)

    @pytest.mark.parametrize("name,family", family_grid())
    def test_polyphase_matches_upsampled_convolution(self, rng, name, family):
        for k in range(3):
            mask = family.mask_at_level(k)
            c = PeriodicSeq(rng.normal(size=16))
            got = refine(mask, c).values
            want = convolve(mask.taps, upsample2(c)).values
            tol = (64 * np.finfo(float).eps * np.abs(mask.taps.coeffs).sum()
                   * np.abs(c.values).max())
            assert np.abs(got - want).max() <= tol

    def test_refine_reads_the_phases_split_at_construction(self, rng,
                                                            monkeypatch):
        mask = Conic(math.cos(2 * math.pi / 16)).mask_at_level(0)
        c = PeriodicSeq(rng.normal(size=16))
        want = refine(mask, c)
        monkeypatch.setattr(subdivision, "_polyphase", None)
        assert refine(mask, c) == want

    @pytest.mark.parametrize("name, family", family_grid())
    def test_one_kernel_call_per_refinement(self, rng, kernel_calls, name,
                                            family):
        # both phases come from one call, periodic or finite
        mask = family.mask_at_level(1)
        refine(mask, PeriodicSeq(rng.normal(size=32)))
        refine(mask, FinSeq(rng.normal(size=9), -3))
        _refine_block(mask, rng.normal(size=(4096, 2)))
        assert kernel_calls == [2, 2, 2]
        refine(Mask(FinSeq([1.5], 0)),
               PeriodicSeq(rng.normal(size=8)))
        assert kernel_calls == [2, 2, 2, 1]

    @pytest.mark.parametrize("offset", [0, 1, -3])
    def test_phase_without_taps_refines_to_zero(self, rng, offset):
        # one tap, so one parity has no taps and its output phase is zero
        mask = Mask(FinSeq([1.5], offset))
        for rows in (3, 64, 4096):
            values = rng.normal(size=(rows, 2))
            got = _refine_block(mask, values)
            for d in range(2):
                want = convolve(mask.taps,
                                upsample2(PeriodicSeq(values[:, d]))).values
                np.testing.assert_array_equal(got[:, d], want)
            assert np.all(got[(offset + 1) % 2::2] == 0.0)
            # into a column of a given block, the others left as they are
            out = np.full((2 * rows, 2), np.nan, order="F")
            _refine_block(mask, values[:, 1:], out[:, 1:], 2)
            assert np.array_equal(out[:, 1], got[:, 1])
            assert np.isnan(out[:, 0]).all()

    def test_period_too_short(self):
        mask = Conic(math.cos(2 * math.pi / 16)).mask_at_level(0)
        with pytest.raises(PeriodTooShortError):
            refine(mask, PeriodicSeq([1.0, 2.0, 3.0, 4.0]))

    def test_linearity(self, rng):
        mask = Conic(math.cos(2 * math.pi / 16)).mask_at_level(1)
        for _ in range(10):
            c = PeriodicSeq(rng.normal(size=16))
            e = PeriodicSeq(rng.normal(size=16))
            a, b = rng.normal(size=2)
            lhs = refine(mask, PeriodicSeq(a * c.values + b * e.values))
            rhs = a * refine(mask, c).values + b * refine(mask, e).values
            np.testing.assert_allclose(lhs.values, rhs, rtol=1e-13,
                                       atol=1e-13)


class TestFiniteRefine:
    """Finite refinement on the zero frame against ``alpha * upsample2(c)``."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(family_grid()), st.integers(0, 3),
           st.integers(-9, 9), st.integers(0, 300),
           st.integers(0, 2 ** 32 - 1))
    @example(family_grid()[3], 0, 0, 0, 0)   # empty input
    @example(family_grid()[2], 1, 7, 1, 0)   # one sample, odd offset
    def test_matches_oracle(self, named, level, offset, length, seed):
        _, family = named
        mask = family.mask_at_level(level)
        c = FinSeq(np.random.default_rng(seed).uniform(-1.0, 1.0, length),
                   offset)
        oracles.assert_matches(refine(mask, c), oracles.refine(mask, c),
                               mask.taps.coeffs, c)


class TestRefineN:
    def test_zero_steps_identity(self, rng):
        fam = cubic_bspline_family()
        c = PeriodicSeq(rng.normal(size=8))
        assert refine_n(fam, c, 0) == c

    def test_conic_circle_reproduction(self):
        curve = sample_circle(9)
        x, y = PeriodicSeq(curve.points[:, 0]), PeriodicSeq(curve.points[:, 1])
        fam = Conic(math.cos(2 * math.pi / 9))
        rx, ry = refine_n(fam, x, 3), refine_n(fam, y, 3)
        assert rx.period == 72
        refined = PlanarCurve(np.stack([rx.values, ry.values], axis=1))
        assert radial_deviation(refined, 1.0) <= 1e-10

    def test_cubic_bspline_circle_shrinks(self):
        curve = sample_circle(9)
        x, y = PeriodicSeq(curve.points[:, 0]), PeriodicSeq(curve.points[:, 1])
        fam = cubic_bspline_family()
        rx, ry = refine_n(fam, x, 3), refine_n(fam, y, 3)
        refined = PlanarCurve(np.stack([rx.values, ry.values], axis=1))
        assert radial_deviation(refined, 1.0) > 1e-3

    def test_ns4pt_densifies_circle(self):
        # the tension matched to the sample spacing keeps inserted points
        # on the circle at every level
        n = 16
        curve = sample_circle(n)
        fam = NS4Point(2 * math.pi / n)
        x, y = PeriodicSeq(curve.points[:, 0]), PeriodicSeq(curve.points[:, 1])
        rx, ry = refine_n(fam, x, 3), refine_n(fam, y, 3)
        refined = PlanarCurve(np.stack([rx.values, ry.values], axis=1))
        assert radial_deviation(refined, 1.0) <= 1e-12


class TestStationary:
    def test_user_mask_must_pass_parity(self):
        with pytest.raises(BadParamsError):
            Stationary(FinSeq([0.3, 0.3, 0.3], -1))

    @pytest.mark.parametrize("taps, offset, interpolating", [
        ([-1 / 16, 0, 9 / 16, 1, 9 / 16, 0, -1 / 16], -3, True),
        ([0.5, 1.0, 0.5], -1, True),
        ([1.0, 1.0], 0, True),
        ([1.0, 1.0], -1, True),
        ([1.0, 1.0], 1, False),
        ([1 / 8, 1 / 2, 3 / 4, 1 / 2, 1 / 8], -2, False),
        ([-0.25, 0.5, 1.0, 0.5, 0.25], -2, False),
    ], ids=["four-point", "linear", "haar", "haar-left", "haar-shifted",
            "cubic-bspline", "two-even-taps"])
    def test_interpolating_read_from_the_taps(self, taps, offset,
                                              interpolating):
        # one even tap, 1.0 at index 0: the coarse point is copied
        fam = Stationary(FinSeq(taps, offset))
        assert fam.interpolating is interpolating

    def test_levels_share_taps(self):
        fam = cubic_bspline_family()
        assert fam.mask_at_level(0).taps == fam.mask_at_level(7).taps

    def test_description_keeps_the_name(self):
        fam = cubic_bspline_family()
        back = family_from_description(fam.describe())
        assert back.family_id == "cubic_bspline"
        assert back.describe() == fam.describe()
        assert back.mask_at_level(2).family_id == "cubic_bspline"
        assert (Stationary(cubic_bspline_mask()).describe()
                != fam.describe())

    def test_description_without_name_rebuilds_as_stationary(self):
        # written before stationary descriptions kept the name
        back = family_from_description(
            {"kind": "stationary", "offset": -2,
             "taps": cubic_bspline_mask().coeffs.tolist()})
        assert back.family_id == "stationary"
        assert back.mask_at_level(0).taps == cubic_bspline_mask()


class TestFamilyValues:
    """Families are immutable values compared by their parameters."""

    @pytest.mark.parametrize("clone", [
        lambda f: family_from_description(f.describe()),
        lambda f: pickle.loads(pickle.dumps(f)), copy.deepcopy])
    @pytest.mark.parametrize("name, family", family_grid())
    def test_equal_when_built_separately(self, name, family, clone):
        back = clone(family)
        assert back is not family
        assert back == family and hash(back) == hash(family)
        assert back.describe() == family.describe()

    def test_equal_parameters_equal_families(self):
        v = math.cos(2 * math.pi / 16)
        for build in (Conic, NSCubic, NS4Point):
            assert build(v) == build(v)
            assert hash(build(v)) == hash(build(v))
            assert build(v) != build(v / 2)
        taps = cubic_bspline_mask()
        assert Stationary(taps) == Stationary(
            FinSeq(taps.coeffs.copy(), taps.offset))
        # kinds and names stay apart
        assert NSCubic(0.5) != Conic(0.5)
        assert NS4Point(0.5) != Conic(0.5)
        assert cubic_bspline_family() != Stationary(cubic_bspline_mask())
        assert len({cubic_bspline_family(), Stationary(cubic_bspline_mask()),
                    Conic(0.5), NSCubic(0.5), NS4Point(0.5)}) == 5

    @pytest.mark.parametrize("name, family", family_grid())
    def test_immutable(self, name, family):
        for field in fields(family):
            with pytest.raises(AttributeError):
                setattr(family, field.name, 0.5)

    def test_descriptions_are_unchanged(self):
        # pyramid documents written before keep loading and comparing
        assert json.dumps(Conic(0.9).describe()) == (
            '{"kind": "conic", "v_init": 0.9}')
        assert json.dumps(NSCubic(1).describe()) == (
            '{"kind": "nscubic", "v_init": 1.0}')
        assert json.dumps(NS4Point(1).describe()) == (
            '{"kind": "ns4pt", "theta": 1.0}')
        assert json.dumps(cubic_bspline_family().describe()) == (
            '{"kind": "stationary", "name": "cubic_bspline", "offset": -2, '
            '"taps": [0.125, 0.5, 0.75, 0.5, 0.125]}')

    @pytest.mark.parametrize("build", [Conic, NSCubic])
    def test_iterated_tension(self, build):
        for k in range(4):
            assert build(0.3).tension_at_level(k) == pytest.approx(
                math.cos(math.acos(0.3) / 2 ** (k + 1)), rel=1e-15)
        with pytest.raises(DomainError, match="v_init must exceed -1"):
            build(-1.0)
        with pytest.raises(DomainError, match="level must be nonnegative"):
            build(0.5).tension_at_level(-1)
