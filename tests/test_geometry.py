import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nspyr import (
    BadParamsError,
    DomainError,
    NspyrError,
    PlanarCurve,
    anomaly_localize,
    anomaly_flags,
    circularity_report,
    curve_pyramid,
    perturb_quadrant,
    perturb_wavy,
    quadrant_window,
    radial_deviation,
    read_curve_csv,
    sample_circle,
    write_curve_csv,
)
from nspyr import geometry
from nspyr.geometry import WAVY_PRESETS


def injected_indices(n):
    return np.nonzero(quadrant_window(n) > 0.0)[0]


class TestSampleCircle:
    def test_four_points(self):
        c = sample_circle(4)
        np.testing.assert_allclose(
            c.points, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)

    def test_radii_exact(self):
        c = sample_circle(256)
        assert radial_deviation(c, 1.0) <= 1e-15

    def test_nine_points_start_on_axis(self):
        c = sample_circle(9)
        assert c.n == 9
        np.testing.assert_allclose(c.points[0], [1.0, 0.0], atol=1e-15)

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            sample_circle(3)
        with pytest.raises(BadParamsError):
            sample_circle(8, radius=0.0)


class TestPerturbations:
    def test_zero_amplitude_identity(self):
        c = sample_circle(64)
        np.testing.assert_array_equal(perturb_wavy(c, 0.0, 5).points,
                                      c.points)
        np.testing.assert_array_equal(perturb_quadrant(c, 0.0, 5).points,
                                      c.points)

    def test_wavy_radii_within_band(self):
        c = perturb_wavy(sample_circle(256), 0.02, 12)
        radii = np.hypot(c.points[:, 0], c.points[:, 1])
        assert np.all(radii >= 1.0 - 0.02 - 1e-12)
        assert np.all(radii <= 1.0 + 0.02 + 1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = sample_circle(8).points.copy()
        pts[3, 1] = bad
        with pytest.raises(DomainError, match="curve points must be finite"):
            PlanarCurve(pts)

    def test_nan_amplitude_rejected(self):
        with pytest.raises(DomainError, match="amplitude must be finite"):
            perturb_wavy(sample_circle(8), np.nan, 3)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("perturb", [perturb_wavy, perturb_quadrant])
    def test_non_finite_amplitude_rejected_before_arithmetic(self, perturb,
                                                             bad):
        # inf * sin(0) would be a NaN, and a RuntimeWarning (an error in
        # this suite) before PlanarCurve could raise
        with pytest.raises(DomainError, match="amplitude must be finite"):
            perturb(sample_circle(8), bad, 3)

    @pytest.mark.parametrize("frequency", [0, 2.5, np.inf, np.nan, "3"])
    def test_frequency_must_be_a_positive_integer(self, frequency):
        with pytest.raises(BadParamsError, match="frequency"):
            perturb_quadrant(sample_circle(8), 0.1, frequency)

    def test_wavy_frequency_must_be_integer(self):
        with pytest.raises(BadParamsError):
            perturb_wavy(sample_circle(16), 0.1, 2.5)

    def test_quadrant_touches_only_window(self):
        n = 256
        c = sample_circle(n)
        bumped = perturb_quadrant(c, 0.05, 9)
        moved = np.abs(bumped.points - c.points).max(axis=1) > 0.0
        inside = quadrant_window(n) > 0.0
        assert not np.any(moved & ~inside)

    def test_quadrant_window_shape(self):
        n = 256
        w = quadrant_window(n)
        assert w.max() == pytest.approx(1.0, abs=1e-12)
        # quarter arc strictly inside (160, 224) for 256 samples
        assert w[160] == 0.0 and w[224] == 0.0
        assert np.all(w[161:224] > 0.0)


class TestCircularity:
    def test_pure_circle_verdict(self):
        rep = circularity_report(sample_circle(256), 4)
        assert rep.verdict_scale <= 1e-8
        assert rep.levels == 4
        assert len(rep.per_level_l1) == 4

    def test_scaled_circle_verdict(self):
        rep = circularity_report(sample_circle(256, radius=5.0), 4)
        assert rep.verdict_scale <= 1e-7

    def test_wavy_presets_strictly_ordered(self):
        verdicts = []
        for _, amplitude, frequency in WAVY_PRESETS:
            curve = perturb_wavy(sample_circle(256), amplitude, frequency)
            rep = circularity_report(curve, 4)
            verdicts.append(rep.verdict_scale)
            norms = [curve_pyramid(curve, 4).detail_norms(level)
                     for level in range(1, 5)]
            assert rep.per_level_l1 == [float(e.sum()) for e in norms]
            assert rep.per_level_avg_l2 == [float(e.mean()) for e in norms]
        assert verdicts[0] < verdicts[1] < verdicts[2]

    def test_monotone_in_amplitude(self):
        verdicts = []
        for amplitude in (0.005, 0.01, 0.02, 0.04, 0.08):
            curve = perturb_wavy(sample_circle(256), amplitude, 11)
            verdicts.append(circularity_report(curve, 4).verdict_scale)
        assert all(a < b for a, b in zip(verdicts, verdicts[1:]))

    def test_rotation_equivariance(self):
        base = sample_circle(256)
        phi = 0.81
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        rotated = PlanarCurve(base.points @ rot.T)
        v0 = circularity_report(base, 4).verdict_scale
        v1 = circularity_report(rotated, 4).verdict_scale
        assert abs(v0 - v1) <= 1e-10

    def test_translation_leaves_details_unchanged(self):
        curve = perturb_wavy(sample_circle(256), 0.03, 9)
        shifted = PlanarCurve(curve.points + np.array([12.5, -3.25]))
        p0 = curve_pyramid(curve, 4)
        p1 = curve_pyramid(shifted, 4)
        for level in range(1, 5):
            np.testing.assert_allclose(p0.detail_array(level),
                                       p1.detail_array(level), atol=1e-12)

    def test_needs_divisible_period(self):
        from nspyr import PeriodNotDivisibleError
        with pytest.raises(PeriodNotDivisibleError):
            circularity_report(sample_circle(100), 3)


def sampled_ellipse(n, semi_major, aspect, rotation, center, phase):
    """Closed curve of ``n`` samples, uniform in the ellipse's parameter."""
    t = 2.0 * np.pi * np.arange(n) / n + phase
    rot = np.array([[math.cos(rotation), -math.sin(rotation)],
                    [math.sin(rotation), math.cos(rotation)]])
    axes = np.column_stack([semi_major * np.cos(t),
                            semi_major / aspect * np.sin(t)])
    return PlanarCurve(axes @ rot.T + center)


class TestConicVerdict:
    """The verdict detects uniformly sampled conics, not circles alone."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([64, 128, 256, 512]), data=st.data(),
           aspect=st.floats(1.01, 2.0), rotation=st.floats(0.0, 2 * math.pi),
           semi_major=st.floats(1e-2, 1e2),
           center=st.tuples(st.floats(-100.0, 100.0),
                            st.floats(-100.0, 100.0)),
           phase=st.floats(0.0, 2 * math.pi))
    def test_uniformly_sampled_ellipses_score_at_rounding(
            self, n, data, aspect, rotation, semi_major, center, phase):
        # every affine image of a uniformly sampled circle is annihilated
        levels = data.draw(st.integers(1, int(math.log2(n // 8))))
        curve = sampled_ellipse(n, semi_major, aspect, rotation,
                                semi_major * np.array(center), phase)
        rep = circularity_report(curve, levels)
        assert rep.verdict_scale <= 1e-12 * semi_major
        assert anomaly_localize(curve, levels) == []

    @pytest.mark.parametrize("warp", [0.01, 0.1])
    def test_nonuniformly_sampled_circle_scores_above_rounding(self, warp):
        # a circle sampled at t + warp sin t is no uniformly sampled conic
        t = 2.0 * np.pi * np.arange(256) / 256
        s = t + warp * np.sin(t)
        curve = PlanarCurve(np.column_stack([np.cos(s), np.sin(s)]))
        assert circularity_report(curve, 4).verdict_scale >= 1e-6


class TestAnomaly:
    def test_pure_circle_empty(self):
        assert anomaly_localize(sample_circle(256), 4) == []

    def test_quadrant_yields_single_covering_range(self):
        n = 256
        curve = perturb_quadrant(sample_circle(n), 0.01, 12)
        ranges = anomaly_localize(curve, 4)
        assert len(ranges) == 1
        start, end = ranges[0]
        injected = injected_indices(n)
        covered = np.isin(injected, np.arange(start, end + 1)).mean()
        assert covered >= 0.95
        # spillover: coefficients actually flagged outside the window
        flags, _ = anomaly_flags(curve, 4)
        spill = np.count_nonzero(flags & (quadrant_window(n) == 0.0))
        assert spill <= 0.05 * n

    def test_two_arcs_give_two_ranges(self):
        n = 256
        curve = perturb_quadrant(sample_circle(n), 0.01, 12)
        # rotate the parameterization by half a turn and bump again,
        # producing disjoint anomalies at opposite quadrants
        rolled = PlanarCurve(np.roll(curve.points, n // 2, axis=0))
        curve2 = perturb_quadrant(rolled, 0.01, 12)
        ranges = anomaly_localize(curve2, 4)
        assert len(ranges) == 2

    def test_details_quiet_beyond_the_arc(self):
        # beyond the operators' influence halo (filter tails reach a few
        # samples past the window) the details sit at machine noise,
        # orders of magnitude below the perturbed arc itself
        n, halo = 256, 6
        curve = perturb_quadrant(sample_circle(n), 0.01, 12)
        p = curve_pyramid(curve, 4)
        e = p.detail_norms(4)
        injected = injected_indices(n)
        far = np.ones(n, bool)
        far[injected[0] - halo: injected[-1] + halo + 1] = False
        assert e[far].max() <= 1e-8
        assert e[injected].max() >= 1e3 * e[far].max()

    def test_energy_localized_in_window(self):
        n = 256
        curve = perturb_quadrant(sample_circle(n), 0.01, 12)
        p = curve_pyramid(curve, 4)
        e = p.detail_norms(4) ** 2
        injected = injected_indices(n)
        halo = np.arange(injected[0] - 3, injected[-1] + 4)
        inside = e[halo].sum()
        assert inside >= 0.95 * e.sum()

    def test_wraparound_range_merging(self):
        n = 256
        curve = sample_circle(n)
        # roll a quarter turn so the bump center lands on the seam
        bumped = perturb_quadrant(curve, 0.01, 12)
        seam = PlanarCurve(np.roll(bumped.points, n // 4, axis=0))
        ranges = anomaly_localize(seam, 4)
        assert len(ranges) == 1
        start, end = ranges[0]
        assert start < 0 <= end  # wraps through index 0


def radial_curve(n, shape, radius, center, phase, amplitude, frequency):
    """Closed curve: circle, all-round radial wave or one quarter-arc bump."""
    t = 2.0 * np.pi * np.arange(n) / n + phase
    r = np.full(n, radius)
    if shape == "wavy":
        r += radius * amplitude * np.sin(frequency * t)
    elif shape == "quadrant":
        dist = np.abs(np.angle(np.exp(1j * (t - 3.0 * phase))))
        r += radius * amplitude * np.sin(frequency * t) * np.where(
            dist < np.pi / 4.0, 0.5 * (1.0 + np.cos(4.0 * dist)), 0.0)
    pts = np.asarray(center) + r[:, None] * np.stack(
        [np.cos(t), np.sin(t)], axis=1)
    return PlanarCurve(pts)


class TestFinestLevelFlags:
    """anomaly_flags analyzes the finest level only."""

    @settings(max_examples=80, deadline=None)
    @given(levels=st.integers(1, 5), extra=st.integers(3, 5),
           shape=st.sampled_from(["clean", "wavy", "quadrant"]),
           radius=st.floats(0.1, 10.0),
           center=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
           phase=st.floats(0.0, 2.0 * math.pi),
           amplitude=st.floats(0.001, 0.1), frequency=st.integers(2, 20),
           log_epsilon=st.floats(-15.0, -8.0))
    def test_equal_to_full_analysis(self, levels, extra, shape, radius,
                                    center, phase, amplitude, frequency,
                                    log_epsilon):
        n = 2 ** (levels + extra)
        curve = radial_curve(n, shape, radius, center, phase, amplitude,
                            frequency)
        epsilon = 10.0 ** log_epsilon
        flags, threshold = anomaly_flags(curve, levels, epsilon)
        e = curve_pyramid(curve, levels, epsilon).detail_norms(levels)
        assert threshold == max(50.0 * float(np.median(e)), 1e-10)
        np.testing.assert_array_equal(flags, e > threshold)

    def test_same_errors_as_full_analysis(self):
        from nspyr import DomainError, PeriodNotDivisibleError
        open_curve = PlanarCurve(sample_circle(64).points, closed=False)
        with pytest.raises(BadParamsError, match="closed"):
            anomaly_flags(open_curve, 3)
        with pytest.raises(BadParamsError, match="at least one level"):
            anomaly_flags(sample_circle(64), 0)
        with pytest.raises(PeriodNotDivisibleError):
            anomaly_flags(sample_circle(100), 3)
        points = sample_circle(64).points.copy()
        points[5, 1] = np.nan
        with pytest.raises(DomainError, match="finite"):
            anomaly_flags(PlanarCurve(points), 3)

    def test_coarse_level_below_stencil_localizes(self):
        from nspyr import (PeriodicSeq, PeriodTooShortError, conic_family_for,
                           decimate, refine, solve_gamma)
        n, levels = 64, 4
        curve = perturb_quadrant(sample_circle(n), 0.01, 12)
        with pytest.raises(PeriodTooShortError):
            curve_pyramid(curve, levels)
        mask = conic_family_for(n, levels).mask_at_level(levels - 1)
        filt = solve_gamma(mask)
        parts = [col - refine(mask, decimate(filt, PeriodicSeq(col))).values
                 for col in curve.points.T]
        e = np.sqrt(parts[0] * parts[0] + parts[1] * parts[1])
        flags, threshold = anomaly_flags(curve, levels)
        assert threshold == max(50.0 * float(np.median(e)), 1e-10)
        np.testing.assert_array_equal(flags, e > threshold)
        ranges = anomaly_localize(curve, levels)
        assert len(ranges) == 1
        start, end = ranges[0]
        covered = np.arange(start, end + 1) % n
        assert np.isin(injected_indices(n), covered).all()
        assert anomaly_localize(sample_circle(n), levels) == []


# Detail norms: zero, magnitudes from 1e-300 to 1e300, a few repeated
# values for ties, and NaN.
NORMS = st.one_of(st.floats(1e-300, 1e300), st.just(0.0),
                  st.sampled_from([1e-300, 0.5, 1.0, 3.0, 1e300]),
                  st.just(math.nan))


class TestMedian:
    """The flags' median is np.median's, from one partition."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(NORMS, min_size=1, max_size=80))
    @example([3.0, 1.0, 3.0, 1.0])
    @example([2.0, 3.0])
    @example([1.0, math.nan, 2.0])
    def test_bits_of_np_median(self, values):
        norms = np.array(values)
        want = np.median(norms)
        got = geometry._median(norms)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert norms.tobytes() == np.array(values).tobytes()  # unchanged


# Number cells of a CSV row that float() and numpy's parser both read:
# repr'd floats, signed zero, a subnormal, non-finite spellings, padding.
NUMBER_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["-0.0", "5e-324", "nan", "-nan", "inf", "-Infinity",
                     "1e400", "+2", " 1.5", "2.5\t"]))

# Cells that only float() reads (an underscore, non-ASCII digits), or
# that it does not read.
ODD_CELLS = st.sampled_from(["1_0", "\uff13", "\u0663", "1.0", "0x1p3",
                             "1e", "", "x", "\x1c3.0", "2\x1f",
                             "1.0 2.0"])

HEADERS = st.sampled_from(["# closed=true", "# closed=FALSE",
                           "#closed=false", "# closed=maybe", "# note", "#"])


@st.composite
def curve_text(draw):
    """The text of a curve CSV file of ``x,y`` rows.

    A few rows may be spoiled (an odd cell, one cell fewer or one more),
    rows may be padded with blanks, and blank, blank-only, ``# note``
    and three-column lines may fall among them.  A header may lead the
    file.  Lines end in LF or CRLF.
    """
    rows = draw(st.lists(st.lists(NUMBER_CELLS, min_size=2, max_size=2),
                         max_size=12))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if rows else 0):
        row = draw(st.sampled_from(rows))
        spoil = draw(st.sampled_from(["odd", "short", "long"]))
        if spoil == "odd":
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
        elif spoil == "short":
            del row[-1:]
        else:
            row.append(draw(NUMBER_CELLS))
    pad = st.sampled_from(["", "", " ", "\t"])
    lines = [draw(pad) + ",".join(row) + draw(pad) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        extra = draw(st.sampled_from(["", "  ", "# note", "1,2,3"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if draw(st.booleans()):
        lines.insert(0, draw(HEADERS))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"]))
                   for line in lines)


def curve_outcome(read, *args):
    """The points' bytes and the flag ``read(*args)`` gives, or its error."""
    try:
        curve = read(*args)
    except NspyrError as exc:
        return type(exc).__name__, str(exc)
    return curve.points.shape, curve.points.tobytes(), curve.closed


class TestCurveCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "curve.csv"
        curve = perturb_wavy(sample_circle(32), 0.05, 3)
        write_curve_csv(path, curve)
        back = read_curve_csv(path)
        assert back.closed
        np.testing.assert_array_equal(back.points, curve.points)

    def test_header_records_open_curves(self, tmp_path):
        path = tmp_path / "open.csv"
        write_curve_csv(path, PlanarCurve(np.zeros((5, 2)) + [[1, 2]],
                                          closed=False))
        assert path.read_text().splitlines()[0] == "# closed=false"
        assert not read_curve_csv(path).closed

    @pytest.mark.parametrize("value, closed", [
        ("true", True), ("TRUE", True), ("True", True),
        ("false", False), ("False", False), ("FALSE", False)])
    def test_closed_header_any_case(self, tmp_path, value, closed):
        path = tmp_path / "curve.csv"
        path.write_text(f"# closed={value}\n1.0,0.0\n0.0,1.0\n"
                        "-1.0,0.0\n0.0,-1.0\n")
        assert read_curve_csv(path).closed is closed

    @pytest.mark.parametrize("value", ["yes", "1", "", "truth", "no"])
    def test_other_closed_values_rejected(self, tmp_path, value):
        path = tmp_path / "curve.csv"
        path.write_text(f"1.0,0.0\n# closed={value}\n0.0,1.0\n")
        with pytest.raises(BadParamsError,
                           match=r"curve\.csv, line 2: closed must be"):
            read_curve_csv(path)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False,
                                        allow_infinity=False),
                              st.floats(allow_nan=False,
                                        allow_infinity=False)),
                    min_size=4, max_size=40),
           st.booleans())
    def test_roundtrip_bit_exact(self, tmp_path_factory, points, closed):
        path = tmp_path_factory.mktemp("csv") / "curve.csv"
        points = np.array(points + [(5e-324, -0.0)])
        write_curve_csv(path, PlanarCurve(points, closed=closed))
        back = read_curve_csv(path)
        assert back.closed is closed
        assert back.points.tobytes() == points.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(4, 30), st.data())
    def test_bad_row_names_its_line(self, tmp_path_factory, n, data):
        # rows padded with blanks, blank lines, comments and the header,
        # all among the rows, then one row spoiled
        blank = st.sampled_from(["", " ", "\t", "  \t "])
        lines = [f"{x!r},{y!r}" for x, y in
                 np.random.default_rng(n).normal(size=(n, 2)).tolist()]
        for _ in range(data.draw(st.integers(0, 4))):
            extra = data.draw(st.sampled_from(
                ["", " ", "# note", "  # closed=false", "#", "# closed=TRUE"]))
            lines.insert(data.draw(st.integers(0, len(lines))), extra)
        rows = [i for i, ln in enumerate(lines)
                if ln.strip() and not ln.strip().startswith("#")]
        spoiled = data.draw(st.sampled_from(rows))
        bad = data.draw(st.sampled_from(
            ["1.0", "1.0,2.0,3.0", "x,1.0", "1.0;2.0", "1.0,", ",1.0",
             "1.0 2.0", "nan(1),0.0", "0x1p3,1.0", "1e,1"]))
        lines[spoiled] = data.draw(blank) + bad + data.draw(blank)
        path = tmp_path_factory.mktemp("csv") / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BadParamsError,
                           match=rf"bad\.csv, line {spoiled + 1}: cannot"):
            read_curve_csv(path)

    def test_blank_lines_and_headers_among_rows(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("\n1.0,0.0\n  \n# note\n 0.0 , 1.0 \n"
                        "  # closed=false\n-1.0,0.0\n\t\n0.0,-1.0")
        back = read_curve_csv(path)
        assert not back.closed
        assert back.points.tolist() == [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                                        [0.0, -1.0]]
        path.write_text("# closed=false\n# closed=true\n" + "1.0,0.0\n" * 4)
        assert read_curve_csv(path).closed
        path.write_text("# closed=true\n\n \n# closed=false\n")
        with pytest.raises(BadParamsError, match="no points"):
            read_curve_csv(path)

    @settings(max_examples=300, deadline=None)
    @given(curve_text())
    # numpy strips a separator character inside a row, float() refuses it
    @example("# closed=true\n1.0,\x1c3.0\n0,1\n1,1\n1,0\n")
    def test_one_call_parse_agrees_with_the_line_loop(self, tmp_path_factory,
                                                      text):
        path = tmp_path_factory.mktemp("csv") / "curve.csv"
        path.write_bytes(text.encode("utf-8"))
        lines = path.read_text(encoding="utf-8").split("\n")
        assert (curve_outcome(read_curve_csv, path)
                == curve_outcome(geometry._read_curve_lines, path, lines))

    def test_written_files_skip_the_line_loop(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr(geometry, "_read_curve_lines", refuse)
        path = tmp_path / "curve.csv"
        for closed in (True, False):
            curve = PlanarCurve(np.random.default_rng(5).normal(size=(600, 2)),
                                closed=closed)
            write_curve_csv(path, curve)
            back = read_curve_csv(path)
            assert back.closed is closed
            assert back.points.tobytes() == curve.points.tobytes()

    def test_writer_output_unchanged(self, tmp_path):
        # the repr of each coordinate, as float() of every numpy scalar gave
        path = tmp_path / "curve.csv"
        points = [[0.1, -1e-300], [1e16, 1.0 / 3.0], [-0.0, 5e-324]]
        write_curve_csv(path, PlanarCurve(np.array(points), closed=False))
        assert path.read_text() == (
            "# closed=false\n0.1,-1e-300\n1e+16,0.3333333333333333\n"
            "-0.0,5e-324\n")
        # more rows than one write formats
        points = np.random.default_rng(3).normal(size=(9000, 2))
        write_curve_csv(path, PlanarCurve(points))
        same = path.read_text() == "# closed=true\n" + "".join(
            f"{float(x)!r},{float(y)!r}\n" for x, y in points)
        assert same  # a plain bool: pytest's diff of 9000 lines is slow
