"""The array and scalar contracts of every entry point, over a zoo of inputs.

Each case runs under its own 2 s ``signal.alarm``, so a hang fails the
test instead of stalling the run.  A case either gives what the float64
form of its input gives, bit for bit, or raises an :class:`NspyrError`.
Anything else fails: a bare numpy error, a hang, or a warning, which
this suite turns into an error.
"""

import contextlib
import math
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nspyr import (
    BadParamsError,
    Conic,
    DomainError,
    FinSeq,
    LevelParams,
    Mask,
    NS4Point,
    NSCubic,
    NspyrError,
    PeriodicSeq,
    PlanarCurve,
    Pyramid,
    ShapeMismatchError,
    Stationary,
    analyze,
    anomaly_flags,
    anomaly_localize,
    check_decomposition_stability,
    check_reconstruction_stability,
    circularity_report,
    conic_family_for,
    conic_params,
    cubic_bspline_family,
    curve_pyramid,
    decimate,
    detail_bound,
    detail_decay_report,
    filter_metadata,
    norm_l1,
    operator_norm_inf,
    perturb_wavy,
    quadrant_window,
    radial_deviation,
    reconstruction_stability_bound,
    refine,
    refine_n,
    residual_check,
    residual_operator_norm_estimate,
    sample_circle,
    solve_gamma,
    synthesize,
    synthesize_array,
    v_next,
    write_curve_csv,
)
from nspyr.errors import _real_array, _real_scalar

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                                reason="needs signal.alarm")

FAMILY = NSCubic(0.5)
MASK = FAMILY.mask_at_level(0)
FILT = solve_gamma(MASK)
LEVEL_PARAMS = analyze(np.ones(8), FAMILY, 1, boundary="finite").level_params


@contextlib.contextmanager
def deadline(seconds=2):
    """Fail with TimeoutError if the block runs longer than ``seconds``."""
    def hang(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def digest(value):
    """Bytes-exact form of an entry point's result."""
    if isinstance(value, Pyramid):
        return value.to_json()
    if isinstance(value, FinSeq):
        return ("FinSeq", value.offset, value.coeffs.tobytes())
    if isinstance(value, PeriodicSeq):
        return ("PeriodicSeq", value.values.tobytes())
    if isinstance(value, PlanarCurve):
        return (value.points.shape, value.points.tobytes(), value.closed)
    return repr(value)  # dataclasses of floats: repr round-trips


# entry point name -> function of one input
ENTRIES = {
    "analyze-periodic": lambda x: analyze(x, FAMILY, 2),
    "analyze-finite": lambda x: analyze(x, FAMILY, 2, boundary="finite"),
    "stability-periodic": lambda x: check_decomposition_stability(
        x, x, FAMILY, 2),
    "stability-finite": lambda x: check_decomposition_stability(
        x, x, FAMILY, 2, boundary="finite"),
    "pyramid": lambda x: Pyramid(x, [x], FAMILY, 1e-15, "finite",
                                 LEVEL_PARAMS),
    "curve": PlanarCurve,
    "finseq": FinSeq,
    "periodicseq": PeriodicSeq,
    "refine": lambda x: refine(MASK, x),
    "refine-finseq": lambda x: refine(MASK, FinSeq(x, -3)),
    "refine-periodicseq": lambda x: refine(MASK, PeriodicSeq(x)),
    "decimate": lambda x: decimate(FILT, x),
    "decimate-finseq": lambda x: decimate(FILT, FinSeq(x, 5)),
    "decimate-periodicseq": lambda x: decimate(FILT, PeriodicSeq(x)),
}


def check_entry(entry, x):
    """``entry(x)`` raises an NspyrError or gives its float64 form's result."""
    with deadline():
        try:
            got = digest(ENTRIES[entry](x))
        except NspyrError:
            return
    with deadline():
        want = digest(ENTRIES[entry](np.asarray(x, dtype=float)))
    assert got == want


def _with(a, i, value):
    """A float copy of ``a`` with its entry ``i`` (mod size) set to value."""
    out = np.array(a, dtype=float)
    if out.size:
        out.flat[i % out.size] = value
    return out


def _ragged(a):
    rows = a.tolist()
    if a.ndim >= 2 and len(rows) >= 2 and rows[-1]:
        rows[-1] = rows[-1][:-1]
        return rows
    return [*rows, [1.0, 2.0]] if a.ndim else [[1.0], 2.0]


# form name -> function of (base float64 array, drawn index)
FORMS = {
    "float64": lambda a, i: a,
    "float32": lambda a, i: a.astype(np.float32),
    "float16": lambda a, i: a.astype(np.float16),
    "big-endian": lambda a, i: a.astype(">f8"),
    "int": lambda a, i: np.rint(a).astype(np.int64),
    "uint8": lambda a, i: np.abs(np.rint(a)).astype(np.uint8),
    "bool": lambda a, i: a > 0,
    "list": lambda a, i: a.tolist(),
    "int-list": lambda a, i: np.rint(a).astype(int).tolist(),
    "fortran": lambda a, i: np.asfortranarray(a),
    "strided": lambda a, i: np.repeat(a, 2, axis=0)[::2],
    "read-only": lambda a, i: np.frombuffer(a.tobytes()).reshape(a.shape),
    "huge": lambda a, i: a * 1e307,
    "nan": lambda a, i: _with(a, i, math.nan),
    "inf": lambda a, i: _with(a, i, math.inf),
    "-inf-list": lambda a, i: _with(a, i, -math.inf).tolist(),
    "complex": lambda a, i: a + 0j,
    "complex-list": lambda a, i: (a + 1j).tolist(),
    "text": lambda a, i: a.astype(str),
    "text-list": lambda a, i: a.astype(str).tolist(),
    "object": lambda a, i: a.astype(object),
    "huge-int": lambda a, i: [2 ** 70] * max(a.size, 1),
    "none-in-list": lambda a, i: [*a.ravel().tolist(), None],
    "ragged": lambda a, i: _ragged(a),
    "dict": lambda a, i: {"values": a.tolist()},
    "none": lambda a, i: None,
    "finseq-list": lambda a, i: [FinSeq(a.ravel())] * 2,
    "periodicseq-list": lambda a, i: [PeriodicSeq(np.append(a, 1.0))] * 2,
    "3-d": lambda a, i: a[None, None],
    "scalar": lambda a, i: float(a.flat[0]) if a.size else 0.0,
}

SHAPES = [(), (0,), (0, 2), (5,), (8,), (12, 2), (32,), (32, 1), (32, 2),
          (16, 3), (2, 2, 2)]


@st.composite
def zoo(draw):
    shape = draw(st.sampled_from(SHAPES))
    base = draw(hnp.arrays(np.float64, shape, elements=st.floats(
        -8.0, 8.0, allow_nan=False, allow_infinity=False)))
    form = draw(st.sampled_from(sorted(FORMS)))
    return FORMS[form](base, draw(st.integers(0, 1000)))


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(max_examples=60, deadline=None)
@given(x=zoo())
def test_zoo(entry, x):
    check_entry(entry, x)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("form", sorted(FORMS))
def test_every_form_on_valid_data(entry, form):
    # each form once on data that each entry point reads: 32 samples of
    # a planar circle (its x coordinates for the 1-D entry points)
    points = sample_circle(32).points * 3.0
    base = points if entry.startswith(("analyze", "stability", "pyramid",
                                       "curve")) else points[:, 0]
    check_entry(entry, FORMS[form](base, 7))


CIRCLE = sample_circle(16)

# entry point name -> function of one scalar argument
SCALAR_ENTRIES = {
    "ns4pt-theta": NS4Point,
    "nscubic-v-init": NSCubic,
    "conic-v-init": Conic,
    "circle-radius": lambda r: sample_circle(8, r),
    "deviation-radius": lambda r: radial_deviation(CIRCLE, r),
    "wavy-amplitude": lambda a: perturb_wavy(CIRCLE, a, 3),
    "analyze-epsilon": lambda e: analyze(np.ones(8), FAMILY, 1, e),
    "anomaly-epsilon": lambda e: anomaly_flags(CIRCLE, 2, e)[1],
    "anomaly-threshold-ratio": lambda r: anomaly_flags(
        perturb_wavy(CIRCLE, 0.01, 3), 2, 1e-15, r)[1],
    "solve-epsilon": lambda e: solve_gamma(MASK, e),
}

# form name -> function of a float in (0, 1)
SCALAR_FORMS = {
    "float": lambda v: v,
    "float32": np.float32,
    "float64": np.float64,
    "0-d": np.array,
    "bool": lambda v: v > 0.0,
    "int": lambda v: int(v > 0.0),
    "int64": lambda v: np.int64(v > 0.0),
    "huge-int": lambda v: 2 ** 70,
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "-inf-float64": lambda v: np.float64(-math.inf),
    "complex": lambda v: complex(v),
    "complex128": np.complex128,
    "text": str,
    "none": lambda v: None,
    "list": lambda v: [v],
    "tuple": lambda v: (v, v),
    "1-d": lambda v: np.array([v]),
}


@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRIES))
@settings(max_examples=20, deadline=None)
@given(form=st.sampled_from(sorted(SCALAR_FORMS)),
       value=st.floats(1e-9, 0.999, exclude_max=True))
def test_scalar_zoo(entry, form, value):
    # a scalar argument gives what its float gives, bit for bit, or raises
    x = SCALAR_FORMS[form](value)
    with deadline():
        try:
            got = digest(SCALAR_ENTRIES[entry](x))
        except NspyrError:
            return
    with deadline():
        want = digest(SCALAR_ENTRIES[entry](float(np.asarray(x))))
    assert got == want


@pytest.mark.parametrize("form", sorted(SCALAR_FORMS))
def test_every_scalar_form_reaches_the_gate(form):
    x = SCALAR_FORMS[form](0.5)
    try:
        got = _real_scalar(x, "x")
    except NspyrError as exc:
        assert str(exc).startswith("x must ")
        return
    assert type(got) is float and got == float(np.asarray(x))


def _analyzed(x, boundary):
    return analyze(x, FAMILY, 2, boundary=boundary)


PERIODIC = np.linspace(-1.0, 1.0, 32)

# The probes that hung or raised a bare error before the gate.
PROBES = {
    "analyze-finseq-list": (
        lambda: _analyzed([FinSeq([1.0, 2.0])] * 2, "finite"),
        BadParamsError, "rectangular"),
    "analyze-periodicseq-list": (
        lambda: _analyzed([PeriodicSeq(PERIODIC)] * 2, "periodic"),
        BadParamsError, "rectangular"),
    "analyze-empty-period": (
        lambda: _analyzed(np.zeros((0, 2)), "periodic"),
        BadParamsError, "period must be at least 1"),
    "analyze-complex": (lambda: _analyzed(PERIODIC + 0j, "periodic"),
                        DomainError, "real"),
    "curve-complex": (lambda: PlanarCurve(sample_circle(8).points + 1j),
                      DomainError, "real"),
    "finseq-complex": (lambda: FinSeq([1.0 + 2.0j]), DomainError, "real"),
    "pyramid-complex": (
        lambda: Pyramid(np.ones((4, 2)) + 0j, [np.ones((4, 2))], FAMILY,
                        1e-15, "finite", LEVEL_PARAMS),
        DomainError, "real"),
    "analyze-string": (lambda: _analyzed("abc", "periodic"),
                       BadParamsError, "numbers"),
    "analyze-ragged": (lambda: _analyzed([[1.0, 2.0], [3.0]], "finite"),
                       BadParamsError, "rectangular"),
    "analyze-dict": (lambda: _analyzed({"a": 1.0}, "finite"),
                     BadParamsError, "numbers"),
    "finseq-string": (lambda: FinSeq("abc"), BadParamsError, "numbers"),
    "curve-dict": (lambda: PlanarCurve({"a": 1.0}), BadParamsError,
                   "numbers"),
    "curve-ragged": (lambda: PlanarCurve([[1.0, 2.0], [3.0]]),
                     BadParamsError, "rectangular"),
    "pyramid-string": (
        lambda: Pyramid("abc", [], FAMILY, 1e-15, "finite", ()),
        ShapeMismatchError, "numbers"),
    "refine-ndarray": (lambda: refine(MASK, np.ones(8)), BadParamsError,
                       "refine needs a FinSeq or PeriodicSeq"),
    "decimate-ndarray": (lambda: decimate(FILT, np.ones(8)), BadParamsError,
                         "decimate needs a FinSeq or PeriodicSeq"),
    "mask-ndarray": (lambda: type(MASK)(np.array([0.5, 1.0, 0.5])),
                     BadParamsError, "mask taps must be a FinSeq"),
    # scalar arguments
    "circle-inf-radius": (lambda: sample_circle(8, math.inf), DomainError,
                          "^radius must be finite"),
    "circle-text-center": (lambda: sample_circle(8, 1.0, ("a", 0)),
                           BadParamsError, "^center must"),
    "nscubic-complex": (lambda: NSCubic(1j), DomainError,
                        "^v_init must be real"),
    "ns4pt-text": (lambda: NS4Point("x"), BadParamsError,
                   "^theta must be a real number"),
    "conic-nan": (lambda: Conic(math.nan), DomainError,
                  "^v_init must be finite"),
    "wavy-text-amplitude": (lambda: perturb_wavy(CIRCLE, "x", 3),
                            BadParamsError, "^amplitude must be a real"),
    "deviation-3-d-center": (lambda: radial_deviation(CIRCLE, 1.0, (0, 0, 0)),
                             BadParamsError, "^center must be two"),
    "deviation-negative-radius": (
        lambda: radial_deviation(sample_circle(8), -1.0), BadParamsError,
        r"^radius must be positive, got -1\.0"),
    "deviation-zero-radius": (lambda: radial_deviation(CIRCLE, 0),
                              BadParamsError, "^radius must be positive"),
    # other arguments that are not arrays
    "analyze-none-family": (lambda: analyze(np.ones(8), None, 1),
                            BadParamsError, "^family must be a SchemeFamily"),
    "analyze-list-epsilon": (
        lambda: analyze(np.ones(8), FAMILY, 1, epsilon=[1e-15]),
        BadParamsError, "^epsilon must be a real number"),
    "analyze-text-epsilon": (
        lambda: analyze(np.ones(8), FAMILY, 1, epsilon="x"),
        BadParamsError, "^epsilon must be a real number"),
    "solve-text-epsilon": (lambda: solve_gamma(MASK, "x"), BadParamsError,
                           "^epsilon must be a real number"),
    "pyramid-none-details": (
        lambda: Pyramid(np.ones((4, 1)), None, FAMILY, 1e-15, "periodic",
                        []),
        ShapeMismatchError, "^details must be a sequence"),
    "pyramid-none-level-params": (
        lambda: Pyramid(np.ones((4, 1)), [], FAMILY, 1e-15, "periodic",
                        None),
        ShapeMismatchError, "^level_params must be a sequence"),
    "pyramid-level-params-of-none": (
        lambda: Pyramid(np.ones((4, 1)), [np.ones((8, 1))], FAMILY, 1e-15,
                        "periodic", [None]),
        ShapeMismatchError, "^level_params must hold LevelParams"),
    "pyramid-none-family": (
        lambda: Pyramid(np.ones((4, 1)), [], None, 1e-15, "periodic", []),
        BadParamsError, "^family must be a SchemeFamily"),
    "pyramid-text-epsilon": (
        lambda: Pyramid(np.ones((4, 1)), [], FAMILY, "x", "periodic", []),
        BadParamsError, "^epsilon must be a real number"),
    # finite input whose subtraction step overflows, not its kernels
    "analyze-overflowing-subtraction": (
        lambda: _analyzed(np.array([3e307, -3e307, -3e307, -3e307, 7e307]
                                   + [-3e307] * 27), "periodic"),
        DomainError, "^pyramid coefficients must be finite"),
    # operator, report and curve arguments of the wrong type
    "solve-none-mask": (lambda: solve_gamma(None), BadParamsError,
                        "^mask must be a Mask, got NoneType"),
    "refine-none-mask": (lambda: refine(None, FinSeq([1.0])), BadParamsError,
                         "^mask must be a Mask"),
    "decimate-none-filter": (lambda: decimate(None, FinSeq([1.0])),
                             BadParamsError,
                             "^filt must be a DecimationFilter"),
    "synthesize-none": (lambda: synthesize(None), BadParamsError,
                        "^pyramid must be a Pyramid"),
    "synthesize-array-none": (lambda: synthesize_array(None), BadParamsError,
                              "^pyramid must be a Pyramid"),
    "decay-report-none": (lambda: detail_decay_report(None), BadParamsError,
                          "^pyramid must be a Pyramid"),
    "detail-bound-none": (lambda: detail_bound(None, 1.0), BadParamsError,
                          "^pyramid must be a Pyramid"),
    "detail-bound-text": (
        lambda: detail_bound(_analyzed(PERIODIC, "periodic"), "x"),
        BadParamsError, "^fprime_inf must be a real number"),
    "detail-bound-negative": (
        lambda: detail_bound(_analyzed(PERIODIC, "periodic"), -1.0),
        BadParamsError, "^fprime_inf must be nonnegative, got -1.0"),
    "anomaly-negative-threshold-ratio": (
        lambda: anomaly_flags(CIRCLE, 2, threshold_ratio=-5.0),
        BadParamsError, "^threshold_ratio must be nonnegative, got -5.0"),
    "localize-negative-threshold-ratio": (
        lambda: anomaly_localize(CIRCLE, 2, threshold_ratio=-1e-300),
        BadParamsError, "^threshold_ratio must be nonnegative"),
    "refine-n-none-family": (lambda: refine_n(None, FinSeq([1.0]), 1),
                             BadParamsError, "^family must be a SchemeFamily"),
    "circularity-of-points": (lambda: circularity_report(CIRCLE.points, 2),
                              BadParamsError,
                              "^curve must be a PlanarCurve, got ndarray"),
    "residual-check-none": (lambda: residual_check(None, None),
                            BadParamsError, "^filt must be a DecimationFilter"),
    "residual-check-none-mask": (lambda: residual_check(FILT, None),
                                 BadParamsError, "^mask must be a Mask"),
    "operator-norm-none": (lambda: operator_norm_inf(None), BadParamsError,
                           "^mask must be a Mask"),
    "norm-l1-none": (lambda: norm_l1(None), BadParamsError,
                     "^c must be a FinSeq or PeriodicSeq"),
    "filter-metadata-none": (lambda: filter_metadata(None), BadParamsError,
                             "^filt must be a DecimationFilter"),
    "stability-bound-none": (lambda: reconstruction_stability_bound(None, 2),
                             BadParamsError, "^family must be a SchemeFamily"),
    "stability-bound-float": (
        lambda: reconstruction_stability_bound(FAMILY, 2.5), BadParamsError,
        "^levels must be an integer"),
    "stability-bound-no-level": (
        lambda: reconstruction_stability_bound(FAMILY, 0), BadParamsError,
        "^need at least one level"),
    "write-curve-none": (lambda: write_curve_csv(os.devnull, None),
                         BadParamsError, "^curve must be a PlanarCurve"),
    "deviation-none": (lambda: radial_deviation(None, 1.0), BadParamsError,
                       "^curve must be a PlanarCurve"),
    "wavy-none": (lambda: perturb_wavy(None, 0.1, 3), BadParamsError,
                  "^curve must be a PlanarCurve"),
    "wavy-float-frequency": (lambda: perturb_wavy(CIRCLE, 0.01, 7.0),
                             BadParamsError, "^frequency must be an integer"),
    "quadrant-float": (lambda: quadrant_window(3.5), BadParamsError,
                       "^curve_n must be an integer"),
    # unhashable arguments reach the type gates
    "opnorm-list-mask": (
        lambda: residual_operator_norm_estimate([1.0], [2.0]),
        BadParamsError, "^mask must be a Mask"),
    "opnorm-list-filt": (
        lambda: residual_operator_norm_estimate(MASK, [2.0]),
        BadParamsError, "^filt must be a DecimationFilter"),
    "v-next-text": (lambda: v_next("x"), BadParamsError,
                    "^v must be a real number"),
    "conic-params-text": (lambda: conic_params("x"), BadParamsError,
                          "^v must be a real number"),
    # a pyramid whose level operators are not its family's
    "pyramid-other-family": (
        lambda: Pyramid(*(lambda p: (p.coarse, p.details, NSCubic(0.5),
                                     1e-10, "periodic", p.level_params))(
            analyze(np.sin(np.arange(32.0)), Conic(math.cos(math.pi / 4)),
                    2))),
        ShapeMismatchError, r"^level_params\[0\] mask taps differ"),
    # levels that are not integers
    "detail-float-level": (
        lambda: _analyzed(PERIODIC, "periodic").detail(1.5), BadParamsError,
        r"^level must be an integer, got 1\.5"),
    "detail-array-float-level": (
        lambda: _analyzed(PERIODIC, "periodic").detail_array(1.5),
        BadParamsError, "^level must be an integer"),
    "detail-norms-text-level": (
        lambda: _analyzed(PERIODIC, "periodic").detail_norms("1"),
        BadParamsError, "^level must be an integer, got '1'"),
    "nscubic-float-level": (lambda: NSCubic(0.5).mask_at_level(1.5),
                            BadParamsError, "^level must be an integer"),
    "conic-float-level": (lambda: Conic(0.5).mask_at_level(1.5),
                          BadParamsError, "^level must be an integer"),
    "tension-text-level": (lambda: NSCubic(0.5).tension_at_level("1"),
                           BadParamsError, "^level must be an integer"),
    "ns4pt-text-level": (lambda: NS4Point(0.3).mask_at_level("1"),
                         BadParamsError, "^level must be an integer"),
    "stationary-text-level": (
        lambda: cubic_bspline_family().mask_at_level("1"), BadParamsError,
        "^level must be an integer"),
    "conic-family-negative-levels": (lambda: conic_family_for(256, -1),
                                     BadParamsError,
                                     "^need at least one level"),
    # arguments that would be written to a file that does not load back
    "stationary-int-name": (
        lambda: Stationary(cubic_bspline_family().taps, name=5),
        BadParamsError, "^name must be a str, got int"),
    "stationary-none-name": (
        lambda: Stationary(cubic_bspline_family().taps, name=None),
        BadParamsError, "^name must be a str, got NoneType"),
    "curve-text-closed": (
        lambda: PlanarCurve(sample_circle(8).points, closed="no"),
        BadParamsError, "^closed must be a bool, got 'no'"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_raises_typed_error_at_once(probe):
    call, error, match = PROBES[probe]
    with deadline(), pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("closed", [np.True_, np.False_])
def test_numpy_bool_closed_is_kept_as_a_python_bool(closed):
    curve = PlanarCurve(sample_circle(8).points, closed=closed)
    assert type(curve.closed) is bool and curve.closed == closed


def test_zero_threshold_ratio_and_derivative_bound_are_valid():
    # 0 flags every norm above the 1e-10 floor; a zero derivative bound
    # bounds every level's details by 0
    wavy = perturb_wavy(CIRCLE, 0.01, 3)
    flags, threshold = anomaly_flags(wavy, 2, threshold_ratio=0.0)
    assert threshold == 1e-10 and flags.any()
    assert anomaly_localize(wavy, 2, threshold_ratio=0) == [(1, 15)]
    assert detail_bound(_analyzed(PERIODIC, "periodic"), 0.0) == [0.0, 0.0]


# A circle scaled far enough that the squares of its coordinates, and of
# its detail coefficients, overflow; analysis commutes with the power of
# two, so the norms scale exactly.
SCALE = 2.0 ** 900


@pytest.mark.parametrize("entry", [
    lambda c: curve_pyramid(c, 2).detail_norms(2),
    lambda c: np.array(detail_decay_report(curve_pyramid(c, 2)).per_level_inf),
    lambda c: np.array(circularity_report(c, 2).verdict_scale),
    lambda c: np.array(anomaly_flags(c, 2)[1]),
], ids=["detail-norms", "decay-report", "circularity", "anomaly-threshold"])
def test_norms_of_huge_curves_scale_exactly(entry):
    curve = perturb_wavy(sample_circle(64), 0.01, 3)
    with deadline():
        huge = entry(PlanarCurve(curve.points * SCALE))
    assert np.array_equal(huge, entry(curve) * SCALE)


def test_huge_curve_gives_finite_scores():
    curve = PlanarCurve(sample_circle(64).points * 1e300)
    with deadline():
        assert np.isfinite(curve_pyramid(curve, 2).detail_norms(2)).all()
        assert math.isfinite(circularity_report(curve, 2).verdict_scale)
        assert math.isfinite(anomaly_flags(curve, 2)[1])


def overflowing_pyramid(boundary):
    """A valid pyramid of blocks of 1.5e308, whose synthesis overflows."""
    p = analyze(np.ones(64), NSCubic(0.5), 2, boundary=boundary)
    return Pyramid(np.full_like(p.coarse, 1.5e308),
                   [np.full_like(d, 1.5e308) for d in p.details], p.family,
                   p.epsilon, p.boundary, p.level_params, p.offsets,
                   p.support)


@pytest.mark.parametrize("boundary", ["periodic", "finite"])
@pytest.mark.parametrize("entry", [
    synthesize, synthesize_array,
    lambda p: check_reconstruction_stability(p, p),
], ids=["synthesize", "synthesize-array", "reconstruction-stability"])
def test_synthesis_overflow_raises_domain_error(entry, boundary):
    pyramid = overflowing_pyramid(boundary)
    with deadline(), pytest.raises(
            DomainError, match="^synthesized values must be finite: found "
                               "NaN or infinity$"):
        entry(pyramid)


@pytest.mark.parametrize("entry", [anomaly_flags, anomaly_localize])
def test_overflowing_finest_details_raise_as_curve_pyramid(entry):
    # the finest analysis step of this curve overflows
    curve = PlanarCurve(perturb_wavy(sample_circle(64), 0.05, 5).points
                        * 1.7e308)
    with pytest.raises(DomainError) as expected:
        curve_pyramid(curve, 2)
    with deadline(), pytest.raises(DomainError) as got:
        entry(curve, 2)
    assert str(got.value) == str(expected.value)


FAMILIES = [Conic(math.cos(math.pi / 4)), Conic(0.9), NSCubic(0.5),
            NS4Point(0.3), cubic_bspline_family()]


@settings(max_examples=40, deadline=None)
@given(analyzed_with=st.sampled_from(FAMILIES),
       built_with=st.sampled_from(FAMILIES),
       boundary=st.sampled_from(["periodic", "finite"]),
       levels=st.integers(1, 3), numpy_levels=st.booleans())
def test_every_constructed_pyramid_round_trips(analyzed_with, built_with,
                                               boundary, levels,
                                               numpy_levels):
    # the constructor refuses operators that are not the family's, so what
    # it accepts, loading accepts too, bit for bit
    p = analyze(np.sin(np.arange(64.0)), analyzed_with, levels,
                boundary=boundary)
    level_params = [LevelParams(Mask(lp.mask.taps, np.int64(lp.mask.level),
                                     lp.mask.family_id)
                                if numpy_levels else lp.mask, lp.filt)
                    for lp in p.level_params]
    with deadline():
        try:
            q = Pyramid(p.coarse, p.details, built_with, p.epsilon,
                        p.boundary, level_params, p.offsets, p.support)
        except ShapeMismatchError as exc:
            assert str(exc).startswith("level_params[0] mask taps differ")
            assert built_with != analyzed_with
            return
        assert Pyramid.from_json(q.to_json()).to_json() == q.to_json()


@pytest.mark.parametrize("seq", [FinSeq([1.0, 2.0]), PeriodicSeq([1.0, 2.0])])
def test_sequences_are_not_iterable(seq):
    # __getitem__ answers every index, so Python's fallback iteration
    # would never stop
    with deadline(), pytest.raises(TypeError, match="not iterable"):
        list(seq)


def test_empty_finite_input_is_accepted():
    with deadline():
        p = _analyzed(np.zeros((0, 2)), "finite")
    assert synthesize_array(p).shape == (0, 2)


def test_gate_keeps_float64_arrays_and_converts_the_rest():
    a = np.arange(6.0).reshape(3, 2)
    assert _real_array(a, "x") is a
    assert _real_array([1, 2], "x").dtype == np.float64
    assert np.isnan(_real_array([math.nan], "x", finite=False)).all()
    with pytest.raises(ShapeMismatchError, match="^x must form"):
        _real_array([[1.0], []], "x", ShapeMismatchError)
