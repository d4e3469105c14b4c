"""The public names of the package and their parameters, pinned, and how
they read integers.

Adding or removing a public name or a parameter changes these lists on
purpose; the counts they hold are the API and settings counts the change
log reports.
"""

import dataclasses
import inspect
import types

import numpy as np
import pytest

import nspyr
from nspyr import (BadParamsError, FinSeq, Mask, NSCubic, Pyramid,
                   ShapeMismatchError, analyze, conic_family_for, refine_n,
                   sample_circle, svgplot)

PUBLIC_NAMES = [
    "BadParamsError", "Conic", "DecimationFilter",
    "DegenerateParameterError", "DetailDecayReport", "DomainError",
    "EmptyEvenPartError", "FinSeq", "LevelParams", "Mask",
    "NS4Point", "NSCubic", "NoConvergenceError", "NspyrError",
    "OddPeriodError", "PeriodNotDivisibleError", "PeriodTooShortError",
    "PeriodicSeq", "PlanarCurve", "Pyramid", "SchemeFamily",
    "ShapeMismatchError", "Stationary", "SymbolZeroOnCircleError",
    "WAVY_PRESETS", "analyze", "anomaly_flags", "anomaly_localize",
    "check_decomposition_stability", "check_reconstruction_stability",
    "circularity_report", "conic_family_for", "conic_params",
    "cubic_bspline_family", "cubic_bspline_mask", "curve_pyramid",
    "decimate", "delta", "detail_bound", "detail_decay_report",
    "family_from_description", "filter_metadata", "k_const",
    "norm_l1", "operator_norm_inf", "perturb_quadrant", "perturb_wavy",
    "quadrant_window", "radial_deviation", "read_curve_csv",
    "read_sequence_csv", "reconstruction_stability_bound", "refine",
    "refine_n", "residual_check", "residual_operator_norm_estimate",
    "sample_circle", "solve_gamma", "synthesize", "synthesize_array",
    "v_next", "write_curve_csv", "write_filter_csv", "write_sequence_csv",
]


def test_public_names_are_pinned():
    # submodules are reachable as attributes too, but are not API names
    names = sorted(name for name, value in vars(nspyr).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 64


# The parameters of every public callable that has a signature (not the
# exception types) and of every svgplot function; a trailing "=" marks a
# parameter with a default, a setting a caller may leave out.
PARAMETERS = {
    "Conic": "v_init",
    "DecimationFilter":
        "zeta gamma_raw epsilon residual_l1 decay_C decay_lambda",
    "DetailDecayReport": "per_level_inf per_level_l1 per_level_avg_l2",
    "FinSeq": "coeffs= offset=",
    "LevelParams": "mask filt",
    "Mask": "taps level= family_id=",
    "NS4Point": "theta=",
    "NSCubic": "v_init=",
    "PeriodicSeq": "values",
    "PlanarCurve": "points closed=",
    "Pyramid": "coarse details family epsilon boundary level_params "
               "offsets= support=",
    "SchemeFamily": "",
    "Stationary": "taps name=",
    "analyze": "data family levels epsilon= boundary=",
    "anomaly_flags": "curve levels epsilon= threshold_ratio=",
    "anomaly_localize": "curve levels epsilon= threshold_ratio=",
    "check_decomposition_stability":
        "data data_tilde family levels epsilon= boundary=",
    "check_reconstruction_stability": "pyramid perturbed",
    "circularity_report": "curve levels epsilon=",
    "conic_family_for": "curve_n levels",
    "conic_params": "v",
    "cubic_bspline_family": "",
    "cubic_bspline_mask": "",
    "curve_pyramid": "curve levels epsilon=",
    "decimate": "filt c",
    "delta": "",
    "detail_bound": "pyramid fprime_inf",
    "detail_decay_report": "pyramid",
    "family_from_description": "desc",
    "filter_metadata": "filt",
    "k_const": "c",
    "norm_l1": "c",
    "operator_norm_inf": "mask",
    "perturb_quadrant": "curve amplitude frequency",
    "perturb_wavy": "curve amplitude frequency",
    "quadrant_window": "curve_n",
    "radial_deviation": "curve radius center=",
    "read_curve_csv": "path",
    "read_sequence_csv": "path",
    "reconstruction_stability_bound": "family levels",
    "refine": "mask c",
    "refine_n": "family c steps",
    "residual_check": "filt mask",
    "residual_operator_norm_estimate": "mask filt",
    "sample_circle": "n radius= center=",
    "solve_gamma": "mask epsilon=",
    "synthesize": "pyramid",
    "synthesize_array": "pyramid",
    "v_next": "v",
    "write_curve_csv": "path curve",
    "write_filter_csv": "path filt",
    "write_sequence_csv": "path c",
    "svgplot.bar_chart_svg": "values title=",
    "svgplot.curve_overlay_svg": "points coarse_points= title=",
    "svgplot.index_profile_svg": "values title=",
    "svgplot.log_lines_svg": "series title=",
}


def test_parameters_are_pinned():
    callables = {name: getattr(nspyr, name) for name in PUBLIC_NAMES}
    callables.update(
        (f"svgplot.{name}", value) for name, value in vars(svgplot).items()
        if inspect.isfunction(value) and not name.startswith("_")
        and value.__module__ == svgplot.__name__)
    found = {}
    for name, value in callables.items():
        try:
            params = inspect.signature(value).parameters.values()
        except (TypeError, ValueError):  # WAVY_PRESETS, exception types
            continue
        found[name] = " ".join(
            p.name + ("=" if p.default is not p.empty else "") for p in params)
    assert found == PARAMETERS
    assert sum(p.count("=") for p in PARAMETERS.values()) == 29


# The fields, then after "|" the properties, of the result types that
# public functions return; the stability types are not exported.
RESULT_TYPES = {
    "DetailDecayReport": "per_level_inf per_level_l1 per_level_avg_l2 "
                         "| levels ratios verdict_scale",
    "StabilityCheck": "lhs rhs | holds slack",
    "LevelStability": "lhs rhs level opnorm_upper opnorm_lower_estimate "
                      "| holds slack",
    "DecompositionStability": "coarse per_level | holds",
}


def test_result_types_are_pinned():
    found = {}
    for name in RESULT_TYPES:
        cls = getattr(nspyr.pyramid, name)
        props = sorted(attr for attr in dir(cls)
                       if isinstance(getattr(cls, attr), property))
        found[name] = " ".join(
            [f.name for f in dataclasses.fields(cls)] + ["|"] + props)
    assert found == RESULT_TYPES


def finite_pyramid():
    return analyze(np.arange(1.0, 9.0), NSCubic(0.5), 1, boundary="finite")


# Each integer argument is read by operator.index: a float or a string is
# refused with the typed error naming the argument, not truncated, and not
# left to fail later with a bare TypeError.
@pytest.mark.parametrize("call, name, error", [
    (lambda: FinSeq([1.0, 2.0], 0.5), "offset", BadParamsError),
    (lambda: FinSeq([1.0], "3"), "offset", BadParamsError),
    (lambda: Pyramid(*(lambda p: (p.coarse, p.details, p.family, p.epsilon,
                                  p.boundary, p.level_params))(
        finite_pyramid()), offsets=[0.7, 1.9]),
     "offsets", ShapeMismatchError),
    (lambda: analyze(np.ones(8), NSCubic(0.5), 2.5), "levels",
     BadParamsError),
    (lambda: conic_family_for(64, 2.5), "levels", BadParamsError),
    (lambda: conic_family_for(64.0, 2), "curve_n", BadParamsError),
    (lambda: sample_circle(4.5), "n", BadParamsError),
    (lambda: refine_n(NSCubic(0.5), FinSeq([1.0]), 1.5), "steps",
     BadParamsError),
    (lambda: Mask(FinSeq([0.5, 1.0, 0.5], -1), level=2.7), "level",
     BadParamsError),
], ids=["finseq-float-offset", "finseq-string-offset", "pyramid-offsets",
        "analyze-levels", "conic-family-levels", "conic-family-count",
        "sample-circle", "refine-n-steps", "mask-level"])
def test_integer_arguments(call, name, error):
    with pytest.raises(error, match=f"^{name} must be an integer, got "):
        call()


def test_numpy_integers_are_integers():
    assert FinSeq([1.0], np.int64(3)).offset == 3
    assert type(FinSeq([1.0], np.int64(3)).offset) is int
    assert sample_circle(np.int32(8)).n == 8
    assert conic_family_for(np.int64(64), np.int64(2)) == conic_family_for(
        64, 2)
    assert refine_n(NSCubic(0.5), FinSeq([1.0]), np.int64(2)) == refine_n(
        NSCubic(0.5), FinSeq([1.0]), 2)
