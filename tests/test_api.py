"""The public names of the package, pinned, and how they read integers.

Adding or removing a public name changes this list on purpose; the
count it holds is the API count the change log reports.
"""

import types

import numpy as np
import pytest

import nspyr
from nspyr import (BadParamsError, FinSeq, NSCubic, Pyramid,
                   ShapeMismatchError, analyze, conic_family_for, refine_n,
                   sample_circle)

PUBLIC_NAMES = [
    "BadParamsError", "CircularityReport", "Conic", "DecimationFilter",
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
    assert len(PUBLIC_NAMES) == 65


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
], ids=["finseq-float-offset", "finseq-string-offset", "pyramid-offsets",
        "analyze-levels", "conic-family-levels", "conic-family-count",
        "sample-circle", "refine-n-steps"])
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
