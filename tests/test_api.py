"""The public names of the package, pinned.

Adding or removing a public name changes this list on purpose; the
count it holds is the API count the change log reports.
"""

import types

import nspyr

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
