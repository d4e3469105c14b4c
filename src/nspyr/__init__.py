"""Nonstationary subdivision pyramids.

Level-dependent subdivision refinement, reverse decimation filters
obtained by inverting the mask's even part, exactly invertible
multiscale transforms built from the two, and a planar-geometry suite
that scores circularity and localizes anomalies on closed curves.
"""

from .errors import (
    BadParamsError,
    DegenerateParameterError,
    DomainError,
    EmptyEvenPartError,
    NoConvergenceError,
    NspyrError,
    OddPeriodError,
    PeriodNotDivisibleError,
    PeriodTooShortError,
    ShapeMismatchError,
    SymbolZeroOnCircleError,
)
from .sequences import (
    FinSeq,
    PeriodicSeq,
    delta,
    k_const,
    norm_l1,
    read_sequence_csv,
    write_sequence_csv,
)
from .subdivision import (
    Conic,
    Mask,
    NS4Point,
    NSCubic,
    SchemeFamily,
    Stationary,
    conic_params,
    cubic_bspline_family,
    cubic_bspline_mask,
    family_from_description,
    operator_norm_inf,
    refine,
    refine_n,
    v_next,
)
from .decimation import (
    DecimationFilter,
    decimate,
    filter_metadata,
    residual_check,
    solve_gamma,
    write_filter_csv,
)
from .pyramid import (
    DetailDecayReport,
    LevelParams,
    Pyramid,
    analyze,
    check_decomposition_stability,
    check_reconstruction_stability,
    detail_bound,
    detail_decay_report,
    reconstruction_stability_bound,
    residual_operator_norm_estimate,
    synthesize,
    synthesize_array,
)
from .geometry import (
    PlanarCurve,
    WAVY_PRESETS,
    anomaly_flags,
    anomaly_localize,
    circularity_report,
    conic_family_for,
    curve_pyramid,
    perturb_quadrant,
    perturb_wavy,
    quadrant_window,
    radial_deviation,
    read_curve_csv,
    sample_circle,
    write_curve_csv,
)

__version__ = "0.1.0"
