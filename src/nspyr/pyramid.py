"""Multiscale analysis and synthesis with level-dependent operators.

Analysis peels a fine sequence ``c^(J)`` down to a coarse sequence plus
per-level residuals:

    c^(l-1) = D_l c^(l),    d^(l) = c^(l) - S_l c^(l-1),   l = J..1,

where ``S_l`` refines with the family's step-l mask and ``D_l`` applies
that mask's reverse decimation filter (plain downsampling when the mask
is interpolating).  Synthesis inverts exactly by construction:

    c^(l) = S_l c^(l-1) + d^(l),   l = 1..J.

Planar (or any vector-valued) data uses the same filters for every
component: periodic data runs through each level as one ``(N, D)`` block,
finite data component by component.  Reported coefficient norms are
Euclidean across components.  Executable forms of the decay and stability
estimates for these transforms are provided as bound evaluators and
checkers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .decimation import (
    DecimationFilter,
    _decimate_block,
    decimate,
    solve_gamma,
)
from .errors import (
    BadParamsError,
    DomainError,
    PeriodNotDivisibleError,
    ShapeMismatchError,
)
from .sequences import (
    FinSeq,
    PeriodicSeq,
    add,
    k_const,
    norm_l1,
    subtract,
)
from .subdivision import (
    Mask,
    SchemeFamily,
    _refine_block,
    family_from_description,
    operator_norm_inf,
    refine,
)

DEFAULT_EPSILON = 1e-15


@dataclass(frozen=True)
class LevelParams:
    """Mask/filter pair used at one pyramid level (1-based)."""

    level: int
    mask: Mask
    filt: DecimationFilter


def _input_array(data, boundary: str):
    """Validate input data; returns it as an ``(N, D)`` array plus offset.

    The offset is the index of the first row: a :class:`FinSeq` input
    keeps its own, an array starts at 0.
    """
    if isinstance(data, (FinSeq, PeriodicSeq)):
        kind = "periodic" if isinstance(data, PeriodicSeq) else "finite"
        if kind != boundary:
            raise BadParamsError(
                f"{type(data).__name__} input conflicts with "
                f"boundary={boundary!r}")
        if kind == "periodic":
            arr, offset = data.values[:, None], 0
        else:
            arr, offset = data.coeffs[:, None], data.offset
    else:
        if boundary not in ("periodic", "finite"):
            raise BadParamsError(f"unknown boundary mode {boundary!r}")
        arr, offset = np.asarray(data, dtype=float), 0
        if arr.ndim == 1:
            arr = arr[:, None]
        elif arr.ndim != 2:
            raise BadParamsError(
                "data must be 1-D or 2-D (samples x components)")
    if not np.isfinite(arr).all():
        raise DomainError("input data must be finite: found NaN or infinity")
    return arr, offset


def _as_components(data, boundary: str):
    """Normalize input into a tuple of scalar sequence components."""
    arr, offset = _input_array(data, boundary)
    if boundary == "periodic":
        return _periodic_components(arr)
    return tuple(FinSeq(col, offset) for col in arr.T)


def _periodic_components(block: np.ndarray):
    """One :class:`PeriodicSeq` per column of an ``(N, D)`` block."""
    return tuple(PeriodicSeq(col) for col in block.T)


def _stack(components):
    """Align components on a common index range; returns (array, offset).

    Periodic components stack directly.  Finite components are padded
    with zeros onto the union of their supports, so trimming differences
    between components cannot misalign them.
    """
    if isinstance(components[0], PeriodicSeq):
        arr = np.stack([c.values for c in components], axis=1)
        return arr, 0
    nonempty = [c for c in components if not c.is_empty]
    if not nonempty:
        return np.zeros((0, len(components))), 0
    lo = min(c.offset for c in nonempty)
    hi = max(c.offset + len(c) for c in nonempty)
    arr = np.zeros((hi - lo, len(components)))
    for d, c in enumerate(components):
        if not c.is_empty:
            arr[c.offset - lo: c.offset - lo + len(c), d] = c.coeffs
    return arr, lo


class Pyramid:
    """Coarse sequence plus detail levels and full operator provenance."""

    __slots__ = ("coarse", "details", "family", "epsilon", "boundary",
                 "level_params")

    def __init__(self, coarse, details, family: SchemeFamily, epsilon: float,
                 boundary: str, level_params):
        self.coarse = tuple(coarse)
        self.details = tuple(tuple(lvl) for lvl in details)
        self.family = family
        self.epsilon = float(epsilon)
        self.boundary = str(boundary)
        self.level_params = tuple(level_params)
        ncomp = len(self.coarse)
        for lvl in self.details:
            if len(lvl) != ncomp:
                raise ShapeMismatchError(
                    "detail component count differs from coarse")

    @property
    def levels(self) -> int:
        return len(self.details)

    @property
    def n_components(self) -> int:
        return len(self.coarse)

    def detail(self, level: int):
        """Components of d^(level), 1-based."""
        if not 1 <= level <= self.levels:
            raise BadParamsError(f"level {level} outside 1..{self.levels}")
        return self.details[level - 1]

    def coarse_array(self):
        arr, _ = _stack(self.coarse)
        return arr[:, 0] if self.n_components == 1 else arr

    def detail_array(self, level: int):
        arr, _ = _stack(self.detail(level))
        return arr[:, 0] if self.n_components == 1 else arr

    def detail_norms(self, level: int) -> np.ndarray:
        """Per-coefficient Euclidean norms of d^(level)."""
        arr, _ = _stack(self.detail(level))
        return np.sqrt((arr * arr).sum(axis=1))

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        def seq_entry(comps):
            arr, offset = _stack(comps)
            values = arr.tolist() if len(comps) > 1 else arr[:, 0].tolist()
            return values, offset

        coarse_values, coarse_offset = seq_entry(self.coarse)
        details = []
        level_params = []
        for lp in self.level_params:
            dvals, doff = seq_entry(self.detail(lp.level))
            details.append(dvals)
            entry = {
                "level": lp.level,
                "mask_offset": lp.mask.taps.offset,
                "mask_taps": lp.mask.taps.coeffs.tolist(),
                "mask_family": lp.mask.family_id,
                "zeta_offset": lp.filt.zeta.offset,
                "zeta_taps": lp.filt.zeta.coeffs.tolist(),
                "gamma_offset": lp.filt.gamma_raw.offset,
                "gamma_taps": lp.filt.gamma_raw.coeffs.tolist(),
                "epsilon": lp.filt.epsilon,
                "residual_l1": lp.filt.residual_l1,
                "decay_C": lp.filt.decay_C,
                "decay_lambda": lp.filt.decay_lambda,
                "detail_offset": doff,
            }
            if lp.level == 1:
                entry["coarse_offset"] = coarse_offset
            level_params.append(entry)
        return {
            "family": self.family.describe(),
            "epsilon": self.epsilon,
            "boundary": self.boundary,
            "coarse": coarse_values,
            "details": details,
            "level_params": level_params,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Pyramid":
        family = family_from_description(doc["family"])
        boundary = doc["boundary"]
        epsilon = doc["epsilon"]

        def to_components(values, offset):
            arr = np.asarray(values, dtype=float)
            cols = [arr] if arr.ndim == 1 else [arr[:, d]
                                                for d in range(arr.shape[1])]
            if boundary == "periodic":
                return tuple(PeriodicSeq(col) for col in cols)
            return tuple(FinSeq(col, offset) for col in cols)

        params = sorted(doc["level_params"], key=lambda e: e["level"])
        if len(doc["details"]) != len(params):
            raise ShapeMismatchError(
                f"pyramid document has {len(doc['details'])} detail levels "
                f"but {len(params)} level_params entries")
        coarse_offset = params[0].get("coarse_offset", 0) if params else 0
        coarse = to_components(doc["coarse"], coarse_offset)
        details = []
        level_params = []
        for entry, dvals in zip(params, doc["details"]):
            mask = Mask(FinSeq(entry["mask_taps"], entry["mask_offset"]),
                        level=entry["level"] - 1,
                        family_id=entry.get("mask_family", family.family_id),
                        check_parity=False)
            gamma = FinSeq(entry["gamma_taps"], entry["gamma_offset"])
            filt = DecimationFilter(
                zeta=FinSeq(entry["zeta_taps"], entry["zeta_offset"]),
                gamma_raw=gamma,
                epsilon=entry["epsilon"],
                residual_l1=entry["residual_l1"],
                decay_C=entry["decay_C"],
                decay_lambda=entry["decay_lambda"])
            details.append(to_components(dvals, entry["detail_offset"]))
            level_params.append(LevelParams(entry["level"], mask, filt))
        return cls(coarse, details, family, epsilon, boundary, level_params)

    @classmethod
    def from_json(cls, text: str) -> "Pyramid":
        return cls.from_json_dict(json.loads(text))


def analyze(data, family: SchemeFamily, levels: int,
            epsilon: float = DEFAULT_EPSILON,
            boundary: str = "periodic") -> Pyramid:
    """Decompose ``data`` into a pyramid with ``levels`` detail layers.

    Periodic data must have its period divisible by ``2**levels``.  The
    step-l mask is the family's mask after l-1 refinements, so a conic
    family initialized from the coarse sample count reproduces the
    per-level tension selection that keeps sampled circles exact.
    Non-finite input raises :class:`DomainError`.
    """
    if levels < 1:
        raise BadParamsError("need at least one level")
    arr, offset = _input_array(data, boundary)
    periodic = boundary == "periodic"
    if periodic:
        period = arr.shape[0]
        if period % (2 ** levels) != 0:
            raise PeriodNotDivisibleError(
                f"period not divisible: {period} samples cannot be halved "
                f"{levels} times")
        current = arr
    else:
        current = tuple(FinSeq(col, offset) for col in arr.T)

    level_params = []
    details: list = [None] * levels
    for level in range(levels, 0, -1):
        mask = family.mask_at_level(level - 1)
        filt = solve_gamma(mask, epsilon)
        if periodic:
            coarse = _decimate_block(filt, current)
            detail = _refine_block(mask, coarse)
            np.subtract(current, detail, out=detail)
            details[level - 1] = _periodic_components(detail)
        else:
            coarse = tuple(decimate(filt, c) for c in current)
            details[level - 1] = tuple(
                subtract(c, refine(mask, p)) for c, p in zip(current, coarse))
        level_params.append(LevelParams(level, mask, filt))
        current = coarse
    level_params.reverse()
    if periodic:
        current = _periodic_components(current)
    return Pyramid(current, details, family, epsilon, boundary, level_params)


def synthesize(pyramid: Pyramid):
    """Invert :func:`analyze`; returns components like the analyzed input.

    Uses the masks recorded in the pyramid, so a deserialized pyramid
    reconstructs with exactly the operators the analysis applied.
    Periodic components are refined together as one ``(N, D)`` block.
    """
    ncomp = pyramid.n_components
    periodic = isinstance(pyramid.coarse[0], PeriodicSeq)
    current = _stack(pyramid.coarse)[0] if periodic else pyramid.coarse
    for lp in pyramid.level_params:
        dets = pyramid.detail(lp.level)
        if len(dets) != ncomp:
            raise ShapeMismatchError("component count changed across levels")
        if periodic:
            expect = 2 * current.shape[0]
            if any(d.period != expect for d in dets):
                raise ShapeMismatchError(
                    f"level {lp.level} details have period "
                    f"{dets[0].period}, expected {expect}")
            current = _refine_block(lp.mask, current)
            for k, d in enumerate(dets):
                current[:, k] += d.values
        else:
            current = tuple(
                add(refine(lp.mask, c), d) for c, d in zip(current, dets))
    return _periodic_components(current) if periodic else current


def synthesize_array(pyramid: Pyramid):
    """Synthesize and stack back into an array (N,) or (N, D)."""
    comps = synthesize(pyramid)
    arr, _ = _stack(comps)
    return arr[:, 0] if len(comps) == 1 else arr


# ---------------------------------------------------------------------------
# decay reporting and executable bound checks


@dataclass(frozen=True)
class DetailDecayReport:
    levels: int
    per_level_inf: list
    per_level_l1: list
    per_level_avg_l2: list
    ratios: list


def detail_decay_report(pyramid: Pyramid) -> DetailDecayReport:
    """Per-level detail statistics and consecutive-level sup-norm ratios.

    Coefficient norms are Euclidean across components, so for planar
    curves each detail coefficient contributes one magnitude.
    """
    inf_norms, l1_norms, avg_norms = [], [], []
    for level in range(1, pyramid.levels + 1):
        e = pyramid.detail_norms(level)
        inf_norms.append(float(e.max()) if e.size else 0.0)
        l1_norms.append(float(e.sum()))
        avg_norms.append(float(e.mean()) if e.size else 0.0)
    ratios = []
    for l in range(pyramid.levels - 1):
        hi, lo = inf_norms[l], inf_norms[l + 1]
        if lo == 0.0:
            ratios.append(float("inf") if hi > 0 else float("nan"))
        else:
            ratios.append(hi / lo)
    return DetailDecayReport(pyramid.levels, inf_norms, l1_norms,
                             avg_norms, ratios)


def detail_bound(pyramid: Pyramid, fprime_inf: float) -> list:
    """Evaluate the decay estimate's right-hand side at every level.

    For data sampled from a differentiable function with derivative bound
    ``fprime_inf`` on the dyadic grid matching the pyramid depth, level l
    details are bounded by

        (K_zeta ||alpha||_1 + K_alpha ||zeta||_1) * fprime_inf
        * prod_{m=l..J} ||zeta^(m)||_1 / ||zeta^(l)||_1 * 2^{-l}.
    """
    zeta_norms = {lp.level: norm_l1(lp.filt.zeta)
                  for lp in pyramid.level_params}
    bounds = []
    for lp in pyramid.level_params:
        alpha = lp.mask.taps
        zeta = lp.filt.zeta
        k_az = (k_const(zeta) * norm_l1(alpha)
                + k_const(alpha) * norm_l1(zeta))
        tail = 1.0
        for m in range(lp.level, pyramid.levels + 1):
            tail *= zeta_norms[m]
        bounds.append(k_az * fprime_inf * tail / zeta_norms[lp.level]
                      * 2.0 ** (-lp.level))
    return bounds


# ---------------------------------------------------------------------------
# stability


def reconstruction_stability_bound(family: SchemeFamily, levels: int) -> float:
    """Amplification constant L of the synthesis: M**J if M > 1 else 1."""
    m_norm = max(operator_norm_inf(family.mask_at_level(k))
                 for k in range(levels))
    return m_norm ** levels if m_norm > 1.0 else 1.0


def _sup_norm(components) -> float:
    arr, _ = _stack(components)
    if arr.size == 0:
        return 0.0
    return float(np.sqrt((arr * arr).sum(axis=1)).max())


def _diff_norm(a_comps, b_comps) -> float:
    diffs = tuple(subtract(a, b) for a, b in zip(a_comps, b_comps))
    return _sup_norm(diffs)


@dataclass(frozen=True)
class StabilityCheck:
    holds: bool
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def check_reconstruction_stability(pyramid: Pyramid,
                                   perturbed: Pyramid) -> StabilityCheck:
    """Check the synthesis stability inequality on two pyramids.

    Both are synthesized; the output distance must not exceed L times the
    summed input distances (coarse plus all detail levels).
    """
    if (pyramid.levels != perturbed.levels
            or pyramid.n_components != perturbed.n_components):
        raise ShapeMismatchError("pyramids are not comparable")
    m_norm = max(operator_norm_inf(lp.mask) for lp in pyramid.level_params)
    big_l = m_norm ** pyramid.levels if m_norm > 1.0 else 1.0
    budget = _diff_norm(pyramid.coarse, perturbed.coarse)
    for level in range(1, pyramid.levels + 1):
        budget += _diff_norm(pyramid.detail(level), perturbed.detail(level))
    lhs = _diff_norm(synthesize(pyramid), synthesize(perturbed))
    rhs = big_l * budget
    return StabilityCheck(lhs <= rhs + 1e-12 * (1.0 + rhs), lhs, rhs)


_opnorm_cache: dict = {}


def residual_operator_norm_estimate(mask: Mask, filt: DecimationFilter,
                                    trials: int = 200,
                                    seed: int = 0) -> float:
    """Randomized lower bound for the sup operator norm of ``I - S D``.

    Maximizes ``||c - S(D c)||_inf`` over random sign sequences of unit
    sup norm on a period comfortably larger than the operator stencils.
    A lower-bound estimate only; pair it with the analytic upper bound
    ``1 + ||S|| * ||zeta||_1`` for sound inequality checks.
    """
    key = (mask.taps.coeffs.tobytes(), mask.taps.offset,
           filt.zeta.coeffs.tobytes(), filt.zeta.offset, trials, seed)
    hit = _opnorm_cache.get(key)
    if hit is not None:
        return hit
    reach = len(filt.zeta) + 2 * len(mask.taps) + 8
    period = 2 * (reach + reach % 2 + 8)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        c = PeriodicSeq(rng.choice((-1.0, 1.0), size=period))
        out = subtract(c, refine(mask, decimate(filt, c)))
        best = max(best, float(np.abs(out.values).max()))
    _opnorm_cache[key] = best
    return best


@dataclass(frozen=True)
class LevelStability:
    level: int
    lhs: float
    rhs: float
    opnorm_upper: float
    opnorm_lower_estimate: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-12 * (1.0 + self.rhs)


@dataclass(frozen=True)
class DecompositionStability:
    coarse: StabilityCheck
    per_level: tuple

    @property
    def holds(self) -> bool:
        return self.coarse.holds and all(e.holds for e in self.per_level)


def check_decomposition_stability(data, data_tilde, family: SchemeFamily,
                                  levels: int,
                                  epsilon: float = DEFAULT_EPSILON,
                                  boundary: str = "periodic",
                                  trials: int = 200,
                                  seed: int = 0) -> DecompositionStability:
    """Check the analysis stability inequalities on two inputs.

    The coarse outputs must differ by at most the product of the filter
    l1 norms times the input distance, and each detail level by at most
    the corresponding ``I - S D`` operator norm times accumulated filter
    norms.  The unbounded-support operator norm is checked against its
    analytic upper bound; the randomized lower estimate is reported
    alongside for diagnostics.
    """
    p = analyze(data, family, levels, epsilon, boundary)
    q = analyze(data_tilde, family, levels, epsilon, boundary)
    input_comps_p = _as_components(data, boundary)
    input_comps_q = _as_components(data_tilde, boundary)
    diff_fine = _diff_norm(input_comps_p, input_comps_q)

    zeta_norms = {lp.level: norm_l1(lp.filt.zeta) for lp in p.level_params}
    product_all = 1.0
    for v in zeta_norms.values():
        product_all *= v
    lhs0 = _diff_norm(p.coarse, q.coarse)
    rhs0 = product_all * diff_fine
    coarse = StabilityCheck(lhs0 <= rhs0 + 1e-12 * (1.0 + rhs0), lhs0, rhs0)

    per_level = []
    for lp in p.level_params:
        lhs = _diff_norm(p.detail(lp.level), q.detail(lp.level))
        upper = 1.0 + operator_norm_inf(lp.mask) * zeta_norms[lp.level]
        lower = residual_operator_norm_estimate(lp.mask, lp.filt,
                                                trials=trials, seed=seed)
        tail = 1.0
        for m in range(lp.level, levels + 1):
            tail *= zeta_norms[m]
        rhs = upper * tail / zeta_norms[lp.level] * diff_fine
        per_level.append(LevelStability(lp.level, lhs, rhs, upper, lower))
    return DecompositionStability(coarse, tuple(per_level))
