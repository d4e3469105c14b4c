"""Scoring how far a closed curve is from a uniformly sampled conic.

The conic pyramid's detail coefficients vanish on every affine image of
a uniformly sampled circle (ellipses included, so the score does not
tell an ellipse from a circle), and their norms measure the departure
from such a curve per scale.
Three increasingly wavy circles produce strictly increasing verdict
scales, and the per-level decay curves separate the three cases on a
log plot.
"""

from pathlib import Path

from nspyr import (
    WAVY_PRESETS,
    circularity_report,
    perturb_wavy,
    sample_circle,
    svgplot,
)

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

n, levels = 256, 4
clean = sample_circle(n)
print(f"{n}-sample curves, {levels} levels\n")

series = {}
rep = circularity_report(clean, levels)
series["clean"] = rep.per_level_avg_l2
print(f"{'clean circle':>22}: verdict {rep.verdict_scale:.3e}")

for name, amplitude, frequency in WAVY_PRESETS:
    curve = perturb_wavy(clean, amplitude, frequency)
    rep = circularity_report(curve, levels)
    series[name] = rep.per_level_avg_l2
    print(f"{name:>22}: verdict {rep.verdict_scale:.3e} "
          f"(amplitude {amplitude}, frequency {frequency})")

path = OUT / "circularity_decay.svg"
path.write_text(svgplot.log_lines_svg(
    series, title="average detail norm per level"))
print(f"\nwrote {path}")
