"""Refining circle samples: conic-reproducing scheme vs cubic B-spline.

Nine equally spaced points on the unit circle are refined three times by
two schemes.  The cubic B-spline scheme shrinks the polygon toward an
approximating spline; the conic-reproducing scheme, with its tension
initialized from the sample spacing, puts every new point back on the
circle to machine precision.
"""

import math
from pathlib import Path

import numpy as np

from nspyr import (
    Conic,
    PeriodicSeq,
    cubic_bspline_family,
    radial_deviation,
    refine_n,
    sample_circle,
    svgplot,
)
from nspyr.geometry import PlanarCurve

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

n = 9
steps = 3
curve = sample_circle(n)
x = PeriodicSeq(curve.points[:, 0])
y = PeriodicSeq(curve.points[:, 1])

print(f"{n} circle samples, {steps} refinement steps "
      f"-> {n * 2 ** steps} points\n")

for label, family in (
        ("cubic B-spline", cubic_bspline_family()),
        ("conic-reproducing", Conic(math.cos(2 * math.pi / n)))):
    rx = refine_n(family, x, steps)
    ry = refine_n(family, y, steps)
    pts = np.stack([rx.values, ry.values], axis=1)
    dev = radial_deviation(PlanarCurve(pts), 1.0)
    print(f"{label:>20}: max radial deviation {dev:.3e}")
    svg = svgplot.curve_overlay_svg(pts, curve.points,
                                    title=f"{label}, {steps} steps")
    name = label.split()[0].replace("-", "_") + "_refined.svg"
    (OUT / name).write_text(svg)
    print(f"{'':>22}wrote {OUT / name}")
