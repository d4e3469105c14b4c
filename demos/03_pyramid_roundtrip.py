"""A full multiscale round trip, with the stability estimates in action.

A mildly wavy circle is decomposed four levels deep, reassembled, and
compared.  The reconstruction is exact to machine precision because the
detail coefficients store exactly what the predictor missed.  Halving
all detail coefficients before synthesis changes the output by no more
than the stability budget L * sum of the detail changes.
"""

import math
from pathlib import Path

import numpy as np

from nspyr import (
    Conic,
    Pyramid,
    analyze,
    check_reconstruction_stability,
    detail_decay_report,
    perturb_wavy,
    sample_circle,
    synthesize_array,
)

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

curve = perturb_wavy(sample_circle(256), amplitude=0.02, frequency=9)
family = Conic(math.cos(2 * math.pi / 16))
pyramid = analyze(curve.points, family, levels=4, boundary="periodic")

print("wavy circle, 256 samples, 4 levels, conic family\n")
report = detail_decay_report(pyramid)
for level in range(1, 5):
    print(f"  level {level}: sup detail norm {report.per_level_inf[level - 1]:.3e}"
          f"   l1 {report.per_level_l1[level - 1]:.3e}")

recon = synthesize_array(pyramid)
print(f"\nround-trip error: {np.abs(recon - curve.points).max():.3e}")

halved = Pyramid(
    pyramid.coarse,
    [0.5 * d for d in pyramid.details],
    pyramid.family, pyramid.epsilon, pyramid.boundary, pyramid.level_params)
check = check_reconstruction_stability(pyramid, halved)
print(f"halved details: output moved {check.lhs:.3e}, "
      f"stability budget {check.rhs:.3e} (holds: {check.holds})")

path = OUT / "wavy_pyramid.json"
path.write_text(pyramid.to_json())
print(f"\nwrote {path}")
