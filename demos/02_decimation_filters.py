"""Computing reverse decimation filters and their diagnostics.

For each scheme the even part of the mask is inverted on a window set
by the roots of that even part, truncated at 1e-15, and normalized to
unit sum.  An interpolating mask inverts trivially (the filter is the
Kronecker delta); the cubic B-spline filter is the classic alternating
geometric sequence with ratio -(3 - 2*sqrt(2)); the nonstationary
filters start out different at the first level and settle toward their
stationary limit as the level grows.
"""

import math
from pathlib import Path

from nspyr import (
    Conic,
    NS4Point,
    NSCubic,
    cubic_bspline_family,
    norm_l1,
    solve_gamma,
    subtract,
    write_filter_csv,
)

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

theta = 2 * math.pi / 16

print("filter diagnostics at epsilon = 1e-15\n")
print(f"{'family':>14} {'level':>5} {'taps':>5} {'||zeta||_1':>11} "
      f"{'residual':>10} {'decay rate':>10}")
for name, family in (("ns4pt", NS4Point(theta)),
                     ("cubic", cubic_bspline_family()),
                     ("nscubic", NSCubic(math.cos(theta))),
                     ("conic", Conic(math.cos(theta)))):
    for level in range(2):
        filt = solve_gamma(family.mask_at_level(level), 1e-15)
        lam = "-" if filt.decay_lambda is None else f"{filt.decay_lambda:.4f}"
        print(f"{name:>14} {level:>5} {filt.nonzero_count:>5} "
              f"{norm_l1(filt.zeta):>11.6f} {filt.residual_l1:>10.2e} "
              f"{lam:>10}")

print("\nlevel-to-level filter drift for the exponential cubic family:")
fam = NSCubic(math.cos(theta))
zetas = [solve_gamma(fam.mask_at_level(k), 1e-15).zeta for k in range(5)]
for k in range(4):
    drift = norm_l1(subtract(zetas[k], zetas[k + 1]))
    print(f"  ||zeta({k + 1}) - zeta({k + 2})||_1 = {drift:.3e}")

path = OUT / "conic_zeta_level1.csv"
write_filter_csv(path, solve_gamma(Conic(math.cos(theta)).mask_at_level(0),
                                   1e-15))
print(f"\nwrote {path}")
