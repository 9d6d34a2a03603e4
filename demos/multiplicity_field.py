"""Multiplicity fields of annuli and low-multiplicity statistics.

m(w) adds the weight of every circle whose delta-annulus covers the point
w.  The field integrates exactly to the weighted annulus-cell counts, and
cells below the threshold A^t lambda^-2t delta^t form the low-multiplicity
subset whose area ratio is reported per circle.
"""

import math
from collections import Counter

import numpy as np

from flab import (
    FurstenbergConfig,
    ThresholdParams,
    frostman_measure,
    generate_parameter_set,
    low_multiplicity_subset,
    multiplicity_field,
)

cfg = FurstenbergConfig(s=0.8, t=0.6, k1=9, preset="concentric", seed=4)
v = generate_parameter_set(cfg)
k1 = cfg.k1
mu = frostman_measure(v.cloud).scaled(1.0 / (k1 * k1))
field = multiplicity_field(mu, cfg.delta, k1)

print(f"{len(v.cloud)} circles, grid 2^-{k1}, total mass {mu.total_mass:.5f}")
print(f"field: {len(field.cells)} cells, sup m = {field.sup:.5f}")

hist = Counter()
w0 = float(mu.weights[0])
for m in field.values.tolist():
    hist[round(m / w0)] += 1
print("multiplicity histogram (count of covering circles -> cells):")
for mult in sorted(hist)[:8]:
    print(f"  {mult:3d} circles: {hist[mult]:7d} cells")

lhs = math.fsum(field.values.tolist())
rhs = math.fsum((mu.weights * field.per_atom_counts).tolist())
print(f"mass integral: sum_w m(w) = {lhs:.6f} = sum_z weight * cells = {rhs:.6f}")

params = ThresholdParams.from_exponents(0.8, 0.6, 0.1, k1)
print(f"\nthresholds: eta = {params.eta:.4f}, A = {params.a_param:.4f}, "
      f"lambda = {params.lam:.3e}, threshold = {params.threshold:.3e}")
ratios = [low_multiplicity_subset(i, field, params).area_ratio for i in range(len(v.cloud))]
print(f"low-multiplicity area ratio |S2|/|S1|: mean {np.mean(ratios):.3f}, "
      f"min {min(ratios):.3f} (reported statistic; 1.0 means the threshold "
      f"exceeds every multiplicity at this scale)")
st = low_multiplicity_subset(0, field, params)
print(f"circle 0: |S1| = {st.s1_count} cells (area {st.s1_area:.3e} >= "
      f"reference {st.s1_area_reference:.3e})")
