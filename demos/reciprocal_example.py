"""The reciprocal map turns line families into circle families.

w = 1/z (complex reciprocal) maps lines to circles through the origin and
is bilipschitz on the annulus 1 <= |z| <= 4 with pair ratios in [1/16, 1],
so box-counting dimension estimates survive the transport.
"""

import numpy as np

from flab import (
    box_counts_streaming,
    dimension_slope,
    invert_points,
    invert_set,
    linear_furstenberg,
)

print("pointwise identities:")
at_1, at_i = invert_points(np.array([[1.0, 0.0], [0.0, 1.0]]))
print("  1/(1,0) =", at_1)
print("  1/(0,1) =", at_i)
ys = np.linspace(-5, 5, 7)
line = np.column_stack([np.full_like(ys, 0.5), ys])
w = invert_points(line)
print("  the line x = 1/2 lands on |w - (1,0)| = 1:",
      np.allclose(np.hypot(w[:, 0] - 1, w[:, 1]), 1.0))

rng = np.random.default_rng(0)
r = np.sqrt(rng.uniform(1.0, 16.0, 4000))
th = rng.uniform(0, 2 * np.pi, 4000)
pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
p, q = pts[:2000], pts[2000:]
ratios = np.linalg.norm(invert_points(p) - invert_points(q), axis=1) / np.linalg.norm(
    p - q, axis=1
)
print(f"\nbilipschitz audit on 2000 random pairs: ratios in "
      f"[{ratios.min():.4f}, {ratios.max():.4f}]  (analytic range [1/16, 1])")

cloud = linear_furstenberg(0.5, 12, seed=3)
print(f"\nlinear family: {len(cloud)} points on tangent chords of the unit circle")
ks = range(6, 11)
s1 = dimension_slope(sorted(box_counts_streaming([cloud.points], ks).items()))
image = invert_set(cloud)
s2 = dimension_slope(sorted(box_counts_streaming([image.points], ks).items()))
print(f"box-count slope before {s1:.4f} / after {s2:.4f} the reciprocal "
      f"(drift {abs(s1 - s2):.4f})")
