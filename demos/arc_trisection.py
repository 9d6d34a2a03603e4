"""Arc trisection and the triple index.

Each circle carrying enough content is cut into three separated arcs whose
content estimates land in [eta/8, 3 eta/16]; the arcs' occupied cells then
index the circle by cell triples.  The number of such quadruples, scaled by
tau^6 / (#cells)^3, stays far below the regression guard.
"""

import math

import numpy as np

from flab import (
    FurstenbergConfig,
    assemble_furstenberg,
    auto_eta,
    box_count,
    build_triple_index,
    extract_three_arcs,
    triple_upper_ratio,
)

cfg = FurstenbergConfig(s=1.0, t=1.0, k1=8, preset="concentric", seed=3)
fset = assemble_furstenberg(cfg)
delta = cfg.delta

z = fset.circles[40]
ang = fset.angular[40]
pts = np.column_stack(
    [z.center[0] + z.radius * np.cos(ang), z.center[1] + z.radius * np.sin(ang)]
)
eta = auto_eta(1.0, delta, cfg.k1)
tri = extract_three_arcs(z, pts, 1.0, eta, delta=delta)
print(f"one circle (r = {z.radius:.4f}), {len(pts)} cloud points")
print(f"  eta = {eta:.4f}, arc length gamma = {tri.gamma:.5f}, tau = {tri.tau:.5f}")
print(f"  contents: {tuple(round(c, 5) for c in tri.contents)}  "
      f"(bracket [{eta/8:.5f}, {3*eta/16 + tri.gamma:.5f}])")
print(f"  min chord separation {tri.min_chord_separation():.5f} >= gamma/pi = "
      f"{tri.gamma / math.pi:.5f}")

data = []
for zc, angles in zip(fset.circles, fset.angular):
    p = np.column_stack(
        [zc.center[0] + zc.radius * np.cos(angles), zc.center[1] + zc.radius * np.sin(angles)]
    )
    data.append((extract_three_arcs(zc, p, 1.0, eta, delta=delta), p))

grid = box_count(fset.cloud, cfg.k1)
t_index = build_triple_index(data, cfg.k1)
tau = min(t.tau for t, _ in data)
print(f"\nwhole family: {len(data)} circles, {grid.count} occupied cells")
print(f"  per-arc cell counts (first 5 circles): {t_index.counts[:5].tolist()}")
print(f"  triple index size: {t_index.count} "
      f"(= sum over circles of the per-arc count products)")
print(f"  ratio #T * tau^6 / #cells^3 = {triple_upper_ratio(t_index, grid.count, tau):.3g}")
