"""Box-counting dimension of discretized circular Furstenberg-type sets.

A preset builds a circle family V with a t-dimensional Cantor structure and
puts an s-dimensional angular set on each circle.  The box-count slope of
the union should stay above max{t/3 + s, (2s-1)t + s}; it usually lands
near s + t, since the theory gives a lower bound, not equality.
"""

from flab import FurstenbergConfig, assemble_furstenberg, box_counts_streaming, dimension_slope

for s, t, k1 in ((1.0, 1.0, 10), (0.5, 0.5, 11), (0.8, 0.5, 11)):
    cfg = FurstenbergConfig(s=s, t=t, k1=k1, preset="concentric", seed=7)
    fset = assemble_furstenberg(cfg)
    counts = sorted(
        box_counts_streaming([fset.cloud.points], range(5, k1 + 1)).items()
    )
    slope = dimension_slope(counts)
    rs, rt = cfg.realized_s, cfg.realized_t
    bound = max(rt / 3.0 + rs, (2.0 * rs - 1.0) * rt + rs)
    verdict = "consistent" if slope >= bound - 0.15 else "INCONSISTENT"
    print(f"(s, t) target ({s}, {t}) -> realized ({rs:.4f}, {rt:.4f}), delta = 2^-{k1}")
    print(f"  circles: {len(fset.circles)}, cloud points: {len(fset.cloud)}")
    print("  box counts:", ", ".join(f"N(2^-{k}) = {n}" for k, n in counts))
    print(f"  slope {slope:.4f} vs bound {bound:.4f} - 0.15  -> {verdict}")
    print()

print("presets vary the parameter family:")
for preset in ("concentric", "center-segment", "radius-graph"):
    cfg = FurstenbergConfig(s=0.8, t=0.6, k1=9, preset=preset, seed=7)
    fset = assemble_furstenberg(cfg)
    counts = sorted(box_counts_streaming([fset.cloud.points], range(5, 10)).items())
    print(
        f"  {preset:15s}: {len(fset.circles):4d} circles, "
        f"{len(fset.cloud):7d} points, slope {dimension_slope(counts):.3f}, "
        f"non-concentration audit {fset.v.conc_measured:.2f}"
    )
