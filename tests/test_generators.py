import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from flab import generators as gen
from flab import incidence as inc
from flab.errors import ConfigInvalid, OriginInput, OutOfAnnulus
from flab.generators import CantorSpec, FurstenbergConfig, cantor_points
from flab.geometry import CircleParam


def min_separation(pts):
    if pts.shape[0] < 2:
        return math.inf
    tree = cKDTree(pts)
    dd, _ = tree.query(pts, k=2)
    return float(dd[:, 1].min())


class TestCantorPoints:
    def test_keep_all_dyadic(self):
        pts = cantor_points(CantorSpec(2, (0, 1), 3), (0.0, 1.0))
        assert np.allclose(pts, np.arange(8) / 8.0)

    def test_middle_half_two_levels(self):
        pts = cantor_points(CantorSpec(4, (0, 3), 2), (0.0, 1.0))
        assert np.allclose(pts, [0.0, 3 / 16, 12 / 16, 15 / 16])

    def test_box_counts_level6(self):
        # dimension 1/2: exactly 2^j boxes at scale 4^-j
        pts = cantor_points(CantorSpec(4, (0, 3), 6), (0.0, 1.0))
        for j in range(1, 7):
            occ = np.unique(np.floor(pts * 4 ** j).astype(int))
            assert len(occ) == 2 ** j

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=4),
    )
    def test_cardinality(self, m, k):
        pattern = tuple(range(0, m, 2))
        pts = cantor_points(CantorSpec(m, pattern, k), (0.0, 1.0))
        assert len(pts) == len(pattern) ** k
        assert np.all(np.diff(pts) > 0)


class TestChooseBase:
    def test_exact_values(self):
        assert gen.choose_cantor_base(1.0) == (2, (0, 1))
        assert gen.choose_cantor_base(0.5) == (4, (0, 3))
        # a one-index base never gains a point, so the least is two of 16
        assert gen.choose_cantor_base(0.01) == (16, (0, 15))

    def test_slack_rule(self):
        for dim in (0.3, 0.45, 0.6, 0.8, 0.95):
            m, pat = gen.choose_cantor_base(dim)
            realized = CantorSpec(m, pat, 1).realized_dim
            assert realized >= dim - 0.02


class TestParameterSet:
    def test_concentric_dyadic_radii(self):
        cfg = FurstenbergConfig(s=1.0, t=1.0, k1=8, preset="concentric", seed=0)
        v = gen.generate_parameter_set(cfg)
        n = len(v.cloud)
        assert 2 ** 8 / 64 <= n <= 2 ** 8 * 64
        assert n == 256  # dyadic grid of [1/2, 2]
        assert min_separation(v.cloud.points) >= cfg.delta

    def test_center_segment_audit(self):
        cfg = FurstenbergConfig(s=1.0, t=0.5, k1=8, preset="center-segment", seed=0)
        v = gen.generate_parameter_set(cfg)
        assert v.conc_measured <= 16.0
        assert min_separation(v.cloud.points) >= cfg.delta

    @pytest.mark.parametrize("preset", gen.PRESETS)
    def test_reference_box_membership(self, preset):
        cfg = FurstenbergConfig(s=0.8, t=0.7, k1=7, preset=preset, seed=3)
        v = gen.generate_parameter_set(cfg)
        for row in v.cloud.points:
            assert CircleParam((row[0], row[1]), row[2]).in_reference_box()

    def test_coarse_delta_rejected(self):
        with pytest.raises(ConfigInvalid):
            FurstenbergConfig(s=1.0, t=1.0, k1=3, preset="concentric", seed=0)

    def test_bad_preset_rejected(self):
        with pytest.raises(ConfigInvalid):
            FurstenbergConfig(s=1.0, t=1.0, k1=8, preset="nope", seed=0)

    def test_one_index_cantor_rejected(self):
        with pytest.raises(ConfigInvalid):
            FurstenbergConfig(
                s=0.5, t=1.0, k1=8, preset="concentric", seed=0, cantor=(2, (0,))
            )


class TestAngularSet:
    def test_full_grid_cardinality(self):
        d = 2.0 ** (-8)
        z = CircleParam((0.0, 0.0), 1.0)
        ang = gen.generate_angular_set(z, 1.0, d, 0)
        assert len(ang) == math.floor(2.0 * math.pi / d)

    def test_half_dimension_box_counts(self):
        d = 2.0 ** (-10)
        z = CircleParam((0.0, 0.0), 1.0)
        ang = gen.generate_angular_set(z, 0.5, d, None)  # unrotated
        span = float(ang.max()) * (1.0 + 1e-12)
        for j in range(1, 5):
            occ = len(np.unique(np.floor(ang / span * 4 ** j).astype(int)))
            assert occ == 2 ** j
        rotated = gen.generate_angular_set(z, 0.5, d, 7)
        for j in range(1, 5):
            occ = len(np.unique(np.floor(rotated / (2 * math.pi) * 4 ** j).astype(int)))
            assert 2 ** j <= occ <= 2 * 2 ** j + 1

    def test_separation_scaled_by_radius(self):
        d = 2.0 ** (-8)
        for r in (0.5, 1.3, 2.0):
            z = CircleParam((0.1, -0.1), r)
            ang = np.sort(gen.generate_angular_set(z, 0.7, d, 4))
            gaps = np.diff(ang)
            wrap = 2.0 * math.pi - (ang[-1] - ang[0])
            assert min(gaps.min(), wrap) >= d / r - 1e-12

    def test_seed_rotates_but_preserves_cardinality(self):
        d = 2.0 ** (-8)
        z = CircleParam((0.0, 0.0), 1.0)
        a1 = gen.generate_angular_set(z, 0.5, d, 1)
        a2 = gen.generate_angular_set(z, 0.5, d, 2)
        assert len(a1) == len(a2)
        assert not np.allclose(np.sort(a1), np.sort(a2))


class TestAssemble:
    def test_deterministic(self):
        cfg = FurstenbergConfig(s=0.5, t=0.5, k1=7, preset="concentric", seed=9)
        f1 = gen.assemble_furstenberg(cfg)
        f2 = gen.assemble_furstenberg(cfg)
        assert np.array_equal(f1.cloud.points, f2.cloud.points)

    def test_seed_changes_offsets_not_v(self):
        c1 = FurstenbergConfig(s=0.5, t=0.5, k1=7, preset="concentric", seed=9)
        c2 = FurstenbergConfig(s=0.5, t=0.5, k1=7, preset="concentric", seed=10)
        f1, f2 = gen.assemble_furstenberg(c1), gen.assemble_furstenberg(c2)
        assert np.array_equal(f1.v.cloud.points, f2.v.cloud.points)
        assert [len(a) for a in f1.angular] == [len(a) for a in f2.angular]
        assert not np.array_equal(f1.cloud.points, f2.cloud.points)

    def test_single_circle_is_discrete_circle(self):
        # t -> one circle: drop to a single parameter point by hand
        d = 2.0 ** (-8)
        z = CircleParam((0.0, 0.0), 1.0)
        ang = gen.generate_angular_set(z, 1.0, d, 0)
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        n = inc.box_count(pts, 8).count
        expect = 2.0 * math.pi * 1.0 * 2 ** 8
        assert 0.5 * expect <= n <= 1.5 * expect

    def test_dimension2_box_count(self):
        cfg = FurstenbergConfig(s=1.0, t=1.0, k1=8, preset="concentric", seed=1)
        fs = gen.assemble_furstenberg(cfg)
        n = inc.box_count(fs.cloud, 8).count
        assert n >= (1.0 / 64.0) * 2 ** (8 * 2) / 64.0

    def test_cloud_matches_circles(self):
        cfg = FurstenbergConfig(s=1.0, t=0.5, k1=7, preset="radius-graph", seed=2)
        fs = gen.assemble_furstenberg(cfg)
        z = fs.circles[0]
        ang = fs.angular[0]
        expect = np.column_stack(
            [z.center[0] + z.radius * np.cos(ang), z.center[1] + z.radius * np.sin(ang)]
        )
        have = {tuple(p) for p in np.round(fs.cloud.points, 12)}
        assert all(tuple(p) in have for p in np.round(expect, 12))

    def test_cardinality_window_on_both_paths(self):
        # 16 angles per circle against a window starting at 2^(12*0.9)/64
        cfg = FurstenbergConfig(
            s=0.9, t=1.0, k1=12, preset="center-segment", seed=0, cantor=(16, (0, 15))
        )
        with pytest.raises(ConfigInvalid, match="pinned window"):
            gen.assemble_furstenberg(cfg)
        with pytest.raises(ConfigInvalid, match="pinned window"):
            next(gen.iter_furstenberg_points(cfg))

    def test_streaming_matches_assembled(self):
        cfg = FurstenbergConfig(s=0.5, t=1.0, k1=7, preset="concentric", seed=6)
        fs = gen.assemble_furstenberg(cfg)
        streamed = np.concatenate(list(gen.iter_furstenberg_points(cfg)))
        assert np.array_equal(
            np.sort(streamed.view("f8,f8"), axis=0),
            np.sort(fs.cloud.points.view("f8,f8"), axis=0),
        )


class TestInversion:
    def test_fixed_point(self):
        assert np.allclose(gen.invert_points(np.array([[1.0, 0.0]])), [[1.0, 0.0]])

    def test_reciprocal_of_i(self):
        assert np.allclose(gen.invert_points(np.array([[0.0, 1.0]])), [[0.0, -1.0]])

    def test_origin_raises(self):
        with pytest.raises(OriginInput):
            gen.invert_points(np.array([[0.0, 0.0]]))

    def test_vertical_line_maps_to_circle(self):
        # the line {x = 1/2} maps onto the circle |w - (1,0)| = 1
        ys = np.linspace(-40.0, 40.0, 201)
        pts = np.column_stack([np.full_like(ys, 0.5), ys])
        w = gen.invert_points(pts)
        assert np.allclose(np.hypot(w[:, 0] - 1.0, w[:, 1]), 1.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_involution_and_norm(self, r, th):
        p = np.array([[r * math.cos(th), r * math.sin(th)]])
        w = gen.invert_points(p)
        assert np.linalg.norm(w) == pytest.approx(1.0 / r, rel=1e-12)
        back = gen.invert_points(w)
        assert np.linalg.norm(back - p) <= 1e-12 * np.linalg.norm(p)

    def test_collinear_pair_ratio(self):
        p, q = np.array([[1.0, 0.0]]), np.array([[4.0, 0.0]])
        num = np.linalg.norm(gen.invert_points(p) - gen.invert_points(q))
        assert num / np.linalg.norm(p - q) == pytest.approx(0.25, rel=1e-12)

    def test_invert_set_requires_annulus(self):
        with pytest.raises(OutOfAnnulus):
            gen.invert_set(gen.PointCloud(np.array([[0.5, 0.0]]), 6))


class TestLevelsForSeparation:
    def test_one_index_pattern_refused_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(ConfigInvalid):
            gen._levels_for_separation(2, (0,), 1.0, 0.01)
        assert time.perf_counter() - t0 < 0.5


class TestLinearFurstenberg:
    def test_points_inside_annulus(self):
        cloud = gen.linear_furstenberg(0.5, 8, 3)
        norms = np.linalg.norm(cloud.points, axis=1)
        assert norms.min() >= 1.0 - 1e-9
        assert norms.max() <= 4.0 + 1e-9

    def test_full_s_nearly_two_dimensional(self):
        cloud = gen.linear_furstenberg(1.0, 9, 3)
        counts = sorted(inc.box_counts_streaming([cloud.points], range(5, 10)).items())
        assert inc.dimension_slope(counts) >= 1.8

    def test_one_direction_slope_matches_s(self):
        m, pat = gen.choose_cantor_base(0.5)
        levels = gen._levels_for_separation(m, pat, 2 * math.sqrt(15.0), 2.0 ** (-10))
        ts = cantor_points(CantorSpec(m, pat, levels), (-math.sqrt(15.0), math.sqrt(15.0)))
        line = np.column_stack([np.full_like(ts, 1.0), ts])
        counts = sorted(inc.box_counts_streaming([line], range(5, 11)).items())
        assert inc.dimension_slope(counts) == pytest.approx(0.5, abs=0.1)

    def test_box_dimension_stable_under_reciprocal(self):
        cloud = gen.linear_furstenberg(0.5, 12, 3)
        ks = range(6, 11)
        s1 = inc.dimension_slope(sorted(inc.box_counts_streaming([cloud.points], ks).items()))
        inv = gen.invert_set(cloud)
        s2 = inc.dimension_slope(sorted(inc.box_counts_streaming([inv.points], ks).items()))
        assert abs(s1 - s2) <= 0.1
