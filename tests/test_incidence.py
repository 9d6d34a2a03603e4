import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flab import cli
from flab import fractal as fr
from flab import generators as gen
from flab import incidence as inc
from flab.errors import ConfigInvalid, DegenerateFit, InsufficientContent
from flab.generators import FurstenbergConfig
from flab.geometry import CircleParam


KEYS_ONLY = {"_GRID_CELLS": 0, "_GRID_CELLS_PER_POINT": 0}  # no grid in box_counts_streaming


def brute_box_count(pts, k):
    cells = set()
    scale = 2 ** k
    for x, y in pts:
        cells.add((math.floor(x * scale), math.floor(y * scale)))
    return cells


def circle_points(z, angles):
    return np.column_stack(
        [z.center[0] + z.radius * np.cos(angles), z.center[1] + z.radius * np.sin(angles)]
    )


class TestBoxCount:
    def test_single_point(self):
        assert inc.box_count(np.array([[0.3, 0.7]]), 4).count == 1

    def test_circle_counts(self):
        for k in (5, 8, 10):
            d = 2.0 ** (-k)
            th = np.arange(0.0, 2 * math.pi, d)
            pts = np.column_stack([np.cos(th), np.sin(th)])
            n = inc.box_count(pts, k).count
            assert 2 ** k <= n <= 64 * 2 ** k

    def test_subadditive_union(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 1, (500, 2))
        b = rng.uniform(0, 1, (500, 2))
        na = inc.box_count(a, 5).count
        nb = inc.box_count(b, 5).count
        nu = inc.box_count(np.vstack([a, b]), 5).count
        assert nu <= na + nb

    def test_monotone_refinement(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, (2000, 2))
        prev = inc.box_count(pts, 3).count
        for k in range(4, 9):
            cur = inc.box_count(pts, k).count
            assert prev <= cur <= 4 * prev
            prev = cur

    def test_matches_brute(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2, 2, (3000, 2))
        grid = inc.box_count(pts, 6)
        assert set(map(tuple, grid.cells.tolist())) == brute_box_count(pts, 6)

    def test_streaming_matches_direct(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, (5000, 2))
        ks = [4, 5, 6, 7]
        direct = {k: inc.box_count(pts, k).count for k in ks}
        chunked = inc.box_counts_streaming([pts[:1234], pts[1234:]], ks)
        assert chunked == direct
        small_first = inc.box_counts_streaming([pts[:100], pts[100:]], ks)
        assert small_first == direct

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 300), st.just(2)),
               elements=st.floats(-2.0, 2.0)),
        st.lists(st.integers(0, 300), max_size=5),
        st.lists(st.integers(1, 12), min_size=1, max_size=5),
    )
    def test_streaming_matches_box_count_on_any_split(self, pts, cuts, ks):
        chunks = np.split(pts, sorted(set(cuts)))
        direct = {k: inc.box_count(pts, k).count for k in set(ks)}
        assert inc.box_counts_streaming(chunks, ks) == direct
        with mock.patch.multiple(inc, _MERGE_EVERY=1, **KEYS_ONLY):  # merge after every chunk
            assert inc.box_counts_streaming(chunks, ks) == direct

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 300), st.sampled_from([2, 3])),
               elements=st.floats(-2.0, 2.0)),
        st.lists(st.integers(0, 300), max_size=6),
        st.lists(st.integers(1, 8), min_size=1, max_size=4),
        st.sampled_from([None, 8.0, -1e3, 3e3]),
    )
    def test_grid_and_keys_agree_on_any_split(self, pts, cuts, ks, far):
        # Repeated cuts give empty chunks.  Under the module's own limit the
        # bounded points fit a grid at k <= 8, so a far point in a late chunk
        # hands that grid over to keys.
        chunks = np.split(pts, sorted(cuts))
        if far is not None:
            chunks.append(np.full((1, pts.shape[1]), far))
        every = np.concatenate(chunks)
        direct = {k: inc.box_count(every, k).count for k in set(ks)}
        for limits in (
            KEYS_ONLY,
            {"_GRID_CELLS": inc._GRID_CELLS},  # a grid from the first chunk while it fits
            # keys first, then a grid after each merge that 8 cells a point covers
            {"_GRID_CELLS": 64, "_GRID_CELLS_PER_POINT": 8, "_MERGE_EVERY": 1},
        ):
            with mock.patch.multiple(inc, **limits):
                assert inc.box_counts_streaming(chunks, ks) == direct, limits

    def test_far_point_hands_grid_over_to_keys(self):
        rng = np.random.default_rng(4)
        near = rng.uniform(-1, 1, (2000, 2))
        far = np.array([[300.0, -300.0]])
        ks = [5, 6, 7, 8]
        direct = {k: inc.box_count(np.vstack([near, far]), k).count for k in ks}
        with mock.patch.object(inc, "_grid_counts", wraps=inc._grid_counts) as grid_counts:
            assert inc.box_counts_streaming([near], ks) == {k: direct[k] - 1 for k in ks}
            assert grid_counts.call_count == 1
            assert inc.box_counts_streaming([near, far], ks) == direct
            assert grid_counts.call_count == 1  # counted from keys

    def test_keys_hand_over_to_grid_at_a_merge(self):
        rng = np.random.default_rng(5)
        corners = np.array([[-2.0, -2.0], [2.0, 2.0]])
        fill = rng.uniform(-2, 2, (20000, 2))
        ks = [4, 5, 6]
        direct = {k: inc.box_count(np.vstack([corners, fill]), k).count for k in ks}
        # the corners alone need a 260^2-cell grid at k = 6, over 8 cells a point
        with mock.patch.multiple(inc, _GRID_CELLS=1000, _MERGE_EVERY=1), mock.patch.object(
            inc, "_grid_counts", wraps=inc._grid_counts
        ) as grid_counts:
            assert inc.box_counts_streaming([corners], ks) == {k: 2 for k in ks}
            assert grid_counts.call_count == 0
            assert inc.box_counts_streaming([corners, fill], ks) == direct
            assert grid_counts.call_count == 1

    def test_3d_cells_four_apart_stay_distinct(self):
        pts = np.array([[0.0, 0.0, 1.0], [4 * 2.0 ** -8, 0.0, 1.0]])
        assert inc.box_count(pts, 8).count == 2

    def test_scale_beyond_key_range_raises(self):
        pts = np.array([[0.0, 1.0], [2.0 ** -31, 0.0]])
        with pytest.raises(ConfigInvalid):
            inc.box_count(pts, 31)
        with pytest.raises(ConfigInvalid):
            inc.box_counts_streaming([pts], [29, 30, 31])

    def test_one_cell_beyond_key_range_raises(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0]])  # one cell, index 2^31 at k = 31
        with pytest.raises(ConfigInvalid):
            inc.box_count(pts, 31)
        with pytest.raises(ConfigInvalid):
            inc.box_counts_streaming([pts], [31])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("top", [64, 70, 1023])
    def test_float_index_beyond_int64_raises_before_the_cast(self, dim, top):
        # at k = 1023 a coordinate of 2 scales to inf; no cast warning either way
        pts = np.array([[0.1, 0.2, 0.3], [0.7, -2.0, 0.4]])[:, :dim]
        with pytest.raises(ConfigInvalid):
            inc.box_counts_streaming([pts], [1, 2, top])


class TestDimensionSlope:
    def test_exact_powers(self):
        assert inc.dimension_slope([(k, 2 ** k) for k in range(3, 9)]) == pytest.approx(1.0)
        assert inc.dimension_slope([(k, 4 ** k) for k in range(3, 9)]) == pytest.approx(2.0)

    def test_cantor_square_product(self):
        x = gen.cantor_points(gen.CantorSpec(4, (0, 3), 5), (0.0, 1.0))
        gx, gy = np.meshgrid(x, x)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        counts = [(k, inc.box_count(pts, k).count) for k in range(4, 11)]
        slope = inc.dimension_slope(counts)
        assert 0.9 <= slope <= 1.1

    def test_degenerate(self):
        with pytest.raises(DegenerateFit):
            inc.dimension_slope([(5, 10), (5, 12), (5, 9)])
        with pytest.raises(DegenerateFit):
            inc.dimension_slope([(5, 10), (6, 12)])


def uniform_circle(z, k):
    d = 2.0 ** (-k)
    ang = gen.generate_angular_set(z, 1.0, d, None)
    return circle_points(z, ang)


def scan_oracle(z, pts, s_prime, eta, delta):
    """extract_three_arcs from its definitions: the content decided with
    content_lower, the arcs binned with circle_angles and each covered with
    the public content_greedy, and the three scans replayed over every arc,
    empty ones included."""
    stride = max(1, -(-pts.shape[0] // 1024))
    lower = fr.content_lower(pts, s_prime, delta)
    if fr.content_lower(pts[::stride], s_prime, delta) < eta and lower < eta:
        raise InsufficientContent(f"content lower estimate {lower:.4g} below eta {eta:.4g}")
    gamma = (eta / 16.0) ** (1.0 / s_prime)
    n_arcs = math.ceil(2.0 * math.pi * z.radius / gamma)
    w = gamma / z.radius
    arc_of = np.minimum((inc.circle_angles(z, pts) / w).astype(np.int64), n_arcs - 1)
    contents = {
        l: fr.content_greedy(pts[arc_of == l], s_prime, delta).upper
        for l in np.unique(arc_of).tolist()
    }

    def scan(start, stop):
        cum = 0.0
        for l in range(start, stop + 1):
            cum += contents.get(l, 0.0)
            if cum >= eta / 8.0 and l >= start + 1:
                return l, cum
        raise InsufficientContent("arc scan exhausted the circle")

    e1, c1 = scan(0, n_arcs - 13)
    e2, c2 = scan(e1 + 2, n_arcs - 9)
    e3, c3 = scan(e2 + 2, n_arcs - 3)
    tol = gamma ** s_prime
    if not all(eta / 8.0 - tol <= c <= 3.0 * eta / 16.0 + tol for c in (c1, c2, c3)):
        raise InsufficientContent("arc content escaped the bracket")
    ends = (0.0, (e1 + 1) * w, (e1 + 2) * w, (e2 + 1) * w, (e2 + 2) * w, (e3 + 1) * w)
    tri = inc.ArcTriple(z, (ends[0:2], ends[2:4], ends[4:6]), gamma, gamma / math.pi,
                        (c1, c2, c3))
    if tri.min_chord_separation() < gamma / math.pi - 1e-12:
        raise InsufficientContent("arc separation collapsed")
    return tri


def assert_scan_matches_oracle(z, pts, s_prime, eta, delta):
    """extract_three_arcs gives scan_oracle's intervals, contents and tau, or
    raises with its message."""
    try:
        expected = scan_oracle(z, pts, s_prime, eta, delta)
    except InsufficientContent as err:
        with pytest.raises(InsufficientContent) as got:
            inc.extract_three_arcs(z, pts, s_prime, eta, delta=delta)
        assert str(got.value) == str(err)
        return err
    tri = inc.extract_three_arcs(z, pts, s_prime, eta, delta=delta)
    assert (tri.intervals, tri.contents, tri.tau) == (
        expected.intervals, expected.contents, expected.tau
    )
    return tri


class TestExtractThreeArcs:
    def test_uniform_circle_scan_matches_prefix_oracle(self):
        k = 8
        d = 2.0 ** (-k)
        z = CircleParam((0.0, 0.0), 1.0)
        pts = uniform_circle(z, k)
        eta = inc.auto_eta(1.0, d, k)
        tri = inc.extract_three_arcs(z, pts, 1.0, eta, delta=d)
        # prefix-sum oracle: per-arc contents recomputed directly, then the
        # same three scans replayed
        gamma = (eta / 16.0) ** 1.0
        n_arcs = math.ceil(2 * math.pi * z.radius / gamma)
        w = gamma / z.radius
        theta = inc.circle_angles(z, pts)
        arc_of = np.minimum((theta / w).astype(int), n_arcs - 1)
        contents = []
        for l in range(n_arcs):
            sub = pts[arc_of == l]
            if len(sub) == 0:
                contents.append(0.0)
            else:
                contents.append(fr.content_greedy(sub, 1.0, d).upper)

        def scan(start, stop):
            cum = 0.0
            for l in range(start, stop + 1):
                cum += contents[l]
                if cum >= eta / 8.0 and l >= start + 1:
                    return l, cum
            raise AssertionError("oracle scan failed")

        e1, c1 = scan(0, n_arcs - 13)
        e2, c2 = scan(e1 + 2, n_arcs - 9)
        e3, c3 = scan(e2 + 2, n_arcs - 3)
        assert tri.contents == (c1, c2, c3)
        assert tri.intervals[0][1] == pytest.approx((e1 + 1) * w)
        assert tri.intervals[1] == pytest.approx(((e1 + 2) * w, (e2 + 1) * w))
        assert tri.intervals[2] == pytest.approx(((e2 + 2) * w, (e3 + 1) * w))

    @staticmethod
    def random_circle(seed, delta, spread, jitter, sparse, dense):
        """Points every delta / r along part of a random circle (three times
        as many when dense), or an eighth as many at random angles in random
        order, whose gaps let a greedy cover beat the enclosing ball;
        jittered off the circle by up to jitter * delta."""
        rng = np.random.default_rng(seed)
        z = CircleParam(tuple(rng.uniform(-0.3, 0.3, 2)), rng.uniform(0.2, 2.0))
        span, step = 2.0 * math.pi * spread, delta / z.radius / (3.0 if dense else 1.0)
        if sparse:
            ang = rng.uniform(0.0, span, int(span / step) // 8 + 1)
        else:
            ang = np.arange(0.0, span, step)
        ang = ang + rng.uniform(0.0, 2.0 * math.pi)
        rad = z.radius + jitter * delta * rng.uniform(-1.0, 1.0, ang.size)
        return z, np.column_stack([z.center[0] + rad * np.cos(ang), z.center[1] + rad * np.sin(ang)])

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(6, 8),
        s_prime=st.sampled_from([0.55, 0.75, 1.0]),
        eta_rule=st.sampled_from(["auto", "paper", 0.4, 0.75, 1.0]),
        shapes=st.lists(
            st.tuples(
                st.integers(0, 2 ** 32 - 1),
                st.sampled_from([0.1, 0.4, 0.7, 1.0]),
                st.sampled_from([0.0, 0.25, 1.0]),
                st.booleans(),
                st.booleans(),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @example(k=6, s_prime=1.0, eta_rule=1.0, shapes=[(0, 1.0, 0.0, False, False)])
    # arcs of 16-50 points at k = 8 and eta 1: the hull path inside a batch
    @example(k=8, s_prime=1.0, eta_rule=1.0, shapes=[
        (1, 1.0, 0.0, False, True), (2, 0.7, 0.25, False, False), (3, 1.0, 1.0, False, True)])
    def test_random_circle_scan_matches_oracle(self, k, s_prime, eta_rule, shapes):
        # each circle alone matches the oracle, which decides the content
        # with content_lower, bins the arcs with circle_angles, covers each
        # with the public content_greedy and replays the three scans and
        # checks; the set driver, all circles at once, gives each the same
        delta = 2.0 ** (-k)
        circles = [self.random_circle(seed, delta, *shape) for seed, *shape in shapes]
        if eta_rule == "auto":
            eta = min(1.0, max(1.0 / k ** 2, 16.0 * (2.0 * delta) ** s_prime))
        else:
            eta = 1.0 / k ** 2 if eta_rule == "paper" else eta_rule
        if (eta / 16.0) ** (1.0 / s_prime) < 1e-3:  # keep the arc count near 10^4
            eta = 16.0 * 1e-3 ** s_prime
        alone = [assert_scan_matches_oracle(z, pts, s_prime, eta, delta) for z, pts in circles]
        together = inc.scan_circles(circles, s_prime, eta, delta=delta)
        for got, want in zip(together, alone, strict=True):
            if isinstance(want, InsufficientContent):
                assert isinstance(got, InsufficientContent) and str(got) == str(want)
            else:
                assert (got.intervals, got.contents, got.tau) == (
                    want.intervals, want.contents, want.tau
                )

    @pytest.mark.parametrize("arc1", ["empty", "filled"])
    def test_first_arc_alone_ends_the_scan_one_arc_on(self, arc1):
        # arc 0 holds a spoke of points out to radius 1.12, enough content
        # for the target alone: the first scan ends at arc 1 and adds its
        # content, none when it holds no points
        k = 8
        delta = 2.0 ** (-k)
        z = CircleParam((0.0, 0.0), 1.0)
        eta = 0.75
        w = eta / 16.0
        ang = np.arange(0.0, 2.0 * math.pi, delta)
        if arc1 == "empty":
            ang = ang[(ang < w) | (ang >= 2.0 * w)]
        spoke = np.arange(1.0 + delta, 1.12, delta)[:, None] * [math.cos(w / 2), math.sin(w / 2)]
        pts = np.concatenate([circle_points(z, ang), spoke])
        arc_of = (inc.circle_angles(z, pts) / w).astype(int)
        contents = [fr.content_greedy(pts[arc_of == l], 1.0, delta).upper
                    if np.any(arc_of == l) else 0.0 for l in (0, 1)]
        assert contents[0] >= eta / 8.0 and (contents[1] > 0.0) == (arc1 == "filled")
        tri = assert_scan_matches_oracle(z, pts, 1.0, eta, delta)
        assert tri.intervals[0] == (0.0, 2.0 * w)
        assert tri.contents[0] == contents[0] + contents[1]

    def test_paper_eta_fine_arcs_match_oracle(self):
        # eta_rule "paper" (1/k1^2) and s' = 0.75 at k1 = 8: 32k-129k arcs a
        # circle for ~3.2k points, most arcs empty; every 32nd circle of the
        # set.  One point's content, (2 delta)^s' ~ 0.026, reaches the target
        # 1/512 alone and passes the bracket's top, so each scan stops at its
        # first filled arc (or the one after) and every circle fails
        cfg = FurstenbergConfig(s=1.0, t=1.0, k1=8, preset="concentric", seed=0)
        circles = gen._circles(cfg, gen.generate_parameter_set(cfg), gen._angular_base(cfg))
        outcomes = []
        for z, angles in list(circles)[::32]:
            pts = gen._circle_points(z, angles)
            result = assert_scan_matches_oracle(z, pts, 0.75, 1.0 / 64.0, cfg.delta)
            outcomes.append(str(result))
        assert outcomes == ["arc content escaped the bracket"] * 8

    def test_ball_bound_settles_every_wide_arc(self):
        # the triples-wide config (s' = 1, eta 0.75 at k1 = 6): 2-3 points an
        # arc, and the bound proves the enclosing ball wins on every arc
        # before the greedy loop starts.  The levels come with None for their
        # cells, so a greedy pick would raise TypeError.  The set's arcs are
        # covered in lockstep: one batch a round, as many rounds as the
        # longest single circle's scan has arcs, and the same points in all.
        fs = gen.assemble_furstenberg(
            FurstenbergConfig(s=1.0, t=1.0, k1=6, preset="concentric", seed=0)
        )
        level_keys, covered = fr._level_keys, []

        def no_cells(pts, s, r_min):
            covered.append(pts.shape[0])
            _, keys, w = level_keys(pts, s, r_min)
            return np.full(keys.shape, None, dtype=object), keys, w

        with mock.patch.object(fr, "_level_keys", no_cells):
            data = cli._arc_data(fs, 1.0, 0.75)
            rounds, points = len(covered), sum(covered)
            alone = []
            for z, pts in zip(fs.circles, (pts for _, pts in data)):
                covered.clear()
                inc.extract_three_arcs(z, pts, 1.0, 0.75, delta=fs.config.delta)
                alone.append((len(covered), sum(covered)))
        assert all(triple is not None for triple, _ in data)
        assert rounds == max(n for n, _ in alone) < len(fs.circles)
        assert points == sum(p for _, p in alone)

    def test_semicircle_concentration(self):
        k = 9
        d = 2.0 ** (-k)
        z = CircleParam((0.05, 0.0), 1.1)
        pts = uniform_circle(z, k)
        theta = inc.circle_angles(z, pts)
        half = pts[theta < math.pi]
        eta = inc.auto_eta(1.0, d, k)
        tri = inc.extract_three_arcs(z, half, 1.0, eta, delta=d)
        # all three arcs end inside the populated half (plus one arc slack)
        for lo, hi in tri.intervals:
            assert hi <= math.pi + 2 * tri.gamma / z.radius
        assert tri.min_chord_separation() >= tri.gamma / math.pi - 1e-12

    def test_arc_count_at_least_16(self):
        k = 8
        d = 2.0 ** (-k)
        z = CircleParam((0.0, 0.0), 0.5)
        pts = uniform_circle(z, k)
        eta = inc.auto_eta(1.0, d, k)
        gamma = (eta / 16.0) ** 1.0
        assert gamma <= 1.0 / 16.0
        assert math.ceil(2 * math.pi * z.radius / gamma) >= 16

    def test_bracket_invariant(self):
        k = 9
        d = 2.0 ** (-k)
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = CircleParam((rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)), rng.uniform(0.5, 2.0))
            s_prime = rng.choice([1.0, 0.7924812503605781])
            ang = gen.generate_angular_set(
                z, 0.8 if s_prime < 1 else 1.0, d, int(rng.integers(1 << 31))
            )
            pts = circle_points(z, ang)
            eta = inc.auto_eta(s_prime, d, k)
            tri = inc.extract_three_arcs(z, pts, s_prime, eta, delta=d)
            tol = tri.gamma ** s_prime
            for c in tri.contents:
                assert eta / 8.0 - tol <= c <= 3.0 * eta / 16.0 + tol
            assert tri.min_chord_separation() >= tri.gamma / math.pi - 1e-12

    def test_insufficient_content(self):
        k = 8
        d = 2.0 ** (-k)
        z = CircleParam((0.0, 0.0), 1.0)
        pts = circle_points(z, np.array([0.1, 1.0, 2.0]))
        with pytest.raises(InsufficientContent):
            inc.extract_three_arcs(z, pts, 1.0, 0.5, delta=d)


class TestContentDecision:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        n=st.integers(1, 60) | st.integers(61, 1500) | st.integers(4000, 5000),
        k=st.integers(5, 9),
        s_prime=st.sampled_from([0.55, 0.75, 0.7924812503605781, 1.0]),
        spread=st.sampled_from([0.05, 0.3, 1.0]),
        jitter=st.sampled_from([0.0, 0.25, 1.0, 40.0]),
        at_center=st.integers(0, 3),
        side=st.sampled_from(["sub", "full", "both"]),
        nudge=st.sampled_from([0.5, 1.0, "up", 1.5]),
    )
    def test_decision_matches_computed_estimate(
        self, seed, n, k, s_prime, spread, jitter, at_center, side, nudge
    ):
        # clouds on part of a random circle, jittered off it by up to
        # jitter * delta, some points at or next to the center; eta on both
        # sides of the strided and of the full estimate.  The rule the
        # decision replaces: fail when content_lower of the strided subset,
        # and then of the full cloud, falls below eta.
        rng = np.random.default_rng(seed)
        delta = 2.0 ** (-k)
        z = CircleParam(tuple(rng.uniform(-0.3, 0.3, 2)), rng.uniform(0.2, 2.0))
        ang = rng.uniform(0.0, 2.0 * math.pi * spread, n)
        rad = z.radius + jitter * delta * rng.uniform(-1.0, 1.0, n)
        pts = np.column_stack(
            [z.center[0] + rad * np.cos(ang), z.center[1] + rad * np.sin(ang)]
        )
        near = np.array(z.center) + rng.choice([0.0, 1e-12, delta / 3], (at_center, 1)) * [1, -1]
        pts = np.concatenate([near, pts])[: max(n, 1)]
        stride = max(1, -(-pts.shape[0] // 1024))
        lowers = {
            "sub": fr.content_lower(pts[::stride], s_prime, delta),
            "full": fr.content_lower(pts, s_prime, delta),
        }
        base = min(lowers.values()) if side == "both" else lowers[side]
        eta = np.nextafter(base, np.inf) if nudge == "up" else base * nudge
        if lowers["sub"] < eta and lowers["full"] < eta:
            with pytest.raises(InsufficientContent):
                inc._require_content(z, pts, inc.circle_angles(z, pts), s_prime, delta, eta)
        else:
            inc._require_content(z, pts, inc.circle_angles(z, pts), s_prime, delta, eta)

    @staticmethod
    def assert_reaches_exactly(z, pts, s_prime, delta, etas=()):
        """_content_reaches is content_lower(pts) >= eta, at the estimate, one
        ulp to each side of it and at `etas`."""
        theta = inc.circle_angles(z, pts)
        lower = fr.content_lower(pts, s_prime, delta)
        for eta in (lower, np.nextafter(lower, 0.0), np.nextafter(lower, np.inf), *etas):
            assert inc._content_reaches(z, pts, theta, s_prime, delta, eta) == (lower >= eta)

    @staticmethod
    def finest_den(pts, s_prime, delta):
        return fr._content_scales(pts, s_prime, delta)[0][0]

    def test_one_point(self):
        # no m < n = 1 exists, so the ceiling bound T is 0
        d = 2.0 ** (-8)
        z = CircleParam((0.1, -0.05), 0.8)
        self.assert_reaches_exactly(z, circle_points(z, np.array([2.0])), 1.0, d)

    @pytest.mark.parametrize("bound", ["T=0", "T=n-1"])
    def test_ceiling_bound_at_its_ends(self, bound):
        # eta set so that at the finest scale T, the largest m < n with
        # n / (m / den) >= eta, is 0 (never passes) or n - 1 (passes unless
        # one window holds every point)
        d = 2.0 ** (-8)
        z = CircleParam((0.1, -0.05), 0.8)
        for pts in (circle_points(z, np.linspace(0.0, 2.0, 400)), circle_points(z, [0.5, 2.5])):
            n, den = pts.shape[0], self.finest_den(pts, 1.0, d)
            eta = n / ((n - 1) / den) if bound == "T=n-1" else np.nextafter(n / (1 / den), np.inf)
            self.assert_reaches_exactly(z, pts, 1.0, d, [eta])

    def test_point_at_the_center_counts_exactly(self):
        # rho_min = 0 makes the slack infinite: no scale gets a ceiling
        d = 2.0 ** (-8)
        z = CircleParam((0.1, -0.05), 0.8)
        pts = np.concatenate([[z.center], circle_points(z, np.linspace(0.0, 3.0, 500))])
        with mock.patch.object(inc.math, "asin", side_effect=AssertionError):
            self.assert_reaches_exactly(z, pts, 1.0, d, [0.5, 0.9])

    def test_repeated_angles(self):
        # every angle twice, at radii r and r + delta / 2, and a duplicate point
        d = 2.0 ** (-8)
        z = CircleParam((0.1, -0.05), 0.8)
        ang = np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False)
        wide = CircleParam(z.center, z.radius + d / 2)
        pts = np.concatenate(
            [circle_points(z, ang), circle_points(wide, ang), circle_points(z, [0.0])]
        )
        n, den = pts.shape[0], self.finest_den(pts, 1.0, d)
        self.assert_reaches_exactly(z, pts, 1.0, d, [n / ((n - 1) / den), 0.5])

    def test_subset_short_full_cloud_decides(self):
        # n > 1024: the strided subset falls short of eta and the full cloud
        # reaches it, so both decisions run
        k = 8
        d = 2.0 ** (-k)
        z = CircleParam((0.1, -0.05), 0.8)
        pts = circle_points(z, np.linspace(0.0, 1.5, 1500))
        sub = fr.content_lower(pts[::2], 1.0, d)
        full = fr.content_lower(pts, 1.0, d)
        assert sub < full
        self.assert_reaches_exactly(z, pts, 1.0, d, [sub, full])
        theta = inc.circle_angles(z, pts)
        with mock.patch.object(inc, "_content_reaches", wraps=inc._content_reaches) as spy:
            inc._require_content(z, pts, theta, 1.0, d, full)
            with pytest.raises(InsufficientContent):
                inc._require_content(z, pts, theta, 1.0, d, np.nextafter(full, np.inf))
        assert spy.call_count == 4

    def test_strided_subset_reads_its_own_angles(self):
        # 1000 points spread round the circle, then 1000 in a cluster: the
        # strided subset holds half the cluster, which sets its estimate,
        # while the first 1000 angles alone hold none of it
        d = 2.0 ** (-8)
        z = CircleParam((0.1, -0.05), 0.8)
        ang = np.concatenate([np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False),
                              np.linspace(1.0, 1.0 + 4.0 * d, 1000)])
        pts = circle_points(z, ang)
        theta = inc.circle_angles(z, pts)
        sub, full = fr.content_lower(pts[::2], 1.0, d), fr.content_lower(pts, 1.0, d)
        for eta in (0.5 * min(sub, full), min(sub, full), max(sub, full), 1.5 * max(sub, full)):
            if sub < eta and full < eta:
                with pytest.raises(InsufficientContent):
                    inc._require_content(z, pts, theta, 1.0, d, eta)
            else:
                inc._require_content(z, pts, theta, 1.0, d, eta)

    def test_failure_message_prints_the_full_estimate(self):
        k = 8
        d = 2.0 ** (-k)
        z = CircleParam((0.1, -0.05), 0.8)
        pts = circle_points(z, np.linspace(0.0, 1.0, 300))
        lower = fr.content_lower(pts, 1.0, d)
        eta = 2.0 * lower
        with pytest.raises(InsufficientContent) as err:
            inc._require_content(z, pts, inc.circle_angles(z, pts), 1.0, d, eta)
        assert str(err.value) == f"content lower estimate {lower:.4g} below eta {eta:.4g}"

    def test_failing_small_circle_is_decided_once(self):
        # n <= 1024 makes the strided subset the full cloud itself
        k = 8
        d = 2.0 ** (-k)
        z = CircleParam((0.1, -0.05), 0.8)
        pts = circle_points(z, np.linspace(0.0, 1.0, 300))
        eta = 2.0 * fr.content_lower(pts, 1.0, d)
        with mock.patch.object(inc, "_content_reaches", wraps=inc._content_reaches) as spy:
            with pytest.raises(InsufficientContent):
                inc.extract_three_arcs(z, pts, 1.0, eta, delta=d)
        assert spy.call_count == 1

    @pytest.mark.parametrize("eta_rule", ["auto", 0.75])
    def test_arc_data_decides_once_per_circle(self, eta_rule):
        fs = gen.assemble_furstenberg(
            FurstenbergConfig(s=1.0, t=1.0, k1=6, preset="concentric", seed=0)
        )
        with mock.patch.object(inc, "_content_reaches", wraps=inc._content_reaches) as spy:
            cli._arc_data(fs, 1.0, eta_rule)
        assert spy.call_count == len(fs.circles)

    def test_arc_data_never_computes_a_failing_circles_estimate(self):
        # s = 0.5 and eta 1.0 at k1 = 6: 10 of the 64 circles fall short of
        # eta; _arc_data only counts them, so the estimate that the message
        # prints is never computed
        fs = gen.assemble_furstenberg(
            FurstenbergConfig(s=0.5, t=1.0, k1=6, preset="concentric", seed=0)
        )
        with mock.patch.object(inc, "content_lower", side_effect=AssertionError):
            data = cli._arc_data(fs, 0.5, 1.0)
        assert sum(triple is None for triple, _ in data) == 10

    def test_passing_circle_never_computes_the_estimate(self):
        k = 8
        d = 2.0 ** (-k)
        z = CircleParam((0.0, 0.0), 1.0)
        pts = uniform_circle(z, k)
        with mock.patch.object(inc, "content_lower", side_effect=AssertionError):
            eta = inc.auto_eta(1.0, d, k)
            inc.extract_three_arcs(z, pts, 1.0, eta, delta=d)


def brute_arc_sets(tri, pts, k):
    """Definitional python loops: the occupied cells of each of the three arcs."""
    sets = [set(), set(), set()]
    scale = 2 ** k
    for x, y in pts:
        theta = math.atan2(y - tri.z.center[1], x - tri.z.center[0]) % (2 * math.pi)
        for j, (lo, hi) in enumerate(tri.intervals):
            if lo <= theta < hi:
                sets[j].add((math.floor(x * scale), math.floor(y * scale)))
    return sets


def arc_sets(tri, pts, k):
    """The occupied cells of each arc as the triple index's kernel pass sees them."""
    return [
        set(map(tuple, fr._unpack(keys, 2).tolist()))
        for keys in inc._arc_cell_keys(tri, pts, k)
    ]


def synthetic_triple(z, intervals, gamma=0.01):
    return inc.ArcTriple(
        z=z,
        intervals=intervals,
        gamma=gamma,
        tau=gamma / math.pi,
        contents=(0.02, 0.02, 0.02),
    )


class TestTripleIndex:
    def test_single_cell_arcs(self):
        z = CircleParam((0.0, 0.0), 1.0)
        angs = np.array([0.05, 1.05, 2.05])
        pts = circle_points(z, angs)
        tri = synthetic_triple(z, ((0.0, 0.1), (1.0, 1.1), (2.0, 2.1)))
        ti = inc.build_triple_index([(tri, pts)], 6)
        assert ti.count == 1

    def test_product_count_eight(self):
        z = CircleParam((0.0, 0.0), 1.0)
        angs = np.array([0.02, 0.09, 1.02, 1.09, 2.02, 2.09])
        pts = circle_points(z, angs)
        tri = synthetic_triple(z, ((0.0, 0.1), (1.0, 1.1), (2.0, 2.1)))
        ti = inc.build_triple_index([(tri, pts)], 8)
        assert ti.counts.tolist() == [[2, 2, 2]]
        assert ti.count == 8

    def test_matches_brute_force(self):
        cfg = FurstenbergConfig(s=1.0, t=1.0, k1=7, preset="concentric", seed=5)
        fs = gen.assemble_furstenberg(cfg)
        d = cfg.delta
        data = []
        for z, ang in zip(fs.circles[:24], fs.angular[:24]):
            pts = circle_points(z, ang)
            eta = inc.auto_eta(1.0, d, cfg.k1)
            tri = inc.extract_three_arcs(z, pts, 1.0, eta, delta=d)
            data.append((tri, pts))
        ti = inc.build_triple_index(data, cfg.k1)
        # brute force: definitional python loops
        brute = set()
        for z_idx, (tri, pts) in enumerate(data):
            sets = brute_arc_sets(tri, pts, cfg.k1)
            assert arc_sets(tri, pts, cfg.k1) == sets
            assert ti.counts[z_idx].tolist() == [len(c) for c in sets]
            for a in sets[0]:
                for b in sets[1]:
                    for c in sets[2]:
                        brute.add((a, b, c, z_idx))
        assert ti.count == len(brute)

    def test_product_law(self):
        cfg = FurstenbergConfig(s=1.0, t=0.5, k1=7, preset="center-segment", seed=8)
        fs = gen.assemble_furstenberg(cfg)
        d = cfg.delta
        data = []
        for z, ang in zip(fs.circles, fs.angular):
            pts = circle_points(z, ang)
            eta = inc.auto_eta(1.0, d, cfg.k1)
            tri = inc.extract_three_arcs(z, pts, 1.0, eta, delta=d)
            data.append((tri, pts))
        ti = inc.build_triple_index(data, cfg.k1)
        total = 0
        for z_idx, (tri, pts) in enumerate(data):
            sets = brute_arc_sets(tri, pts, cfg.k1)
            assert arc_sets(tri, pts, cfg.k1) == sets
            quads = {(a, b, c) for a in sets[0] for b in sets[1] for c in sets[2]}
            row = ti.counts[z_idx]
            assert len(quads) == int(row[0] * row[1] * row[2])
            total += len(quads)
        assert ti.count == total

    def test_upper_ratio_arithmetic(self):
        ti = inc.TripleIndex(counts=np.array([[1, 1, 1]]))
        assert inc.triple_upper_ratio(ti, 3, 1.0) == pytest.approx(1.0 / 27.0)
        empty = inc.TripleIndex(counts=np.zeros((0, 3), dtype=np.int64))
        assert inc.triple_upper_ratio(empty, 3, 0.5) == 0.0

    def test_count_does_not_overflow(self):
        ti = inc.TripleIndex(counts=np.array([[2**22, 2**22, 2**22]]))
        assert ti.count == 2**66


def brute_multiplicity(measure, delta, grid_k, bbox):
    """Definitional cells-times-atoms double loop (atom-major, like the
    implementation, so float accumulation order matches exactly)."""
    g = 2.0 ** (-grid_k)
    (xlo, ylo), (xhi, yhi) = bbox
    ix = np.arange(math.floor(xlo / g), math.floor(xhi / g) + 1)
    iy = np.arange(math.floor(ylo / g), math.floor(yhi / g) + 1)
    gx, gy = np.meshgrid(ix, iy, indexing="ij")
    cells = np.column_stack([gx.ravel(), gy.ravel()])
    wx = (cells[:, 0] + 0.5) * g
    wy = (cells[:, 1] + 0.5) * g
    values = {}
    for i in range(len(measure)):
        cx, cy, r = measure.points[i]
        wgt = float(measure.weights[i])
        dist = np.hypot(wx - cx, wy - cy)
        hit = np.abs(dist - r) <= delta
        for row in cells[hit]:
            key = (int(row[0]), int(row[1]))
            values[key] = values.get(key, 0.0) + wgt
    return values


class TestMultiplicity:
    def test_single_circle_field(self):
        mu = fr.DiscreteMeasure(np.array([[0.0, 0.0, 1.0]]), np.array([1.0]))
        field = inc.multiplicity_field(mu, 2.0 ** (-7), 7)
        assert set(field.values.tolist()) == {1.0}
        assert field.sup <= mu.total_mass

    def test_disjoint_annuli(self):
        mu = fr.DiscreteMeasure(
            np.array([[0.0, 0.0, 0.8], [0.0, 0.0, 1.6]]), np.array([0.5, 0.5])
        )
        field = inc.multiplicity_field(mu, 2.0 ** (-7), 7)
        assert field.sup <= 0.5

    def test_matches_brute_force_exactly(self):
        cfg = FurstenbergConfig(s=1.0, t=1.0, k1=7, preset="concentric", seed=13)
        v = gen.generate_parameter_set(cfg)
        mu = fr.frostman_measure(v.cloud).scaled(1.0 / 49.0)
        field = inc.multiplicity_field(mu, cfg.delta, 7)
        brute = brute_multiplicity(mu, cfg.delta, 7, ((-2.2, -2.2), (2.2, 2.2)))
        assert dict(zip(map(tuple, field.cells.tolist()), field.values.tolist())) == brute

    @settings(max_examples=25, deadline=None)
    @given(
        k1=st.integers(5, 7),
        dk=st.sampled_from([-1, 1]),
        atoms=st.lists(
            st.tuples(
                st.just(0.0) | st.floats(-0.17, 0.17),
                st.floats(-0.17, 0.17),
                st.floats(0.5, 2.0),
                st.floats(0.01, 1.0),
            ),
            min_size=1,
            max_size=4,
        ),
        mass=st.floats(0.1, 1.0),
        tiny=st.none() | st.floats(0.0, 0.99),
    )
    def test_random_measures_match_brute_force_exactly(self, k1, dk, atoms, mass, tiny):
        # atoms in the reference box with non-uniform weights, a grid finer or
        # coarser than delta, and optionally a radius below delta (r_in = 0)
        delta = 2.0 ** (-k1)
        rows = [(cx, cy, r) for cx, cy, r, _ in atoms]
        raw = [w for *_, w in atoms]
        if tiny is not None:
            rows.append((rows[0][1], rows[0][0], tiny * delta))
            raw.append(raw[0] / 3.0)
        weights = np.array(raw) / math.fsum(raw) * mass
        mu = fr.DiscreteMeasure(np.array(rows), weights)
        field = inc.multiplicity_field(mu, delta, k1 + dk)
        brute = brute_multiplicity(mu, delta, k1 + dk, ((-2.3, -2.3), (2.3, 2.3)))
        assert dict(zip(map(tuple, field.cells.tolist()), field.values.tolist())) == brute

    def test_fubini_identity(self):
        cfg = FurstenbergConfig(s=1.0, t=1.0, k1=7, preset="concentric", seed=21)
        v = gen.generate_parameter_set(cfg)
        mu = fr.frostman_measure(v.cloud)
        field = inc.multiplicity_field(mu, cfg.delta, 7)
        # every atom's cells, recounted without the field's row and branch pruning
        assert field.per_atom_counts.tolist() == [
            inc.annulus_cell_count(atom, cfg.delta, 2.0 ** -7) for atom in mu.points
        ]
        lhs = math.fsum(field.values.tolist())
        rhs = math.fsum(
            float(mu.weights[i]) * int(field.per_atom_counts[i]) for i in range(len(mu))
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def per_atom_low_multiplicity(atom_idx, field, threshold):
    """(|S1|, |S2|, |S2|/|S1|) of one atom's annulus cells, counted from its
    own slice of the incidences; the ratio is 0.0 for an atom without cells.
    The per-atom reference for low_multiplicity_subset."""
    start = int(field.per_atom_counts[:atom_idx].sum())
    s1_count = int(field.per_atom_counts[atom_idx])
    low = field.values[field.positions[start : start + s1_count]] < threshold
    return s1_count, int(low.sum()), float(low.sum()) / s1_count if s1_count else 0.0


def low_multiplicity_rows(field, threshold):
    """(|S1|, |S2|, ratio) of every atom as the multiplicity command writes
    them: the ratio is 0.0 for an atom without cells."""
    s1 = field.per_atom_counts
    s2 = inc.low_multiplicity_subset(field, threshold)
    ratios = np.divide(s2, s1, out=np.zeros(s1.size), where=s1 > 0)
    return list(zip(s1.tolist(), s2.tolist(), ratios.tolist()))


class TestThresholds:
    def test_parameter_formulas(self):
        s_prime, t_prime, eps, k1 = 0.8, 0.6, 0.1, 9
        p = inc.ThresholdParams.from_exponents(s_prime, t_prime, eps, k1)
        delta = 2.0 ** (-k1)
        assert p.eta == pytest.approx(min(eps / (2 * t_prime), (2 * s_prime - 1) / 2))
        assert p.a_param == pytest.approx(delta ** (-p.eta))
        assert p.lam == pytest.approx(
            delta ** (1 - s_prime) / (2 * inc.C0_DEFAULT * 4 ** s_prime * k1 * k1)
        )
        assert p.threshold == pytest.approx(
            p.a_param ** t_prime * p.lam ** (-2 * t_prime) * delta ** t_prime
        )
        assert 0.0 < p.lam <= 1.0

    def test_single_circle_low_multiplicity(self):
        mu = fr.DiscreteMeasure(np.array([[0.0, 0.0, 1.0]]), np.array([1.0]))
        field = inc.multiplicity_field(mu, 2.0 ** (-7), 7)
        params = inc.ThresholdParams.from_exponents(0.8, 0.6, 0.1, 7)
        assert params.threshold > 1.0
        [(s1, s2, ratio)] = low_multiplicity_rows(field, params.threshold)
        assert s2 == s1
        assert ratio == 1.0

    def test_disjoint_family_low_multiplicity(self):
        mu = fr.DiscreteMeasure(
            np.array([[0.0, 0.0, 0.7], [0.0, 0.0, 1.4], [0.0, 0.0, 1.9]]),
            np.full(3, 1.0 / 3.0),
        )
        field = inc.multiplicity_field(mu, 2.0 ** (-7), 7)
        params = inc.ThresholdParams.from_exponents(0.9, 0.5, 0.2, 7)
        assert params.threshold > 1.0 / 3.0
        rows = low_multiplicity_rows(field, params.threshold)
        assert len(rows) == 3
        for s1, _, ratio in rows:
            assert ratio == 1.0
            assert s1 * (2.0 ** -7) ** 2 >= 0.0

    def test_threshold_between_multiplicities(self):
        # three overlapping annuli with distinct weights; the threshold sits
        # between one and two covering atoms, so each annulus has cells on
        # both sides of it
        mu = fr.DiscreteMeasure(
            np.array([[0.0, 0.0, 1.0], [0.1, 0.0, 1.0], [0.0, 0.1, 1.05]]),
            np.array([0.2, 0.3, 0.4]),
        )
        delta, grid_k, threshold = 2.0 ** (-6), 6, 0.45
        field = inc.multiplicity_field(mu, delta, grid_k)
        values = sorted(set(field.values.tolist()))
        assert any(lo < threshold < hi for lo, hi in zip(values, values[1:]))
        # recount each atom's cells and its cells below the threshold
        brute = brute_multiplicity(mu, delta, grid_k, ((-2.3, -2.3), (2.3, 2.3)))
        cells = np.array(list(brute))
        m = np.array(list(brute.values()))
        g = 2.0 ** (-grid_k)
        rows = low_multiplicity_rows(field, threshold)
        for idx, (cx, cy, r) in enumerate(mu.points):
            dist = np.hypot((cells[:, 0] + 0.5) * g - cx, (cells[:, 1] + 0.5) * g - cy)
            mine = np.abs(dist - r) <= delta
            s1, s2 = int(mine.sum()), int((m[mine] < threshold).sum())
            assert 0 < s2 < s1
            assert rows[idx] == (s1, s2, s2 / s1)

    def test_sim2_reference_area(self):
        params = inc.ThresholdParams.from_exponents(0.8, 0.6, 0.1, 8)
        mu = fr.DiscreteMeasure(np.array([[0.0, 0.0, 1.0]]), np.array([1.0]))
        field = inc.multiplicity_field(mu, 2.0 ** (-8), 8)
        delta = 2.0 ** (-8)
        expect = delta ** (2 - 0.8) / (4 ** 0.8 * 64)
        assert params.s1_area_reference == pytest.approx(expect)
        # the annulus area itself dominates the reference lower bound
        assert int(field.per_atom_counts[0]) * delta * delta >= expect

    @settings(max_examples=25, deadline=None)
    @given(
        k1=st.integers(5, 7),
        dk=st.sampled_from([-1, 1]),
        atoms=st.lists(
            st.tuples(
                st.just(0.0) | st.floats(-0.17, 0.17),
                st.floats(-0.17, 0.17),
                st.floats(0.5, 2.0),
                st.floats(0.01, 1.0),
            ),
            min_size=1,
            max_size=4,
        ),
        mass=st.floats(0.1, 1.0),
        tiny=st.none() | st.floats(0.0, 0.99),
    )
    @example(k1=5, dk=-1, atoms=[(0.0, 0.0, 1.0, 0.5)], mass=0.5, tiny=None)
    def test_one_pass_matches_per_atom_counts(self, k1, dk, atoms, mass, tiny):
        # the measures of test_random_measures_match_brute_force_exactly, plus
        # an atom of radius 0.3 delta centred at the cell corner (0, 0): on a
        # grid coarser than delta every cell center lies sqrt(2) delta from it,
        # beyond r + delta, so it has no cells and its ratio is 0.0
        delta = 2.0 ** (-k1)
        rows = [(cx, cy, r) for cx, cy, r, _ in atoms] + [(0.0, 0.0, 0.3 * delta)]
        raw = [w for *_, w in atoms] + [atoms[0][3]]
        if tiny is not None:
            rows.append((rows[0][1], rows[0][0], tiny * delta))
            raw.append(raw[0] / 3.0)
        weights = np.array(raw) / math.fsum(raw) * mass
        mu = fr.DiscreteMeasure(np.array(rows), weights)
        field = inc.multiplicity_field(mu, delta, k1 + dk)
        if dk < 0:
            assert field.per_atom_counts[len(atoms)] == 0
        # thresholds at, between and outside the distinct multiplicities; the
        # test is strict, so a threshold at a value leaves that value out
        m = sorted(set(field.values.tolist()))
        between = [(lo + hi) / 2.0 for lo, hi in zip(m, m[1:])]
        for threshold in m + between + [0.0, m[0] / 2.0, m[-1] * 2.0, math.inf]:
            expect = [per_atom_low_multiplicity(i, field, threshold) for i in range(len(mu))]
            assert low_multiplicity_rows(field, threshold) == expect
