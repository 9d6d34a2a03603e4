import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flab import geometry as geo
from flab.errors import DegenerateTriangle, HypothesisViolated

EQUILATERAL = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))


def equilateral_frame():
    A, B, C = EQUILATERAL
    return geo.TriangleFrame.create(A, B, C, 0.5)


def w_region_membership(frame, a, b, x):
    """Whether (x, b) satisfies all three closed annulus constraints."""
    for P in (frame.a, frame.b, frame.c):
        d = math.hypot(x[0] - P[0], x[1] - P[1])
        if not (b - a <= d <= b + a):
            return False
    return True


class TestCircumcenter:
    def test_symmetric_triple(self):
        M, h = geo.circumcenter((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0))
        assert np.allclose(M, [0.0, 0.0], atol=1e-15)
        assert h == pytest.approx(1.0, rel=1e-12)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateTriangle):
            geo.circumcenter((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))

    def test_against_linear_system_oracle(self):
        # Independent route: solve the two perpendicular-bisector equations
        # 2(B-A).M = |B|^2-|A|^2, 2(C-A).M = |C|^2-|A|^2 as a 2x2 system.
        A, B, C = np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.3, 0.9])
        lhs = 2.0 * np.array([B - A, C - A])
        rhs = np.array([B @ B - A @ A, C @ C - A @ A])
        M_oracle = np.linalg.solve(lhs, rhs)
        M, h = geo.circumcenter(A, B, C)
        assert np.allclose(M, M_oracle, rtol=1e-9, atol=1e-12)
        assert h == pytest.approx(float(np.linalg.norm(M_oracle - A)), rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_equidistance_property(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2.0, 2.0, (3, 2))
        try:
            M, h = geo.circumcenter(*pts)
        except DegenerateTriangle:
            return
        for P in pts:
            assert abs(np.linalg.norm(M - P) - h) <= 1e-9 * max(h, 1.0)


class TestPairwiseRectangle:
    def test_reference_example(self):
        rect = geo.pairwise_rectangle((-1.0, 0.0), (1.0, 0.0), 0.005, 0.5)
        assert rect.center == (0.0, 0.0)
        assert rect.short_half == pytest.approx(0.045)
        assert rect.long_half == 3.0
        assert abs(rect.long_axis[0]) < 1e-15 and abs(rect.long_axis[1]) == 1.0

    def test_exact_intersection_witness(self):
        rect = geo.pairwise_rectangle((-1.0, 0.0), (1.0, 0.0), 0.005, 0.5)
        p = (0.0, math.sqrt(1.5 ** 2 - 1.0))
        for center in ((-1.0, 0.0), (1.0, 0.0)):
            assert abs(math.hypot(p[0] - center[0], p[1] - center[1]) - 1.5) <= 0.005
        assert rect.contains_many(np.array([p])).all()

    def test_short_half_below_long_half(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = rng.uniform(0.05, 0.9)
            a = c * c / 20.0 * rng.uniform(0.01, 0.99)
            rect = geo.pairwise_rectangle((0.0, 0.0), (2.1 * c, 0.0), a, c)
            assert rect.short_half < rect.long_half

    def test_rejection_sampled_containment(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = rng.uniform(0.05, 0.8)
            A = rng.uniform(-1.0, 1.0, 2)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            B = A + rng.uniform(2 * c, 3.5) * np.array([math.cos(ang), math.sin(ang)])
            a = c * c / 20.0 * rng.uniform(0.05, 0.95)
            rect = geo.pairwise_rectangle(A, B, a, c)
            pts, _ = geo.sample_two_annulus_points(A, B, a, 200, rng)
            assert pts.shape[0] == 200
            assert rect.contains_many(pts).all()

    def test_hypothesis_violations(self):
        with pytest.raises(HypothesisViolated):
            geo.pairwise_rectangle((0.0, 0.0), (0.5, 0.0), 0.001, 0.5)
        with pytest.raises(HypothesisViolated):
            geo.pairwise_rectangle((0.0, 0.0), (2.0, 0.0), 0.5, 0.5)
        with pytest.raises(HypothesisViolated):
            geo.pairwise_rectangle((0.0, 0.0), (3.0, 0.0), 0.001, 1.5)


class TestThreeCircleBound:
    def test_equilateral_values(self):
        wb = geo.three_circle_bound(equilateral_frame(), 0.01)
        assert isinstance(wb, geo.WRegionBound)
        assert np.allclose(wb.circumcenter, [0.5, math.sqrt(3.0) / 6.0])
        assert wb.circumradius == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
        assert wb.diam_bound == pytest.approx(324.0 * 0.01 / 0.25)
        assert wb.radius_interval == (0.5, 2.0)

    def test_collinear_empty(self):
        frame = geo.TriangleFrame.create((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), 0.5)
        assert frame.degenerate
        assert isinstance(geo.three_circle_bound(frame, 0.01), geo.EmptyRegion)

    def test_width_hypothesis(self):
        with pytest.raises(HypothesisViolated):
            geo.three_circle_bound(equilateral_frame(), 0.2)


class TestWRegion:
    def test_circumcenter_concurrence(self):
        frame = equilateral_frame()
        M, h = geo.circumcenter(*EQUILATERAL)
        assert w_region_membership(frame, 0.001, h, M)

    def test_far_offset_by_direct_evaluation(self):
        frame = equilateral_frame()
        a = 0.001
        M, h = geo.circumcenter(*EQUILATERAL)
        x = M + np.array([10.0 * a / 0.25, 0.0])
        # direct-evaluation oracle
        dists = [math.hypot(x[0] - P[0], x[1] - P[1]) for P in EQUILATERAL]
        expect = all(h - a <= d <= h + a for d in dists)
        assert w_region_membership(frame, a, h, x) == expect
        assert expect is False  # 10*a/c^2 = 0.04 exceeds the annulus width

    def test_members_match_membership(self):
        frame = equilateral_frame()
        members = geo.w_region_grid_members(frame, 0.01, 0.001)
        assert members.shape[0] > 0
        for row in members[:: max(1, members.shape[0] // 50)]:
            assert w_region_membership(frame, 0.01, row[2], row[:2])

    def test_equilateral_sampled_diameter(self):
        d = geo.w_region_sample_diameter(equilateral_frame(), 0.01, 0.001)
        assert d <= 324.0 * 0.01 / 0.25
        assert d <= 0.5
        # oracle value recorded at build time; grid is origin-anchored
        assert d == pytest.approx(0.02596150997149431, rel=1e-9)

    def test_isoceles_bit_stable(self):
        frame = geo.TriangleFrame.create((0.0, 0.0), (1.0, 0.0), (0.5, 0.8), 0.4)
        d1 = geo.w_region_sample_diameter(frame, 0.002, 0.0002)
        d2 = geo.w_region_sample_diameter(frame, 0.002, 0.0002)
        assert d1 == d2
        assert d1 == pytest.approx(0.00558211429478115, rel=1e-9)

    def test_grid_step_precondition(self):
        with pytest.raises(HypothesisViolated):
            geo.w_region_sample_diameter(equilateral_frame(), 0.01, 0.004)

    def test_collinear_frames_have_no_members(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x1, x2 = sorted(rng.uniform(-1.0, 1.0, 2))
            x3 = x2 + rng.uniform(0.3, 1.0)
            ang = rng.uniform(0.0, 2 * math.pi)
            u = np.array([math.cos(ang), math.sin(ang)])
            base = rng.uniform(-0.2, 0.2, 2)
            pts = [base + x * u for x in (x1, x2, x3)]
            sep = min(
                np.linalg.norm(pts[0] - pts[1]),
                np.linalg.norm(pts[1] - pts[2]),
                np.linalg.norm(pts[0] - pts[2]),
            )
            c = min(0.45, 0.999 * sep / 2.0)
            frame = geo.TriangleFrame.create(*pts, c)
            assert frame.degenerate
            a = c * c / 40.0
            assert geo.w_region_sample_diameter(frame, a, a / 8.0) == 0.0

    def test_radius_confinement(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            c = rng.uniform(0.2, 0.45)
            while True:
                P = rng.uniform(-1.0, 1.0, (3, 2))
                sep = min(
                    np.linalg.norm(P[0] - P[1]),
                    np.linalg.norm(P[1] - P[2]),
                    np.linalg.norm(P[0] - P[2]),
                )
                if sep >= 2 * c:
                    break
            a = c * c / 20.0 * rng.uniform(0.1, 0.9)
            frame = geo.TriangleFrame.create(*P, c)
            members = geo.w_region_grid_members(frame, a, a / 10.0)
            if members.shape[0] == 0:
                continue
            wb = geo.three_circle_bound(frame, a)
            lo, hi = wb.radius_interval
            assert members[:, 2].min() >= lo - 1e-12
            assert members[:, 2].max() <= hi + 1e-12
            # planar extent obeys the 324*a/c^2 ball, the R^3 extent twice it
            planar = geo._diameter(members[:, :2])
            assert planar <= wb.diam_bound + 1e-12
            assert geo._diameter(members) <= 2 * wb.diam_bound + 1e-12
            checked += 1
        assert checked > 0

    def test_diameter_within_agrees_with_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            c = rng.uniform(0.2, 0.45)
            while True:
                P = rng.uniform(-1.0, 1.0, (3, 2))
                sep = min(
                    np.linalg.norm(P[0] - P[1]),
                    np.linalg.norm(P[1] - P[2]),
                    np.linalg.norm(P[0] - P[2]),
                )
                if sep >= 2 * c:
                    break
            a = c * c / 20.0 * rng.uniform(0.1, 0.9)
            frame = geo.TriangleFrame.create(*P, c)
            bound = 2.0 * geo.THREE_CIRCLE_K * a / (c * c)
            assert geo.w_region_diameter_within(frame, a, a / 10.0, bound)

    @pytest.mark.parametrize("step", [0.0, -0.001, 0.005])
    @pytest.mark.parametrize(
        "scan",
        [
            geo.w_region_grid_members,
            geo.w_region_sample_diameter,
            lambda frame, a, g: geo.w_region_diameter_within(frame, a, g, 1.0),
        ],
        ids=["grid_members", "sample_diameter", "diameter_within"],
    )
    def test_grid_step_outside_range_raises(self, scan, step):
        # 0, -a/10 and a/2 for a = 0.01: a step <= 0 would refine forever
        t0 = time.perf_counter()
        with pytest.raises(HypothesisViolated):
            scan(equilateral_frame(), 0.01, step)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize(
        "frame, a, g",
        [
            (equilateral_frame(), 0.01, 0.001),
            (geo.TriangleFrame.create((0.0, 0.0), (1.0, 0.0), (0.5, 0.8), 0.4), 0.002, 0.0002),
        ],
        ids=["equilateral", "isoceles"],
    )
    def test_members_are_every_grid_point_of_w(self, frame, a, g):
        # full scan of the members' bounding box, padded by 3 steps, point by point
        members = geo.w_region_grid_members(frame, a, g)
        idx = np.round((members - [0.0, 0.0, 0.5]) / g).astype(int)
        lo = idx.min(axis=0) - 3
        hi = idx.max(axis=0) + 3
        found = set()
        for i in range(lo[0], hi[0] + 1):
            for j in range(lo[1], hi[1] + 1):
                for m in range(lo[2], hi[2] + 1):
                    b = 0.5 + m * g
                    if 0.5 <= b <= 2.0 and w_region_membership(frame, a, b, (i * g, j * g)):
                        found.add((i * g, j * g, b))
        assert len(found) > 1000
        assert sorted(found) == sorted(map(tuple, members.tolist()))


def all_pairs_diameter(points):
    """Max over all pairs of the same squared-distance expression, in row blocks."""
    best = 0.0
    for i in range(0, points.shape[0], 512):
        d2 = ((points[i : i + 512, None, :] - points[None, :, :]) ** 2).sum(-1)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


@st.composite
def lattice_sets(draw):
    """Lattice point sets like the grid members: general, collinear or
    coplanar, with repeated rows, 0 points and up."""
    dim = draw(st.sampled_from([2, 3]))
    rank = draw(st.integers(min_value=1, max_value=dim))
    n = draw(st.integers(min_value=0, max_value=40))
    ints = st.integers(min_value=-12, max_value=12)
    basis = np.array(draw(st.lists(st.lists(ints, min_size=dim, max_size=dim), min_size=rank + 1, max_size=rank + 1)))
    coef = np.array(draw(st.lists(st.lists(ints, min_size=rank, max_size=rank), min_size=n, max_size=n)), dtype=np.int64)
    idx = basis[0] + coef.reshape(n, rank) @ basis[1:]
    if n:
        idx = np.concatenate([idx, idx[draw(st.lists(st.integers(0, n - 1), max_size=5))]])
    step = draw(st.sampled_from([1.0, 0.37, 1e-3]))
    return idx * step + draw(st.sampled_from([0.0, 0.5]))


class TestDiameter:
    @settings(max_examples=300, deadline=None)
    @given(lattice_sets())
    def test_matches_all_pairs(self, pts):
        assert geo._diameter(pts) == all_pairs_diameter(pts)

    def test_large_member_set_matches_all_pairs(self):
        members = geo.w_region_grid_members(equilateral_frame(), 0.01, 0.01 / 12.0)
        assert members.shape[0] > 4096
        assert geo._diameter(members) == all_pairs_diameter(members)
        assert geo._diameter(members[:, :2]) == all_pairs_diameter(members[:, :2])
