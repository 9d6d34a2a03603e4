import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from flab import fractal as fr
from flab.errors import ConfigInvalid, DegenerateTriangle, EmptyInput
from flab.geometry import _hull_vertices


def line_grid(k):
    d = 2.0 ** (-k)
    xs = np.arange(0.0, 1.0 + d / 2.0, d)
    return np.column_stack([xs, np.zeros_like(xs)])


def square_grid(k):
    d = 2.0 ** (-k)
    g = np.arange(0.0, 1.0 + d / 2.0, d)
    gx, gy = np.meshgrid(g, g)
    return np.column_stack([gx.ravel(), gy.ravel()])


def circle_cloud(k, r=1.0, center=(0.0, 0.0)):
    d = 2.0 ** (-k)
    th = np.arange(0.0, 2.0 * math.pi, d / r)
    return np.column_stack([center[0] + r * np.cos(th), center[1] + r * np.sin(th)])


def min_separation(pts):
    tree = cKDTree(pts)
    dd, _ = tree.query(pts, k=2)
    return float(dd[:, 1].min())


def index_rows(dim):
    """(n, dim) int64 cell indices inside the guarded key range."""
    half = 1 << (63 // dim - 1)
    coord = st.one_of(st.integers(-3, 3), st.integers(-half, half - 1))
    return st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=60).map(
        lambda rows: np.array(rows, dtype=np.int64)
    )


def circumcenter_oracle(A, B, C):
    """geometry.circumcenter as it was written for one triangle, |u|^2 as u @ u."""
    u, v = B - A, C - A
    cross = u[0] * v[1] - u[1] * v[0]
    diam = max(np.hypot(*u), np.hypot(*v), np.hypot(*(C - B)))
    if abs(cross) < 1e-12 * diam * diam:
        raise DegenerateTriangle("collinear points within tolerance")
    bu, bv = float(u @ u), float(v @ v)
    mx = (bu * v[1] - bv * u[1]) / (2.0 * cross)
    my = (bv * u[0] - bu * v[0]) / (2.0 * cross)
    return A + np.array([mx, my]), float(np.hypot(mx, my))


def ball_oracle(pts):
    """_min_enclosing_ball_2d as it was written first, its 1-D distances by
    np.linalg.norm: Welzl, move-to-front, on the hull vertices above 16
    points, in the seeded order, one set at a time."""
    cand = _hull_vertices(pts) if pts.shape[0] > 16 else pts
    P = cand[np.random.default_rng(0).permutation(cand.shape[0])]
    eps = 1e-12

    def circumcircle2(p, q):
        c = 0.5 * (p + q)
        return c, float(np.linalg.norm(p - c))

    def ball_with_2(points, p, q):
        c, r = circumcircle2(p, q)
        for i in range(points.shape[0]):
            if np.linalg.norm(points[i] - c) > r * (1 + eps) + eps:
                try:
                    c, r = circumcenter_oracle(p, q, points[i])
                except DegenerateTriangle:
                    pass
        return c, r

    def ball_with_1(points, p):
        c, r = p.copy(), 0.0
        for i in range(points.shape[0]):
            if np.linalg.norm(points[i] - c) > r * (1 + eps) + eps:
                c, r = ball_with_2(points[:i], p, points[i])
        return c, r

    c, r = P[0].copy(), 0.0
    for i in range(1, P.shape[0]):
        if np.linalg.norm(P[i] - c) > r * (1 + eps) + eps:
            c, r = ball_with_1(P[:i], P[i])
    r = max(r, float(np.linalg.norm(pts - c, axis=1).max()))
    return c, r


def enclosing_oracle(pts, r_min):
    """The enclosing ball's radius, at least r_min, on ball_oracle."""
    if pts.shape[1] == 2 and pts.shape[0] >= 2:
        _, rad = ball_oracle(pts)
    else:
        c = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        rad = float(np.linalg.norm(pts - c, axis=1).max())
    return max(rad, r_min)


def greedy_oracle(pts, s, r_min):
    """content_greedy's per-level greedy: one _pack and one _unique_runs per
    dyadic level and step; the best of each level wins on score, then the
    coarser level, then the lower key."""
    pts = np.asarray(pts, dtype=float)
    rootd = math.sqrt(pts.shape[1])
    levels = list(range(max(math.floor(math.log2(1.0 / r_min)), 0) + 1))
    keys = np.stack([fr._pack(np.floor(pts * (1 << j)).astype(np.int64)) for j in levels])
    covered = np.zeros(pts.shape[0], dtype=bool)
    greedy_sum = 0.0
    while not covered.all():
        best = None
        live = ~covered
        for j in levels:
            u, starts, _ = fr._unique_runs(keys[j][live])
            c = np.diff(starts, append=int(live.sum()))
            scores = c / (rootd * 2.0 ** (-j)) ** s
            i = int(np.argmax(scores))
            cand = (float(scores[i]), -j, int(u[i]))
            if best is None or (cand[0], cand[1], -cand[2]) > (best[0], best[1], -best[2]):
                best = cand
        _, negj, key = best
        j = -negj
        side = 2.0 ** (-j)
        greedy_sum += (rootd * side) ** s
        covered |= live & (keys[j] == key)
    return min((2.0 * enclosing_oracle(pts, r_min)) ** s, greedy_sum)


def delta_q_oracle(cloud, q):
    """extract_delta_q_set's selection as a recursive allocator over dicts keyed
    by index tuples: each cube passes min(cap, budget left) to its children in
    order of (-count, key) and stops once its budget is spent."""
    k = cloud.k
    pts = cloud.points
    idx = np.floor(pts / cloud.delta).astype(np.int64)
    even = np.all(idx % 2 == 0, axis=1)
    if not np.any(even):
        return pts[:1]
    pts_e, idx_e = pts[even], idx[even]
    order = np.lexsort(tuple(pts_e[:, d] for d in reversed(range(pts_e.shape[1]))))
    _, starts, by_key = fr._unique_runs(fr._pack(idx_e)[order])
    first = order[by_key[starts]]
    reps, rep_idx = pts_e[first], idx_e[first]
    cubes = [tuple(r) for r in rep_idx.tolist()]
    rep_of = dict(zip(cubes, range(len(cubes))))
    counts = {k: dict.fromkeys(cubes, 1)}
    for j in range(k - 1, -1, -1):
        counts[j] = {}
        for cube, cnt in counts[j + 1].items():
            parent = tuple(v >> 1 for v in cube)
            counts[j][parent] = counts[j].get(parent, 0) + cnt
    children = {j: {} for j in range(k)}
    for j in range(1, k + 1):
        for cube in counts[j]:
            children[j - 1].setdefault(tuple(v >> 1 for v in cube), []).append(cube)
    chosen = []

    def allocate(cube, level, budget):
        if budget <= 0:
            return 0
        if level == k:
            chosen.append(rep_of[cube])
            return 1
        got = 0
        kids = sorted(children[level].get(cube, []), key=lambda c: (-counts[level + 1][c], c))
        cap_child = math.ceil(2.0 ** (q * (k - level - 1)))
        for kid in kids:
            if got >= budget:
                break
            got += allocate(kid, level + 1, min(cap_child, budget - got))
        return got

    for root in sorted(counts[0]):
        allocate(root, 0, math.ceil(2.0 ** (q * k)))
    return reps[np.array(sorted(chosen), dtype=int)]


def dyadic_clouds(dim_k):
    """n uniform points of the half-delta lattice in [-2^m, 2^m)^dim
    half-deltas, delta = 2^-k, for a drawn spread m and seed: several points
    share a delta-cube, even and odd cubes mix, negative coordinates occur,
    and a small spread packs enough points into each coarse cube that caps
    bind and siblings differ in count."""
    dim, k = dim_k
    return st.tuples(st.integers(1, k + 2), st.integers(1, 200), st.integers(0, 2**32 - 1)).map(
        lambda a: fr.PointCloud(
            np.random.default_rng(a[2]).integers(-(1 << a[0]), 1 << a[0], (a[1], dim))
            / (1 << (k + 1)),
            k,
        )
    )


def lattice_sets(dim):
    """Clusters 4 apart of points on a small lattice: runs tie across levels
    and keys, and the dyadic cover often beats the one enclosing ball."""
    cluster = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    offset = st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
    return st.tuples(
        st.lists(st.tuples(cluster, offset), min_size=1, max_size=30),
        st.sampled_from([0, 4]),
        st.sampled_from([1.0, 0.5, 0.25, 0.125, 0.1, 1.0 / 3.0]),
    ).map(lambda a: np.array([[a[1] * c + a[2] * p for c, p in zip(*q)] for q in a[0]]))


class TestCellKeys:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(index_rows))
    def test_unique_count_and_lexicographic_order(self, idx):
        uniq, starts, order = fr._unique_runs(fr._pack(idx))
        distinct = sorted(set(map(tuple, idx.tolist())))
        assert uniq.size == len(distinct)
        assert list(map(tuple, fr._unpack(uniq, idx.shape[1]).tolist())) == distinct
        assert list(map(tuple, idx[order[starts]].tolist())) == distinct

    @given(st.sampled_from([2, 3]), st.data())
    def test_out_of_range_index_raises(self, dim, data):
        half = 1 << (63 // dim - 1)
        idx = np.zeros((2, dim), dtype=np.int64)
        idx[1, data.draw(st.integers(0, dim - 1))] = data.draw(
            st.one_of(st.integers(-(1 << 62), -half - 1), st.integers(half, 1 << 62))
        )
        with pytest.raises(ConfigInvalid):
            fr._pack(idx)

    def test_create_keeps_3d_points_four_cells_apart(self):
        pts = np.array([[0.0, 0.0, 1.0], [4 * 2.0 ** -8, 0.0, 1.0]])
        assert len(fr.PointCloud.create(pts, 8)) == 2


def write_csv_per_row(path, header, rows):
    """One `str`-join and one write per row: the writer `write_csv` replaced,
    kept as its oracle."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


CSV_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 0.1 + 0.2]
CSV_BLOCK = 4


def csv_columns(n):
    """One strategy per kind of column `write_csv` takes, each of `n` values."""
    floats = st.one_of(st.sampled_from(CSV_FLOATS), st.floats(allow_nan=True))
    ints = st.integers(-(1 << 63), (1 << 63) - 1)
    return st.one_of(
        st.lists(floats, min_size=n, max_size=n).map(np.array),
        st.lists(ints, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.one_of(ints, st.integers(1 << 63, 1 << 70), floats), min_size=n, max_size=n),
        st.lists(st.sampled_from(["exact", "certified", ""]), min_size=n, max_size=n),
        st.just(range(n)),
    )


class TestWriteCsv:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_row_writer(self, data, tmp_path_factory):
        n = data.draw(st.sampled_from([0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1,
                                       2 * CSV_BLOCK + 1]))
        columns = data.draw(st.lists(csv_columns(n), min_size=1, max_size=4))
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        d = tmp_path_factory.mktemp("csv")
        with mock.patch.object(fr, "_CSV_BLOCK", CSV_BLOCK):
            fr.write_csv(d / "block.csv", "h", columns)
        write_csv_per_row(d / "row.csv", "h", rows)
        assert (d / "block.csv").read_bytes() == (d / "row.csv").read_bytes()


def load_csv_per_row(path):
    """A strip, a split and a `float` per value, one list per row: the reader
    `load_csv` replaced, kept as its oracle."""
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header != "dim,k":
            raise ValueError(f"bad cloud header: {header!r}")
        dim_s, k_s = fh.readline().strip().split(",")
        dim, k = int(dim_s), int(k_s)
        pts = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            vals = [float(v) for v in line.split(",")]
            if len(vals) != dim:
                raise ValueError("row arity does not match dim")
            pts.append(vals)
    points = np.array(pts, dtype=float).reshape(len(pts), dim)
    return fr.PointCloud(points, k)


CSV_VALUES = ["0", "-0", "+0", "-0.0", "5e-324", "-5e-324", "1e16", "+1", "1.", ".5", "1e-400"]
BLANKS = ["", " ", "\t", " \t ", "\x0b\x0c"]


def csv_row(dim, messy):
    """One body line of a cloud CSV: `dim` values, each padded with blanks, or
    a blank or whitespace-only line; in a messy file also non-finite values,
    rows of one value too many or too few, trailing commas and `#` lines."""
    value = st.one_of(st.sampled_from(CSV_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False).map(repr))
    widths = [dim]
    if messy:
        value = st.one_of(value, st.sampled_from(["nan", "-inf", "1e400", "-1e400"]))
        widths += [dim - 1, dim + 1]
    padded = st.tuples(st.sampled_from(BLANKS), value, st.sampled_from(BLANKS)).map("".join)
    row = st.sampled_from(widths).flatmap(lambda w: st.lists(padded, min_size=w, max_size=w))
    lines = [row.map(",".join), st.sampled_from(BLANKS)]
    if messy:
        lines += [row.map(lambda r: ",".join(r) + ","), st.sampled_from(["#", "# 0,0", "#0,0,0"])]
    return st.one_of(lines)


@st.composite
def cloud_csv_text(draw):
    """The text of a cloud CSV: the header, then a body of csv_row lines, each
    ended by LF or CRLF, the last one maybe not at all.  One file in four is
    messy (csv_row), or has a `dim` that is not its rows' width or k = 0."""
    dim, messy = draw(st.sampled_from([2, 3])), draw(st.sampled_from([False] * 3 + [True]))
    head = "dim,k\n" + draw(st.sampled_from(
        [f"{dim},6"] if not messy else [f"{dim},6", f"{5 - dim},6", f"{dim},0"]))
    ends = st.sampled_from(["\n", "\r\n"])
    rows = draw(st.lists(st.tuples(csv_row(dim, messy), ends).map("".join), max_size=12))
    tail = draw(st.sampled_from(["", "\n", " \r\n"]))
    return head + draw(ends) + "".join(rows) + tail


def loaded(load, path):
    """(points as int64 bits, k) of `load(path)`, or the type of what it raised."""
    try:
        cloud = load(path)
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return type(e)
    return cloud.points.view(np.int64).tolist(), cloud.k


class TestPointCloudCsv:
    @settings(max_examples=400, deadline=None)
    @given(text=cloud_csv_text())
    @example(text="dim,k\n2,6\n")
    @example(text="dim,k\r\n3,6\r\n \r\n\t\r\n")
    @example(text="dim,k\n2,6\n-0,5e-324\n \n\t1e16 , +1\r\n\n")
    @example(text="dim,k\n2,6\n1,2\n3\n")
    @example(text="dim,k\n2,6\n1,2,\n")
    @example(text="dim,k\n2,6\n# 1,2\n")
    @example(text="dim,k\n2,6\nnan,1\n")
    @example(text="dim,k\n2,6\n1e400,1\n")
    def test_matches_per_row_reader(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "c.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert loaded(fr.load_csv, path) == loaded(load_csv_per_row, path)

    # Python's float takes `_` digit separators and non-ASCII digits, which
    # loadtxt rejects; save_csv writes neither, so no cloud file holds them
    @pytest.mark.parametrize("value", ["1_0", "١"])
    def test_float_only_values_exit2(self, value, tmp_path):
        from flab import cli

        path = tmp_path / "c.csv"
        path.write_text(f"dim,k\n2,6\n{value},0.5\n0.25,0.5\n", encoding="utf-8")
        assert len(load_csv_per_row(path)) == 2
        with pytest.raises(ValueError):
            fr.load_csv(path)
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps({"cloud": str(path), "k_range": [1, 2, 3]}))
        assert cli.main(["boxdim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3.0, 3.0, (257, 2))
        pts[0] = [0.1 + 0.2, -1.5e-17]
        cloud = fr.PointCloud(pts, 7)
        p = tmp_path / "c.csv"
        fr.save_csv(cloud, p)
        back = fr.load_csv(p)
        assert back.k == 7 and back.dim == 2
        assert np.array_equal(back.points, cloud.points)
        p2 = tmp_path / "c2.csv"
        fr.save_csv(back, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_3d_round_trip(self, tmp_path):
        pts = np.array([[0.1, -0.2, 1.5], [0.0, 0.25, 0.5]])
        p = tmp_path / "v.csv"
        fr.save_csv(fr.PointCloud(pts, 6), p)
        back = fr.load_csv(p)
        assert back.dim == 3 and np.array_equal(back.points, pts)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_multi_block_round_trip(self, dim, tmp_path):
        rng = np.random.default_rng(dim)
        pts = rng.uniform(-3.0, 3.0, (2 * fr._CSV_BLOCK + 1, dim))
        pts[fr._CSV_BLOCK - 1 : fr._CSV_BLOCK + 1] = [5e-324, -0.0, 1e16][:dim]
        p, p2 = tmp_path / "c.csv", tmp_path / "c2.csv"
        fr.save_csv(fr.PointCloud(pts, 9), p)
        back = fr.load_csv(p)
        assert back.k == 9 and back.dim == dim
        assert np.array_equal(back.points.view(np.int64), pts.view(np.int64))
        fr.save_csv(back, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_empty_cloud(self, tmp_path):
        p = tmp_path / "e.csv"
        fr.save_csv(fr.PointCloud(np.empty((0, 2)), 6), p)
        assert p.read_bytes() == b"dim,k\n2,6\n"

    def test_dedupe_at_quarter_delta(self):
        k = 4
        d = 2.0 ** (-k)
        pts = np.array([[0.0, 0.0], [d / 16.0, 0.0], [0.5, 0.5]])
        cloud = fr.PointCloud.create(pts, k)
        assert len(cloud) == 2


class TestExtraction:
    def test_single_point(self):
        cloud = fr.PointCloud(np.array([[0.3, 0.4]]), 5)
        ds = fr.extract_delta_q_set(cloud, 1.0)
        assert len(ds.cloud) == 1
        assert ds.conc_measured <= 1.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fr.extract_delta_q_set(fr.PointCloud(np.empty((0, 2)), 5), 1.0)

    def test_line_grid_cardinality(self):
        # exhaustive oracle: the full grid has 2^6+1 points; extraction must
        # keep at least beta_hat * 2^6 / 64 of them
        k, q = 6, 1.0
        cloud = fr.PointCloud(line_grid(k), k)
        ds = fr.extract_delta_q_set(cloud, q)
        beta_hat = fr.content_lower(cloud.points, q, cloud.delta)
        assert beta_hat >= 0.25
        assert len(ds.cloud) >= beta_hat * 2 ** k / 64.0
        assert len(ds.cloud) <= 64.0 * 2 ** k
        assert min_separation(ds.cloud.points) >= cloud.delta

    def test_square_grid_audit(self):
        k, q = 5, 2.0
        cloud = fr.PointCloud(square_grid(k), k)
        ds = fr.extract_delta_q_set(cloud, q)
        assert min_separation(ds.cloud.points) >= cloud.delta
        assert ds.conc_measured <= 16.0
        assert fr.verify_non_concentration(ds, 1000, seed=9) <= 16.0

    def test_subset_of_input(self):
        k = 5
        cloud = fr.PointCloud(square_grid(k), k)
        ds = fr.extract_delta_q_set(cloud, 1.5)
        src = {tuple(p) for p in cloud.points}
        assert all(tuple(p) in src for p in ds.cloud.points)

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.sampled_from([2, 3]), st.integers(1, 7)).flatmap(dyadic_clouds),
        st.one_of(
            st.sampled_from([0.1, 0.5, 1.0, 1.5, 2.0, 3.0]),
            st.floats(0.1, 3.0, allow_subnormal=False),
        ),
    )
    def test_selection_matches_recursive_oracle(self, cloud, q):
        ds = fr.extract_delta_q_set(cloud, q)
        sel = delta_q_oracle(cloud, q)
        assert np.array_equal(ds.cloud.points, sel)
        ref = fr.DeltaQSet(fr.PointCloud(sel, cloud.k), q, 0.0)
        assert ds.conc_measured == fr.verify_non_concentration(ref, 256)

    def test_remark_sandwich_in_reference_box(self):
        # 3-d grid inside the reference parameter box
        k, q = 4, 1.0
        d = 2.0 ** (-k)
        xs = np.arange(-0.25, 0.25 + d / 2, d)
        rs = np.arange(0.5, 2.0 + d / 2, d)
        gx, gy, gr = np.meshgrid(xs, xs, rs)
        pts = np.column_stack([gx.ravel(), gy.ravel(), gr.ravel()])
        cloud = fr.PointCloud(pts, k)
        ds = fr.extract_delta_q_set(cloud, q)
        beta_hat = fr.content_lower(pts, q, d)
        n = len(ds.cloud)
        assert beta_hat > 0
        assert beta_hat * 2 ** (q * k) / 64.0 <= n <= 64.0 * 2 ** (q * k)


class TestNonConcentration:
    def test_single_point_ratio(self):
        ds = fr.DeltaQSet(fr.PointCloud(np.array([[0.0, 0.0]]), 5), 1.0, 0.0)
        assert fr.verify_non_concentration(ds, 10) <= 1.0

    def test_arithmetic_progression(self):
        k = 6
        d = 2.0 ** (-k)
        pts = np.column_stack([np.arange(64) * d, np.zeros(64)])
        ds = fr.DeltaQSet(fr.PointCloud(pts, k), 1.0, 0.0)
        # each ball of radius r holds at most 2r/delta + 1 points
        assert fr.verify_non_concentration(ds, 500, seed=1) <= 3.0


class TestFrostman:
    def test_uniform_weights(self):
        cloud = fr.PointCloud(np.array([[0.0, 0.0], [1, 0], [0, 1], [1, 1]], float), 4)
        mu = fr.frostman_measure(cloud)
        assert np.allclose(mu.weights, 0.25)
        assert mu.total_mass == 1.0

    def test_frostman_condition_from_audit(self):
        k, q = 5, 2.0
        cloud = fr.PointCloud(square_grid(k), k)
        ds = fr.extract_delta_q_set(cloud, q)
        mu = fr.frostman_measure(ds.cloud)
        conc = ds.conc_measured
        n = len(ds.cloud)
        rng = np.random.default_rng(4)
        d = cloud.delta
        for _ in range(100):
            z = rng.uniform(-0.1, 1.1, 2)
            for j in range(1, k):
                r = 2.0 ** (-j)
                mass = mu.weights[np.linalg.norm(mu.points - z, axis=1) <= r].sum()
                assert mass <= conc / n * (r / d) ** q + 1e-12

    def test_scaled_measure(self):
        cloud = fr.PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]), 4)
        mu = fr.frostman_measure(cloud).scaled(0.25)
        assert mu.total_mass == pytest.approx(0.25)


class TestContent:
    def test_single_point_upper_shrinks(self):
        pts = np.array([[0.3, 0.4]])
        e1 = fr.content_greedy(pts, 0.5, 0.01)
        e2 = fr.content_greedy(pts, 0.5, 0.001)
        assert e1 <= (2 * 0.01) ** 0.5 * (1 + 1e-12)
        assert e2 <= (2 * 0.001) ** 0.5 * (1 + 1e-12)
        assert e2 < e1
        lower = min(fr.content_lower(pts, 0.5, 0.001), e1)
        assert lower <= e1

    def test_circle_two_sided(self):
        k = 7
        pts = circle_cloud(k)
        est = fr.content_greedy(pts, 1.0, 2.0 ** (-k))
        lower = min(fr.content_lower(pts, 1.0, 2.0 ** (-k)), est)
        assert est <= 2.0 * (1 + 1e-9)
        assert lower >= 1.0
        assert lower <= est

    def test_block_count_anchored_at_an_empty_cell(self):
        # cells (1, 0) and (0, 1) share only the block whose lower-left cell
        # (0, 0) is empty
        pts = np.array([[1.05, 0.95], [0.95, 1.05]])
        assert fr._block_max_count(pts, 1.0) == 2

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=40),
        st.sampled_from([0.5, 1.0, 3.0]),
    )
    def test_block_count_matches_brute_force(self, rows, side):
        pts = (np.array(rows, dtype=float) + 0.5) * side / 2.0
        idx = np.floor(pts / side).astype(int)
        brute = max(
            int(np.all((idx >= (ax, ay)) & (idx <= (ax + 1, ay + 1)), axis=1).sum())
            for ax in range(-5, 5)
            for ay in range(-5, 5)
        )
        assert fr._block_max_count(pts, side) == brute

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from([2, 3]).flatmap(lattice_sets),
        st.one_of(
            st.sampled_from([2.0, 1.0, 0.5]),
            st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False),
        ),
        st.sampled_from([4.0, 1.0, 0.5, 2.0 ** -4, 2.0 ** -6, 0.3, 0.05, 0.02]),
    )
    # a unit cell holding two points ties its two half cells at s = 1; the
    # coarser cell wins, and two such cells 8 apart beat the enclosing ball
    @example(np.array([[0.25, 0.25], [0.75, 0.25], [8.25, 0.25], [8.75, 0.25]]), 1.0, 0.5)
    def test_greedy_matches_per_level_oracle(self, pts, s, r_min):
        assert fr.content_greedy(pts, s, r_min) == greedy_oracle(pts, s, r_min)

    @staticmethod
    def ball_set(seed, n, kind, log_scale):
        """Uniform points, lattice points with repeats, or points near one
        circle, scaled by 10^log_scale and shifted."""
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            pts = rng.uniform(-1.0, 1.0, (n, 2))
        elif kind == "lattice":
            pts = rng.integers(-2, 3, (n, 2)) / 2.0
        else:
            ang = rng.uniform(0.0, 2.0 * math.pi, n)
            pts = np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(0.999, 1.001, (n, 1))
        return pts * 10.0 ** log_scale + rng.uniform(-1.0, 1.0, 2)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2 ** 32 - 1),
                st.one_of(st.integers(2, 4), st.integers(2, 40)),
                st.sampled_from(["uniform", "lattice", "ring"]),
                st.floats(-6.0, 1.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    # 17 points: the first count that goes through the hull; repeated sizes
    # share a lockstep group, and a hull set may join a direct set's size
    @example([(0, 17, "uniform", 0.0)])
    @example([(0, 3, "uniform", 0.0), (1, 3, "lattice", -3.0), (2, 3, "ring", 1.0),
              (3, 2, "uniform", -6.0), (4, 30, "ring", 0.0), (5, 40, "lattice", 0.0)])
    def test_ball_matches_norm_oracle(self, specs):
        # one batch of sets of mixed kinds, sizes and scales from 1e-6 to 10:
        # every row is bit for bit the one-set Welzl with np.linalg.norm
        sets = [self.ball_set(*spec) for spec in specs]
        centers, radii = fr._min_enclosing_ball_2d(sets)
        assert len(radii) == len(sets)
        for pts, center, rad in zip(sets, centers, radii):
            want_center, want_rad = ball_oracle(pts)
            assert center.tobytes() == want_center.tobytes()
            assert rad == want_rad and type(rad) is type(want_rad)

    @pytest.mark.parametrize("kind", ["random", "lattice", "subnormal", "huge"])
    def test_vecdot_rows_are_ddot(self, kind):
        # the Welzl kernel's premise: np.vecdot(D, D) on a C-contiguous
        # (n, 2) difference of gathered rows is v.dot(v) per row, bit for bit
        rng = np.random.default_rng(0)
        scale = {"random": 1.0, "lattice": 1.0, "subnormal": 1e-310, "huge": 1e150}[kind]
        X = rng.uniform(-1.0, 1.0, (20000, 2)) * scale
        if kind == "lattice":
            X = np.round(X * 8.0) / 8.0
        c = X[rng.permutation(X.shape[0])]
        rows = np.arange(0, X.shape[0], 2)
        D = X[rows] - c[rows]
        assert D.flags.c_contiguous
        got = np.vecdot(D, D)
        want = np.array([d.dot(d) for d in D])
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == np.array([d @ d for d in D]).tobytes()  # circumcenter's form
        assert np.sqrt(got).tobytes() == np.array([math.sqrt(x) for x in want.tolist()]).tobytes()

    def test_welzl_order_is_the_seeded_permutation(self):
        for n in range(2, 65):
            order = fr._welzl_order(n)
            assert np.array_equal(order, np.random.default_rng(0).permutation(n))
            assert not order.flags.writeable
            with pytest.raises(ValueError):
                order[0] = 0

    def test_middle_half_cantor_vs_dp_oracle(self):
        # exact dynamic-programming cover over dyadic intervals of level <= 12
        level = 6
        x = np.array([0.0])
        for j in range(1, level + 1):
            x = np.concatenate([x, x + 3.0 * 4.0 ** (-j)])
        x = np.sort(x)
        s = 0.5
        delta = 4.0 ** (-level)

        def dp(lo, size):
            sel = x[(x >= lo) & (x < lo + size)]
            if sel.size == 0:
                return 0.0
            if size <= delta:
                return size ** s
            return min(size ** s, dp(lo, size / 2) + dp(lo + size / 2, size / 2))

        oracle = dp(0.0, 1.0)
        pts = np.column_stack([x, np.zeros_like(x)])
        est = fr.content_greedy(pts, s, delta)
        lower = min(fr.content_lower(pts, s, delta), est)
        assert lower <= oracle * 1.0001
        assert est <= 8.0 * lower
        assert lower <= est
