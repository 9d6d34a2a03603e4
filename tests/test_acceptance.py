"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
from scipy.spatial import cKDTree

from flab import fractal as fr
from flab import generators as gen
from flab import geometry as geo
from flab import incidence as inc
from flab.errors import InsufficientContent
from flab.generators import FurstenbergConfig
from flab.geometry import CircleParam

SEED = 20260810


def report(num, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_frame(rng, c):
    while True:
        P = rng.uniform(-1.0, 1.0, (3, 2))
        sep = min(
            math.hypot(*(P[0] - P[1])),
            math.hypot(*(P[0] - P[2])),
            math.hypot(*(P[1] - P[2])),
        )
        if sep >= 2.0 * c:
            return P


def positive_unit(rng):
    while True:
        u = rng.random()
        if 0.0 < u < 1.0:
            return u


def circle_points(z, angles):
    return np.column_stack(
        [z.center[0] + z.radius * np.cos(angles), z.center[1] + z.radius * np.sin(angles)]
    )


def test_criterion_1_three_circle_suite():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(1000):
        c = rng.uniform(0.05, 0.5)
        P = random_frame(rng, c)
        a = c * c / 20.0 * positive_unit(rng)
        frame = geo.TriangleFrame.create(P[0], P[1], P[2], c)
        bound = 2.0 * geo.THREE_CIRCLE_K * a / (c * c)
        if not geo.w_region_diameter_within(frame, a, a / 10.0, bound):
            violations += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        violations == 0 and elapsed < 120.0,
        f"three-circle suite: 1000 frames, {violations} samples beyond "
        f"2*324*a/c^2, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_rectangle_containment():
    rng = np.random.default_rng(SEED + 1)
    t0 = time.perf_counter()
    outside = 0
    sampled = 0
    for _ in range(1000):
        c = rng.uniform(0.05, 0.8)
        A = rng.uniform(-1.0, 1.0, 2)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        B = A + rng.uniform(2.0 * c, 3.5) * np.array([math.cos(ang), math.sin(ang)])
        a = c * c / 20.0 * positive_unit(rng)
        rect = geo.pairwise_rectangle(A, B, a, c)
        pts, _ = geo.sample_two_annulus_points(A, B, a, 1000, rng)
        sampled += pts.shape[0]
        outside += int((~rect.contains_many(pts)).sum())
    elapsed = time.perf_counter() - t0
    report(
        2,
        outside == 0 and sampled >= 900_000,
        f"rectangle containment: {sampled} annulus-intersection samples over "
        f"1000 pairs, {outside} outside, {elapsed:.1f}s",
    )


def test_criterion_3_delta_q_extraction():
    t0 = time.perf_counter()
    failures = []
    for k in (5, 6, 7, 8):
        d = 2.0 ** (-k)
        g = np.arange(0.0, 1.0 + d / 2.0, d)
        gx, gy = np.meshgrid(g, g)
        cloud = fr.PointCloud(np.column_stack([gx.ravel(), gy.ravel()]), k)
        for q in (0.5, 1.0, 1.5, 2.0):
            ds = fr.extract_delta_q_set(cloud, q)
            pts = ds.cloud.points
            tree = cKDTree(pts)
            if len(pts) > 1:
                dd, _ = tree.query(pts, k=2)
                if dd[:, 1].min() < d * (1 - 1e-12):
                    failures.append((k, q, "separation"))
            ratio = fr.verify_non_concentration(ds, 512, seed=SEED)
            if ratio > 16.0:
                failures.append((k, q, f"ratio {ratio:.2f}"))
            norm_pts, scale = fr.normalize_to_unit_ball(cloud.points)
            beta_hat = fr.content_lower(norm_pts, q, d * scale)
            n = len(pts)
            if not (beta_hat * 2.0 ** (q * k) / 64.0 <= n <= 64.0 * 2.0 ** (q * k)):
                failures.append((k, q, f"cardinality {n}"))
    elapsed = time.perf_counter() - t0
    report(
        3,
        not failures,
        f"(delta,q)-extraction over delta=2^-5..2^-8, q in {{0.5,1,1.5,2}}: "
        f"separation, audit <= 16, cardinality window all hold "
        f"({failures if failures else 'no violations'}), {elapsed:.1f}s",
    )


# --- criterion 4 helpers ------------------------------------------------------


def brute_box(pts, k):
    cells = set()
    s = 2 ** k
    for x, y in pts:
        cells.add((math.floor(x * s), math.floor(y * s)))
    return cells


def brute_arc_sets(data, k):
    """Per circle, the occupied cells of each of its three arcs (None without
    a triple)."""
    out = []
    s = 2 ** k
    for tri, pts in data:
        if tri is None:
            out.append(None)
            continue
        sets = [set(), set(), set()]
        for x, y in pts:
            theta = math.atan2(y - tri.z.center[1], x - tri.z.center[0]) % (2 * math.pi)
            for j, (lo, hi) in enumerate(tri.intervals):
                if lo <= theta < hi:
                    sets[j].add((math.floor(x * s), math.floor(y * s)))
        out.append(sets)
    return out


def brute_triples(arc_sets):
    """The quadruples (cell+, cell-, cellx, circle index) of per-arc cell sets."""
    out = set()
    for z_idx, sets in enumerate(arc_sets):
        if sets is None:
            continue
        for a in sets[0]:
            for b in sets[1]:
                for c in sets[2]:
                    out.add((a, b, c, z_idx))
    return out


def triples_match(ti, data, k):
    """Each arc's cells from the triple index's kernel pass, each row of
    counts and #T all equal the brute force's."""
    brute = brute_arc_sets(data, k)
    kernel = [
        None
        if tri is None
        else [
            set(map(tuple, fr._unpack(keys, 2).tolist()))
            for keys in inc._arc_cell_keys(tri, pts, k)
        ]
        for tri, pts in data
    ]
    rows = [[0, 0, 0] if sets is None else [len(c) for c in sets] for sets in brute]
    return (
        kernel == brute
        and ti.counts.tolist() == rows
        and ti.count == len(brute_triples(brute))
    )


def brute_mult(measure, delta, grid_k, bbox):
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
        w = float(measure.weights[i])
        hit = np.abs(np.hypot(wx - cx, wy - cy) - r) <= delta
        for row in cells[hit]:
            key = (int(row[0]), int(row[1]))
            values[key] = values.get(key, 0.0) + w
    return values


def arc_instances(cfg, s_prime):
    fs = gen.assemble_furstenberg(cfg)
    data = []
    for z, ang in zip(fs.circles, fs.angular):
        pts = circle_points(z, ang)
        try:
            eta = inc.auto_eta(s_prime, cfg.delta, cfg.k1)
            tri = inc.extract_three_arcs(z, pts, s_prime, eta, delta=cfg.delta)
        except InsufficientContent:
            tri = None
        data.append((tri, pts))
    return fs, data


MULT_INSTANCES = [
    ("concentric", 1.0, 6, 5),
    ("concentric", 1.0, 7, 6),
    ("concentric", 0.5, 7, 6),
    ("center-segment", 1.0, 7, 6),
    ("center-segment", 0.5, 7, 7),
    ("radius-graph", 0.5, 7, 7),
]


def _mult_fields():
    for i, (preset, t, k1, grid_k) in enumerate(MULT_INSTANCES):
        cfg = FurstenbergConfig(s=1.0, t=t, k1=k1, preset=preset, seed=SEED + i)
        v = gen.generate_parameter_set(cfg)
        mu = fr.frostman_measure(v.cloud)
        field = inc.multiplicity_field(mu, cfg.delta, grid_k)
        yield cfg, mu, field, grid_k


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    mismatches = []
    total_points = 0
    n_instances = 0

    # 8 box-count instances
    box_clouds = []
    for n in (1000, 20000, 100000):
        box_clouds.append(rng.uniform(-2.0, 2.0, (n, 2)))
    x = gen.cantor_points(gen.CantorSpec(4, (0, 3), 5), (0.0, 1.0))
    gx, gy = np.meshgrid(x, x)
    box_clouds.append(np.column_stack([gx.ravel(), gy.ravel()]))
    d = 2.0 ** (-9)
    th = np.arange(0.0, 2 * math.pi, d)
    box_clouds.append(np.column_stack([1.3 * np.cos(th), 1.3 * np.sin(th)]))
    for s, t in ((1.0, 1.0), (0.5, 1.0), (1.0, 0.5)):
        cfg = FurstenbergConfig(s=s, t=t, k1=6, preset="concentric", seed=SEED)
        box_clouds.append(gen.assemble_furstenberg(cfg).cloud.points)
    for i, pts in enumerate(box_clouds):
        total_points += len(pts)
        n_instances += 1
        k = 6 if len(pts) > 50000 else 7
        if set(map(tuple, inc.box_count(pts, k).cells.tolist())) != brute_box(pts, k):
            mismatches.append(f"box[{i}]")

    # 6 triple-index instances
    for i, (s, t, preset) in enumerate(
        [
            (1.0, 1.0, "concentric"),
            (1.0, 0.5, "concentric"),
            (0.5, 1.0, "concentric"),
            (1.0, 1.0, "center-segment"),
            (1.0, 0.5, "radius-graph"),
            (0.7924812503605781, 1.0, "concentric"),
        ]
    ):
        cfg = FurstenbergConfig(
            s=round(s, 4) if s != 1.0 else 1.0,
            t=t,
            k1=7,
            preset=preset,
            seed=SEED + i,
        )
        s_prime = 1.0 if s == 1.0 else s
        fs, data = arc_instances(cfg, s_prime)
        total_points += len(fs.cloud)
        n_instances += 1
        ti = inc.build_triple_index(data, cfg.k1)
        if not triples_match(ti, data, cfg.k1):
            mismatches.append(f"triples[{i}]")

    # 6 multiplicity instances
    for i, (cfg, mu, field, grid_k) in enumerate(_mult_fields()):
        total_points += len(mu)
        n_instances += 1
        brute = brute_mult(mu, cfg.delta, grid_k, ((-2.3, -2.3), (2.3, 2.3)))
        if dict(zip(map(tuple, field.cells.tolist()), field.values.tolist())) != brute:
            mismatches.append(f"mult[{i}]")

    elapsed = time.perf_counter() - t0
    report(
        4,
        not mismatches and elapsed < 300.0 and n_instances == 20,
        f"oracle equivalence on {n_instances} seeded instances "
        f"({total_points} points total): box_count/build_triple_index/"
        f"multiplicity_field all exact ({mismatches if mismatches else 'no mismatches'}), "
        f"{elapsed:.1f}s (< 300s)",
    )


def test_criterion_5_dimension_bound_consistency():
    t0 = time.perf_counter()
    rows = []
    ok = True
    for s, t in ((1.0, 1.0), (0.5, 0.5), (0.8, 0.5)):
        cfg = FurstenbergConfig(s=s, t=t, k1=12, preset="concentric", seed=SEED)
        realized_s, realized_t = cfg.realized_s, cfg.realized_t
        counts = inc.box_counts_streaming(gen.iter_furstenberg_points(cfg), range(6, 13))
        slope = inc.dimension_slope(sorted(counts.items()))
        bound = max(
            realized_t / 3.0 + realized_s, (2.0 * realized_s - 1.0) * realized_t + realized_s
        )
        rows.append(f"(s,t)=({realized_s:.4f},{realized_t:.4f}): slope {slope:.4f} "
                    f"vs bound-0.15 = {bound - 0.15:.4f}")
        ok &= slope >= bound - 0.15
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    report(5, ok, "box-count slope consistency over k in [6,12]: "
           + "; ".join(rows) + f", {elapsed:.1f}s (< 600s)")


def test_criterion_6_arc_extraction_bracket():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    k1 = 10
    delta = 2.0 ** (-k1)
    fails = 0
    bad = 0
    for i in range(100):
        ang0 = rng.uniform(0.0, 2.0 * math.pi)
        rad_c = rng.uniform(0.0, 0.25)
        z = CircleParam(
            (rad_c * math.cos(ang0), rad_c * math.sin(ang0)), rng.uniform(0.5, 2.0)
        )
        profile = i % 5
        seed_i = int(rng.integers(1 << 31))
        if profile == 0:
            s_prime = 1.0
            th = gen.generate_angular_set(z, 1.0, delta, seed_i)
        elif profile == 1:
            s_prime = 0.5
            th = gen.generate_angular_set(z, 0.5, delta, seed_i)
        elif profile == 2:
            s_prime = 0.7924812503605781
            th = gen.generate_angular_set(z, 0.8, delta, seed_i)
        elif profile == 3:
            s_prime = 1.0
            full = gen.generate_angular_set(z, 1.0, delta, seed_i)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            th = full[(full - phi) % (2.0 * math.pi) < math.pi]
        else:
            s_prime = 1.0
            full = gen.generate_angular_set(z, 1.0, delta, seed_i)
            phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, 2)
            m1 = (full - phi1) % (2.0 * math.pi) < 0.5
            m2 = (full - phi2) % (2.0 * math.pi) < 0.5
            bg = np.zeros(len(full), bool)
            bg[::16] = True
            th = full[m1 | m2 | bg]
        pts = circle_points(z, th)
        try:
            eta = inc.auto_eta(s_prime, delta, k1)
            tri = inc.extract_three_arcs(z, pts, s_prime, eta, delta=delta)
        except InsufficientContent:
            fails += 1
            continue
        tol = tri.gamma ** s_prime
        if not all(eta / 8.0 - tol <= c <= 3.0 * eta / 16.0 + tol for c in tri.contents):
            bad += 1
        if tri.min_chord_separation() < tri.gamma / math.pi - 1e-12:
            bad += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        fails <= 10 and bad == 0,
        f"arc extraction on 100 seeded circles: {fails} failures (<= 10), "
        f"{bad} bracket/separation violations, {elapsed:.1f}s",
    )


def test_criterion_7_triple_count_guard():
    t0 = time.perf_counter()
    details = []
    ok = True
    for k1 in (7, 8, 9):
        cfg = FurstenbergConfig(s=1.0, t=1.0, k1=k1, preset="concentric", seed=SEED)
        fs, data = arc_instances(cfg, 1.0)
        grid = inc.box_count(fs.cloud, k1)
        ti = inc.build_triple_index(data, k1)
        if k1 == 7:  # pin against the brute-force baseline
            ok &= triples_match(ti, data, k1)
        taus = [t.tau for t, _ in data if t is not None]
        ratio = inc.triple_upper_ratio(ti, grid.count, min(taus))
        ok &= ratio <= 1e4
        details.append(f"k1={k1}: #T={ti.count}, ratio={ratio:.3g}")
    elapsed = time.perf_counter() - t0
    report(7, ok, "triple-count regression guard <= 1e4 (k1=7 matches brute "
           "force): " + "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_8_inversion_bilipschitz():
    rng = np.random.default_rng(SEED + 3)
    t0 = time.perf_counter()
    r = np.sqrt(rng.uniform(1.0, 16.0, 20000))
    th = rng.uniform(0.0, 2.0 * math.pi, 20000)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    p, q = pts[:10000], pts[10000:]
    wp, wq = gen.invert_points(p), gen.invert_points(q)
    ratios = np.linalg.norm(wp - wq, axis=1) / np.linalg.norm(p - q, axis=1)
    in_range = bool(np.all((ratios >= 1.0 / 16.0) & (ratios <= 1.0)))
    back = gen.invert_points(gen.invert_points(pts))
    inv_err = float(
        (np.linalg.norm(back - pts, axis=1) / np.linalg.norm(pts, axis=1)).max()
    )
    elapsed = time.perf_counter() - t0
    report(
        8,
        in_range and inv_err <= 1e-12,
        f"reciprocal-map audit: 10^4 pair ratios in [1/16, 1] ({in_range}), "
        f"max relative involution error {inv_err:.2e} <= 1e-12, {elapsed:.1f}s",
    )


def test_criterion_9_multiplicity_fubini():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for cfg, mu, field, grid_k in _mult_fields():
        checked += 1
        ok &= sum(field.incidences.tolist()) == int(field.per_atom_counts.sum())
        lhs = math.fsum(field.values.tolist())
        rhs = math.fsum(
            float(mu.weights[i]) * int(field.per_atom_counts[i]) for i in range(len(mu))
        )
        # atom counts are powers of two here, so 1/#P is exact and both
        # groupings of the same addends agree bit for bit
        ok &= lhs == rhs
    elapsed = time.perf_counter() - t0
    report(
        9,
        ok and checked == len(MULT_INSTANCES),
        f"multiplicity Fubini identity exact on {checked} oracle instances, "
        f"{elapsed:.1f}s",
    )
