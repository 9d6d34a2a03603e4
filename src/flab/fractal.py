"""Discretized measure-theoretic primitives.

Point clouds at dyadic resolution delta = 2^-k, (delta,q)-set extraction via
top-down dyadic selection, uniform discrete (Frostman-type) measures, and
Hausdorff-content estimation from above (content_greedy) and below
(content_lower).

Content conventions: a cover ball of radius r contributes (2r)**s, i.e.
diameter-based content.  The lower estimate, content_lower, is a uniform-mass
pigeonhole: a set of diameter d containing a data point holds at most as many
points as the fullest 2x2 block of side-d grid cells, so any cover's cost is
at least #P / max_d [blockcount(d) / d^s].  It is a lower bound for the
content of the delta-fattened cloud (up to the usual small-cover
regularization at scale delta).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, EmptyInput
from .geometry import _circumcenters, _hull_vertices, _runs


def _check_scale(pts: np.ndarray, k: int, pad: int = 0) -> None:
    """Raise ConfigInvalid unless every cell index floor(x 2^k) +- pad fits a key,
    63 // dim bits an axis.  The bounds are integers, so the extreme x 2^k decide:
    ldexp(x, k), exact like x * 2^k, k clipped to +-2000, past which no fit changes."""
    if not pts.size:
        return
    bits, lo, hi = 63 // pts.shape[1] - 1, pts.min(), pts.max()
    if k:
        with np.errstate(over="ignore"):  # an inf x 2^k fails the range check
            lo, hi = np.ldexp([lo, hi], min(max(k, -2000), 2000))
    if not -(1 << bits) <= lo - pad <= hi + pad < 1 << bits:
        raise ConfigInvalid(
            f"cell index outside [-2^{bits}, 2^{bits}): scale too fine for the coordinate range"
        )


def _pack(idx: np.ndarray) -> np.ndarray:
    """Pack (n, d) integer cell indices into scalar int64 keys.

    Each axis gets 63 // d bits (31 in 2-D, 21 in 3-D), offset to be
    non-negative, so keys compare like the index rows lexicographically.
    Raises ConfigInvalid when an index does not fit its field, rather than
    merging distinct cells.
    """
    bits = 63 // idx.shape[1]
    half = 1 << (bits - 1)
    _check_scale(idx, 0)
    key = idx[:, 0].astype(np.int64) + half
    for axis in range(1, idx.shape[1]):
        key = (key << bits) | (idx[:, axis] + half)
    return key


def _cell_keys(pts: np.ndarray, k: int) -> np.ndarray:
    """Packed keys of the cells floor(x 2^k) of `pts`, after _check_scale.  ldexp
    is exact: it equals x / 2^-k bit for bit and needs no 2^-k, which is 0 past k 1074."""
    _check_scale(pts, k)
    return _pack(np.floor(np.ldexp(pts, k)).astype(np.int64))


def _unpack(keys: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of _pack: (n,) keys back to (n, dim) int64 cell indices."""
    bits = 63 // dim
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    return np.column_stack(
        [((keys >> (bits * (dim - 1 - axis))) & mask) - half for axis in range(dim)]
    )


def _unique_runs(keys: np.ndarray):
    """Stable sort-and-mask unique of int64 keys.

    Returns (uniq, starts, order): the sorted distinct keys, the position in
    the sorted sequence where each run of equal keys starts, and the stable
    sorting permutation, so ``order[starts]`` is each key's first occurrence.
    """
    order = keys.argsort(kind="stable")
    ks = keys[order]
    first = np.empty(ks.size, dtype=bool)
    first[:1] = True
    np.not_equal(ks[1:], ks[:-1], out=first[1:])
    starts = first.nonzero()[0]
    return ks[starts], starts, order


@dataclass
class PointCloud:
    """Finite point set at dyadic resolution delta = 2^-k (k >= 1)."""

    points: np.ndarray
    k: int

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] not in (2, 3):
            raise ValueError("points must be an (n, 2) or (n, 3) array")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        self.k = int(self.k)
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def delta(self) -> float:
        return 2.0 ** (-self.k)

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def create(cls, points, k: int) -> "PointCloud":
        """Build a cloud, deduplicating at resolution delta/4 (first wins)."""
        cloud = cls(np.asarray(points, dtype=float), k)
        if len(cloud) > 1:
            _, starts, order = _unique_runs(_cell_keys(cloud.points, cloud.k + 2))
            cloud = cls(cloud.points[np.sort(order[starts])], k)
        return cloud


_CSV_BLOCK = 1 << 14  # rows per `%` format and write


def write_csv(path, header: str, columns) -> None:
    """Write `header`, then one line per row of `columns`: equal-length numpy
    arrays (read through `tolist()`) or sequences.  Each value is written as
    its `str`, for a float its repr, so floats round-trip bit-exactly.  Each
    block of `_CSV_BLOCK` rows is one `%` format over a flat list, one write."""
    columns = [c if isinstance(c, np.ndarray) else np.asarray(c, dtype=object) for c in columns]
    width, n = len(columns), len(columns[0]) if columns else 0
    line = "%s," * (width - 1) + "%s\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, _CSV_BLOCK):
            rows = min(_CSV_BLOCK, n - lo)
            flat = [None] * (width * rows)
            for c, col in enumerate(columns):
                flat[c::width] = col[lo:lo + rows].tolist()
            fh.write((line * rows) % tuple(flat))


def save_csv(cloud: PointCloud, path) -> None:
    """Write the canonical cloud CSV: header line `dim,k`, the values, then
    one point per line with repr-exact coordinates."""
    write_csv(path, f"dim,k\n{cloud.dim},{cloud.k}", cloud.points.T)


def load_csv(path) -> PointCloud:
    """Read a cloud CSV; one np.loadtxt parses its rows, ASCII values without `_`."""
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header != "dim,k":
            raise ValueError(f"bad cloud header: {header!r}")
        dim, k = map(int, fh.readline().strip().split(","))
        rows = filter(str.strip, fh)  # loadtxt fails on a whitespace-only line
        first = next(rows, None)  # and warns on an empty body
        try:
            points = np.empty((0, dim)) if first is None else np.loadtxt(
                itertools.chain([first], rows), delimiter=",", comments=None, ndmin=2)
        except ValueError as e:  # loadtxt's ragged-row message offers `usecols`
            if "number of columns changed" in str(e):
                raise ValueError("row arity does not match dim") from None
            raise
    if points.shape[1] != dim:
        raise ValueError("row arity does not match dim")
    return PointCloud(points, k)


# --- (delta, q)-sets --------------------------------------------------------


@dataclass
class DeltaQSet:
    """delta-separated cloud with non-concentration exponent q.

    conc_measured is the audited supremum of #(P cap B(x,r)) / (r/delta)^q
    over dyadic radii r > delta.
    """

    cloud: PointCloud
    q: float
    conc_measured: float


def extract_delta_q_set(cloud: PointCloud, q: float) -> DeltaQSet:
    """Extract a delta-separated subset with q-dimensional non-concentration.

    Candidates are one representative per even-indexed delta-cube (even
    indices force delta-separation).  A dyadic cube at level j keeps at most
    cap = ceil(2^(q*(k-j))) points: a child gets its parent's budget less the
    capped rooms min(cap, room) of its earlier siblings (by mass, then key),
    clipped to [0, its own]; room is 1 at level k and the sum of the
    children's capped rooms above.  Audited with 256 seeded random centers.
    """
    if len(cloud) == 0:
        raise EmptyInput("cannot extract from an empty cloud")
    k = cloud.k
    pts = cloud.points
    _check_scale(pts, k)  # pts / delta is pts 2^k, exact in ldexp even where delta is 0
    idx = np.floor(np.ldexp(pts, k)).astype(np.int64)
    even = np.all(idx % 2 == 0, axis=1)
    if not np.any(even):
        # Fall back to a single point; a one-point set is vacuously a
        # (delta, q)-set.
        sel = pts[:1]
    else:
        pts_e, idx_e = pts[even], idx[even]
        # First point of each cube in lexicographic point order.
        order = np.lexsort(tuple(pts_e[:, d] for d in reversed(range(pts_e.shape[1]))))
        _, starts, by_key = _unique_runs(_pack(idx_e)[order])
        first = order[by_key[starts]]
        reps, rep_idx = pts_e[first], idx_e[first]
        # Per level j, cube ids in key order: each cube's representative count
        # and its parent at level j - 1, then (going up) its capped room.
        count, parent, cube_of = [], [], []
        for j in range(k + 1):
            _, starts, by_key = _unique_runs(_pack(rep_idx >> (k - j)))
            count.append(np.diff(starts, append=len(reps)))
            cube_of.append(np.empty_like(by_key))
            cube_of[j][by_key] = np.repeat(np.arange(len(starts)), count[j])
            parent.append(cube_of[j - 1][by_key[starts]] if j else None)
        capped = [None] * k + [np.ones(len(reps), dtype=np.int64)]
        for j in range(k - 1, -1, -1):
            room = np.bincount(parent[j + 1], capped[j + 1], len(count[j])).astype(np.int64)
            # past 2^62 the cap exceeds any count; a larger power overflows a float
            capped[j] = np.minimum(room, min(math.ceil(2.0 ** min(q * (k - j), 62)), len(reps)))
        budget = capped[0]
        for j in range(1, k + 1):
            sib = np.lexsort((-count[j], parent[j]))
            c, p = capped[j][sib], parent[j][sib]
            before = np.cumsum(c) - c
            before -= np.maximum.accumulate(np.where(np.r_[True, p[1:] != p[:-1]], before, 0))
            budget = np.clip(budget[p] - before, 0, c)[np.argsort(sib)]
        sel = reps[budget > 0]

    out = DeltaQSet(PointCloud(sel, k), float(q), 0.0)
    out.conc_measured = verify_non_concentration(out, 256)
    return out


def verify_non_concentration(ds: DeltaQSet, trials: int, *, seed: int = 0) -> float:
    """Audited sup of #(P cap B(x,r)) / (r/delta)^q.

    Centers are all data points plus ``trials`` uniform points in the padded
    bounding box; radii are dyadic in (delta, 2*diam].
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    from scipy.spatial import cKDTree

    pts = ds.cloud.points
    delta = ds.cloud.delta
    q = ds.q
    rng = np.random.default_rng(seed)
    lo = pts.min(axis=0) - delta
    hi = pts.max(axis=0) + delta
    centers = np.vstack([pts, rng.uniform(lo, hi, size=(trials, pts.shape[1]))])
    diam = float(np.linalg.norm(hi - lo))
    r_top = max(2.0 * diam, 4.0 * delta)
    radii = []
    j = ds.cloud.k  # 2^-j is delta; the radii start above it
    while 2.0 ** (-j) <= r_top:
        r = 2.0 ** (-j)
        if r > delta:
            radii.append(r)
        j -= 1
    tree = cKDTree(pts)
    worst = 0.0
    for r in radii:
        cnt = tree.query_ball_point(centers, r, return_length=True)
        worst = max(worst, float(cnt.max()) / (r / delta) ** q)
    return worst


# --- discrete measures ------------------------------------------------------


@dataclass
class DiscreteMeasure:
    """Finitely many weighted atoms; total mass at most 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if self.total_mass > 1.0 + 1e-12:
            raise ValueError("total mass must be <= 1")

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def __len__(self) -> int:
        return self.points.shape[0]

    def scaled(self, factor: float) -> "DiscreteMeasure":
        return DiscreteMeasure(self.points, self.weights * factor)


def frostman_measure(cloud: PointCloud) -> DiscreteMeasure:
    """The canonical probability measure with equal weights 1/#P."""
    n = len(cloud)
    if n == 0:
        raise EmptyInput("cannot build a measure on an empty cloud")
    return DiscreteMeasure(cloud.points, np.full(n, 1.0 / n))


# --- Hausdorff content estimation -------------------------------------------


def normalize_to_unit_ball(points: np.ndarray):
    """Translate to the bounding-box center and shrink into the unit ball.

    Returns (scaled points, scale factor); scale is 1 when the centered set
    already fits.
    """
    pts = np.asarray(points, dtype=float)
    mid = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    centered = pts - mid
    rad = float(np.linalg.norm(centered, axis=1).max()) if len(pts) else 0.0
    scale = 1.0 if rad <= 1.0 else 1.0 / rad
    return centered * scale, scale


def _block_max_count(pts: np.ndarray, side: float) -> int:
    """Max points in any 2x2(x2) block of grid cells of ``side``.

    A set of diameter <= side has axis extents <= side, so it lies in one
    such block; the fullest block bounds any cover set's point count.  Every
    block that holds a point is anchored at its lower corner cell, an
    occupied cell minus some offset in {0, 1}^dim.
    """
    dim = pts.shape[1]
    cells, starts, _ = _unique_runs(_pack(np.floor(pts / side).astype(np.int64)))
    counts = np.diff(starts, append=len(pts))
    offsets = [np.array(off, dtype=np.int64) for off in np.ndindex(*([2] * dim))]
    occupied = _unpack(cells, dim)
    anchors, _, _ = _unique_runs(np.concatenate([_pack(occupied - off) for off in offsets]))
    base = _unpack(anchors, dim)
    total = np.zeros(len(anchors), dtype=np.int64)
    for off in offsets:
        neigh = _pack(base + off)
        pos = np.clip(np.searchsorted(cells, neigh), 0, len(cells) - 1)
        total += np.where(cells[pos] == neigh, counts[pos], 0)
    return int(total.max()) if len(total) else 0


@functools.lru_cache(maxsize=64)
def _scale_table(s: float, delta: float, size: int) -> np.ndarray:
    """Rows d = delta 2^((m+1)/4), d 2^-1/4 and den = (d 2^-1/4)^s, m < size, in Python
    floats (pow: np.power's SIMD loops may round otherwise); read-only, as it is shared."""
    d = [delta * 2.0 ** ((m + 1) / 4.0) for m in range(size)]
    base = [x * 2.0 ** (-0.25) for x in d]
    table = np.array([d, base, [b ** s for b in base]])
    table.flags.writeable = False
    return table


def _scale_pairs(diam: np.ndarray, n: np.ndarray, s: float, delta: float, dim: int = 2):
    """content_lower's scales, finest first, for clouds of n[c] points within
    diameter bounds diam[c]: the (s, delta) table cut after its first
    d 2^-1/4 > max(diam[c], delta), at 64 if diam[c] is not finite.  Per pair: the
    cloud, the scale's index, d, den = (d 2^-1/4)^s and reach, how far apart
    two points of one counted set can be: inf when all count, d for the exact
    ball count (d <= 8 delta or n <= 4096), 2 sqrt(dim) d for the block bound."""
    top, size, finite = np.maximum(diam, delta), 64, np.isfinite(diam)
    while (table := _scale_table(s, delta, size))[1][-1] <= top[finite].max(initial=0.0):
        size *= 4
    cut = np.where(finite, np.searchsorted(table[1], top, side="right") + 1, 64)
    pc, pm = _runs(np.zeros_like(cut), cut)
    d = table[0][pm]
    exact = (d <= 8.0 * delta) | (n[pc] <= 4096)
    reach = np.where(d >= diam[pc], math.inf, np.where(exact, d, 2.0 * math.sqrt(dim) * d))
    return pc, pm, d, table[2][pm], reach


def _content_scales(pts: np.ndarray, s: float, delta: float):
    """(den, count) over content_lower's scales for `pts` (_scale_pairs):
    count(i) bounds the points that one set of scale i's diameter holds."""
    n = pts.shape[0]
    if n == 0:
        raise EmptyInput("no points")
    diam_ub = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    _, _, d, den, reach = _scale_pairs(np.array([diam_ub]), np.array([n]), s, delta, pts.shape[1])
    tree = []  # the kd tree, built on the first ball count

    def count(i: int) -> int:
        if reach[i] == math.inf:
            return n
        if reach[i] > d[i]:  # the grid-block bound
            return min(n, _block_max_count(pts, float(d[i])))
        if not tree:
            from scipy.spatial import cKDTree

            tree.append(cKDTree(pts))
        return int(tree[0].query_ball_point(pts, float(d[i]), return_length=True).max())

    return den, count


def content_lower(points, s: float, delta: float) -> float:
    """Uniform-mass pigeonhole lower estimate for the s-content.

    A cover set U of diameter d that meets the cloud satisfies
    #(U cap P) <= cnt(d), with cnt(d) the exact max ball count
    max_p #(P cap B(p, d)) at small d and the 2x2 grid-block bound at large
    d; over quarter-octave diameter brackets any cover then costs at least
    #P / max_d [cnt(d) / d^s].  The arc step only needs to know whether it
    reaches eta, and decides that for a batch of circles without computing
    it (incidence._content_reaches).
    """
    pts = np.asarray(points, dtype=float)
    den, count = _content_scales(pts, s, delta)
    return pts.shape[0] / max(count(i) / x for i, x in enumerate(den.tolist()))


@functools.lru_cache(maxsize=256)
def _welzl_order(n: int) -> np.ndarray:
    """The seeded Welzl visiting order of n points; read-only, as callers share it."""
    order = np.random.default_rng(0).permutation(n)
    order.flags.writeable = False
    return order


def _welzl_lockstep(X: np.ndarray):
    """Welzl's move-to-front ball of each row of X (B, m, 2), m >= 1, in the
    seeded order, every row stepping through the same i > j > k loops.  A
    point's test is |p - c| > r (1 + eps) + eps with |v| = sqrt(np.vecdot(v, v)),
    BLAS ddot a row as v.dot(v), on C-contiguous rows; only the rows whose
    test fires are updated, and a degenerate triangle keeps its ball."""
    P = X[:, _welzl_order(X.shape[1])]
    c, r = P[:, 0].copy(), np.zeros(P.shape[0])
    eps = 1e-12

    def outside(rows, i):
        D = P[rows, i] - c[rows]
        return rows[np.sqrt(np.vecdot(D, D)) > r[rows] * (1 + eps) + eps]

    for i in range(1, P.shape[1]):
        I = outside(np.arange(P.shape[0]), i)
        c[I], r[I] = P[I, i], 0.0
        for j in range(i if I.size else 0):
            J = outside(I, j)
            if J.size:
                p = P[J, i]
                c[J] = 0.5 * (p + P[J, j])
                D = p - c[J]
                r[J] = np.sqrt(np.vecdot(D, D))
            for k in range(j if J.size else 0):
                K = outside(J, k)
                ok, c_k, r_k = _circumcenters(P[K, i], P[K, j], P[K, k])
                c[K[ok]], r[K[ok]] = c_k, r_k
    return c, r


def _min_enclosing_ball_2d(sets):
    """Minimal enclosing ball of each 2-D set: Welzl, move-to-front, seeded,
    on the hull vertices of a set above 16 points, the sets of each candidate
    count in lockstep (_welzl_lockstep); a radius is at least the largest
    distance to a point of its set, a guard against rounding.  Returns the
    centers (B, 2) and radii (a list), bit for bit those of one-set Welzl
    with 1-D vector norms: one set is a batch of one."""
    cands = [x if x.shape[0] <= 16 else _hull_vertices(x) for x in sets]
    centers, radii = np.empty((len(sets), 2)), np.empty(len(sets))
    for m in {x.shape[0] for x in cands}:
        rows = [b for b, x in enumerate(cands) if x.shape[0] == m]
        centers[rows], radii[rows] = _welzl_lockstep(np.stack([cands[b] for b in rows]))
    sizes = [x.shape[0] for x in sets]
    far = np.linalg.norm(np.concatenate(sets) - np.repeat(centers, sizes, axis=0), axis=1)
    return centers, np.maximum(radii, np.maximum.reduceat(far, np.cumsum([0] + sizes[:-1]))).tolist()


def _level_keys(pts: np.ndarray, s: float, r_min: float):
    """content_greedy's levels j < L: the keys (L, n) of the cells of side 2^-j
    that hold the points, and the weights (L,).  Keys are elementwise: a
    subset's are columns."""
    if not (0.0 < s <= 2.0):
        raise ValueError("need 0 < s <= 2")
    n, dim = pts.shape
    n_levels = max(math.floor(math.log2(1.0 / r_min)), 0) + 1
    _check_scale(pts, n_levels - 1)  # the finest cells bound every coarser level's
    # times 2^j, exact like ldexp(pts, j) but ~5x faster than ldexp's int64 path
    cells = np.floor(pts * np.ldexp(1.0, np.arange(n_levels))[:, None, None]).astype(np.int64)
    keys = _pack(cells.reshape(-1, dim)).reshape(n_levels, n)
    w = np.array([(math.sqrt(dim) * 2.0 ** (-j)) ** s for j in range(n_levels)])
    return keys, w


def content_greedy(points, s: float, r_min: float) -> float:
    """Upper content estimate: the cost of a density-greedy cover by balls of
    dyadic cells (radius >= ~r_min), or of the single enclosing ball when that
    is cheaper.  content_lower gives the matching lower estimate.

    Each greedy step sorts the uncovered points' keys of every level
    j = 0..floor(log2(1/r_min)) at once and picks the cell with the most
    uncovered points per (sqrt(dim) 2^-j)^s; ties go to the coarser level,
    then to the lower cell key.  The loop stops once its running sum reaches
    the enclosing ball's cost: a float sum of positive terms never falls, so
    from then on the ball is the answer.  Nor does the loop start when a lower
    bound on its covers reaches that cost: one pick costs the weight of a level
    whose cells all agree, more picks at least twice the least weight, in the
    very floats the loop adds, so the bound is exact.  This is _greedy_cover on
    a batch of one; the arc scan covers many arcs in one call.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptyInput("no points")
    return _greedy_cover([pts], s, r_min)[0]


def _greedy_cover(sets, s: float, r_min: float) -> list:
    """content_greedy of each nonempty set, all of one dimension, in one batch,
    as floats: the enclosing balls in one _min_enclosing_ball_2d call, the
    levels in one _level_keys call on these sets' points only, and the lower
    bound on every cover for all at once.  The sets it leaves open run _greedy_cost."""
    sizes = [x.shape[0] for x in sets]
    offsets = np.cumsum([0] + sizes[:-1])
    keys, w = _level_keys(np.concatenate(sets), s, r_min)
    if sets[0].shape[1] == 2:
        radii = _min_enclosing_ball_2d(sets)[1]
    else:
        radii = [float(np.linalg.norm(x - 0.5 * (x.min(axis=0) + x.max(axis=0)), axis=1).max())
                 for x in sets]
    one_cell = np.logical_and.reduceat(keys == np.repeat(keys[:, offsets], sizes, axis=1),
                                       offsets, axis=1)
    bound = np.minimum(2.0 * w.min(), np.where(one_cell, w[:, None], math.inf).min(axis=0))
    out = [(2.0 * max(rad, r_min)) ** s for rad in radii]
    for b in np.flatnonzero(bound < out).tolist():
        out[b] = _greedy_cost(keys[:, offsets[b] : offsets[b] + sizes[b]], w, out[b])
    return out


def _greedy_cost(keys: np.ndarray, w: np.ndarray, enc_sum: float) -> float:
    """The greedy cover's cost over the points whose level keys are the columns
    of `keys`, or enc_sum once the running sum reaches it."""
    n_levels = keys.shape[0]
    covered, greedy_sum = np.zeros(keys.shape[1], dtype=bool), 0.0
    while greedy_sum < enc_sum and not covered.all():
        live = ~covered
        flat = np.sort(keys[:, live], axis=1).ravel()
        m = flat.size // n_levels
        first = np.concatenate(([True], flat[1:] != flat[:-1]))
        first[::m] = True  # a run never crosses into the next level
        starts = first.nonzero()[0]
        # Run lengths; np.diff(append=) would cost more than the sort.
        runs = np.concatenate((starts[1:], [flat.size])) - starts
        # Flat order is level, then key, ascending, so argmax's first maximum
        # is the highest score, then the coarser level, then the lower key.
        i = starts[np.argmax(runs / w[starts // m])]
        j = int(i // m)
        covered |= live & (keys[j] == flat[i])
        greedy_sum += float(w[j])
    return min(greedy_sum, enc_sum)
