"""Counting machinery: dyadic box counts, arc trisection, triple indices,
annulus multiplicity fields and each circle's low-multiplicity cell count.

Cells are half-open dyadic squares [i*2^-k, (i+1)*2^-k) anchored at the
origin; a cell is incident to an arc when it contains a cloud point of the
arc, and multiplicity is evaluated at cell centers.  All reductions are
accumulated in canonical (ascending atom / circle) order, so reruns agree
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, EmptyInput, InsufficientContent
from .fractal import (
    DiscreteMeasure,
    PointCloud,
    _check_key_range,
    _content_scales,
    _greedy_cover,
    _pack,
    _unique_runs,
    _unpack,
    content_lower,
)
from .geometry import CircleParam, _runs

C0_DEFAULT = 4.0 * math.pi + 2.0  # pinned area constant in |S^delta(z)| <= c0*delta


# --- box counting ------------------------------------------------------------


@dataclass
class CoverGrid:
    """Occupied dyadic cells, sorted lexicographically."""

    cells: np.ndarray  # (n, dim) int64

    @property
    def count(self) -> int:
        return self.cells.shape[0]


def box_count(cloud_or_points, k: int) -> CoverGrid:
    """Occupied origin-anchored dyadic cells of side 2^-k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pts = cloud_or_points.points if isinstance(cloud_or_points, PointCloud) else np.asarray(
        cloud_or_points, dtype=float
    )
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptyInput("no points to count")
    idx = np.floor(pts * (1 << k)).astype(np.int64)
    _, starts, order = _unique_runs(_pack(idx))
    return CoverGrid(cells=idx[order[starts]])


_MERGE_EVERY = 1 << 22  # buffered chunk cells between merges into the columns
# A dense grid may hold up to max(_GRID_CELLS, _GRID_CELLS_PER_POINT x points
# streamed so far) cells: at a byte a cell, no more than the int64 key per
# point that the key path may hold.
_GRID_CELLS = 1 << 22
_GRID_CELLS_PER_POINT = 8


def _grid_counts(grid: np.ndarray, ks) -> dict:
    """Occupied cells of a bool grid at scale ks[-1] and at each coarser k in
    ks.  A coarser cell is the OR of a 2x2 block of finer ones, so both sides
    of the grid must be multiples of 2^(ks[-1] - ks[0])."""
    counts = dict.fromkeys(ks, 0)
    for k in range(ks[-1], ks[0] - 1, -1):
        if k < ks[-1]:
            coarse = grid[0::2, 0::2] | grid[1::2, 0::2]
            coarse |= grid[0::2, 1::2]
            coarse |= grid[1::2, 1::2]
            grid = coarse
        if k in ks:
            counts[k] = int(np.count_nonzero(grid))
    return counts


def _check_scale(pts: np.ndarray, k: int) -> None:
    """Raise ConfigInvalid unless every floor(x 2^k) fits a key; the extreme x decide."""
    with np.errstate(over="ignore"):  # an inf index fails the range check
        lo, hi = np.floor(np.array([pts.min(), pts.max()]) * (1 << k))
    _check_key_range(lo, hi, pts.shape[1])


def box_counts_streaming(chunks, ks) -> dict:
    """Box counts N(2^-k) for several k over a stream of point chunks.

    Only the finest scale is read from the points; every coarser count
    follows exactly from the finest cells, since floor(x 2^k) ==
    floor(x 2^(k+1)) >> 1 (the hierarchical box count of Liebovitch & Toth,
    1989).  The finest cells are held in one of two forms:

    - a grid: one bool per cell over the running bounding box of the cells,
      its corner and sides multiples of 2^(max(ks) - min(ks)) cells so that
      each coarser cell is a 2x2 block.  When a chunk reaches past it, it
      grows by a quarter of its extent on that side, or just far enough if
      the margin would break the size limit below.  A chunk is one scatter
      into it, and a coarser scale one OR of four strided slices.
    - keys: each chunk's cells are deduplicated, buffered, and merged into
      the sorted cell keys of their column at the coarsest scale.  Cells in
      different coarsest columns never share a coarser cell, so each column
      is counted on its own and memory stays near one key per finest cell.

    2-D points start on the grid and keep it while it holds at most
    max(_GRID_CELLS, _GRID_CELLS_PER_POINT x points streamed so far) cells.
    A chunk that would grow it past that hands every cell over to keys, and
    after each merge the keys go back to a grid if one that size covers
    them.  Points of any other dimension use keys.  Either way a finest
    index that does not fit a key raises ConfigInvalid (_check_scale).
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        return {}
    top, span = ks[-1], ks[-1] - ks[0]
    dim = None
    points = 0
    lo = hi = None  # bounding box of the finest cells so far, per axis
    grid = corner = None  # the grid and the cell at grid[0, 0]; None on keys
    columns = {}
    pending = []

    def cover() -> bool:
        """Make the grid cover lo..hi, keeping its cells; False when that
        grid would be over the size limit."""
        nonlocal grid, corner
        box_lo = [(v >> span) << span for v in lo]
        box_hi = [((v >> span) + 1) << span for v in hi]
        boxes = []
        if grid is not None:
            end = [c + n for c, n in zip(corner, grid.shape)]
            if all(c <= a for c, a in zip(corner, box_lo)) and all(
                b <= e for b, e in zip(box_hi, end)
            ):
                return True
            box_lo, box_hi = list(map(min, box_lo, corner)), list(map(max, box_hi, end))
            margin = [(b - a) // 4 >> span << span for a, b in zip(box_lo, box_hi)]
            boxes.append((
                [a - m if a < c else a for a, c, m in zip(box_lo, corner, margin)],
                [b + m if b > e else b for b, e, m in zip(box_hi, end, margin)],
            ))
        boxes.append((box_lo, box_hi))
        limit = max(_GRID_CELLS, _GRID_CELLS_PER_POINT * points)
        for box_lo, box_hi in boxes:
            shape = (box_hi[0] - box_lo[0], box_hi[1] - box_lo[1])
            if shape[0] * shape[1] <= limit:
                wider = np.zeros(shape, dtype=bool)
                if grid is not None:
                    x, y = corner[0] - box_lo[0], corner[1] - box_lo[1]
                    wider[x : x + grid.shape[0], y : y + grid.shape[1]] = grid
                grid, corner = wider, box_lo
                return True
        return False

    def scatter(idx):
        flat = (idx[:, 0] - corner[0]) * grid.shape[1]
        flat += idx[:, 1] - corner[1]
        grid.ravel()[flat] = True

    def merge():
        fresh, _, _ = _unique_runs(np.concatenate(pending))
        pending.clear()
        col = _unpack(fresh, dim)[:, 0] >> span
        cut = np.flatnonzero(np.diff(col)) + 1
        for c, part in zip(col[np.r_[0, cut]].tolist(), np.split(fresh, cut)):
            if c in columns:
                part, _, _ = _unique_runs(np.concatenate([columns[c], part]))
            columns[c] = part
        if dim == 2 and cover():
            for keys in columns.values():
                scatter(_unpack(keys, 2))
            columns.clear()

    buffered = 0
    for chunk in chunks:
        pts = np.asarray(chunk, dtype=float)
        if pts.size == 0:
            continue
        if dim is None:
            dim = pts.shape[1]
        elif pts.shape[1] != dim:
            raise ValueError(f"a chunk of {pts.shape[1]}-D points among {dim}-D ones")
        _check_scale(pts, top)  # an index past int64 breaks the cast
        idx = np.floor(pts * (1 << top)).astype(np.int64)
        # per column: numpy reduces an (n, d) array along axis 0 ~25x slower
        chunk_lo, chunk_hi = [int(c.min()) for c in idx.T], [int(c.max()) for c in idx.T]
        lo = chunk_lo if lo is None else list(map(min, lo, chunk_lo))
        hi = chunk_hi if hi is None else list(map(max, hi, chunk_hi))
        points += len(idx)
        if grid is not None or (dim == 2 and not columns and not pending):
            if cover():
                scatter(idx)
                continue
            if grid is not None:
                rows, cols = np.divmod(np.flatnonzero(grid), grid.shape[1])
                pending.append(_pack(np.column_stack([rows + corner[0], cols + corner[1]])))
                buffered += pending[-1].size
                grid = None
        keys, _, _ = _unique_runs(_pack(idx))
        pending.append(keys)
        buffered += keys.size
        if buffered >= _MERGE_EVERY:
            merge()
            buffered = 0
    if pending:
        merge()
    if grid is not None:
        return _grid_counts(grid, ks)
    counts = dict.fromkeys(ks, 0)
    for keys in columns.values():
        cells, finer = _unpack(keys, dim), top
        for k in reversed(ks):
            cells = cells >> (finer - k)
            _, starts, order = _unique_runs(_pack(cells))
            cells, finer = cells[order[starts]], k
            counts[k] += len(cells)
    return counts


def dimension_slope(counts) -> float:
    """Least-squares slope of log2 N(2^-k) against k."""
    pairs = [(int(k), int(n)) for k, n in counts]
    if len(pairs) < 3 or len({k for k, _ in pairs}) < 2:
        raise DegenerateFit("need >= 3 scales with distinct k")
    ks = np.array([k for k, _ in pairs], dtype=float)
    ys = np.log2(np.array([n for _, n in pairs], dtype=float))
    return float(np.polyfit(ks, ys, 1)[0])


# --- arc trisection (three separated arcs carrying comparable content) -------


@dataclass
class ArcTriple:
    """Three disjoint angular intervals on S(z), each holding a bracketed
    share of the circle's content estimate, pairwise chord-separated by at
    least gamma/pi."""

    z: CircleParam
    intervals: tuple  # three (lo, hi) angle intervals, half-open
    gamma: float
    tau: float
    contents: tuple

    def min_chord_separation(self) -> float:
        """Smallest chord distance between any two of the three intervals."""
        r = self.z.radius
        best = math.inf
        for i in range(3):
            for j in range(i + 1, 3):
                lo_i, hi_i = self.intervals[i]
                lo_j, hi_j = self.intervals[j]
                gap1 = (lo_j - hi_i) % (2.0 * math.pi)
                gap2 = (lo_i - hi_j) % (2.0 * math.pi)
                gap = min(gap1, gap2)
                best = min(best, 2.0 * r * math.sin(min(gap, math.pi) / 2.0))
        return best


def circle_angles(z: CircleParam, pts: np.ndarray) -> np.ndarray:
    return np.mod(
        np.arctan2(pts[:, 1] - z.center[1], pts[:, 0] - z.center[0]), 2.0 * math.pi
    )


def _content_reaches(
    z: CircleParam, pts: np.ndarray, theta: np.ndarray, s_prime: float, delta: float, eta: float
) -> bool:
    """Exactly ``content_lower(pts, s_prime, delta) >= eta``, decided
    without computing the estimate; theta is circle_angles(z, pts).

    The estimate is n / max_d (cnt_d / den_d) over content_lower's scales d,
    and IEEE division is monotone, so it reaches eta iff every scale has
    n / (cnt_d / den_d) >= eta; the scales are tried finest first and the
    first that fails decides.  Since cnt_d <= n, a scale that passes with n
    in place of cnt_d is skipped.  Otherwise an angular ceiling on cnt_d is
    tried before the exact count: two points within ``reach`` of each other,
    both at least rho_min from z's center, differ in angle by at most
    2 asin(reach / 2 rho_min), so a counted set lies in an angular window of
    twice that width, and no such set holds more points than the fullest
    window over the sorted angles.  The ceiling passes iff ring[i + T] >
    theta[i] + width for all i, T the largest m < n with n / (m / den) >= eta:
    a searchsorted window count's float test, one gather for all scales.
    """
    n = pts.shape[0]
    rel = pts - np.array(z.center)
    rho_min = float(np.hypot(rel[:, 0], rel[:, 1]).min())
    theta = np.sort(theta)
    ring = np.concatenate([theta, theta + 2.0 * math.pi])
    # Relative slack that dwarfs the rounding of rho, of the angles and of the
    # kd tree's distance test, each a few ulps of 1 + |coordinates| / rho_min.
    magnitude = max(float(np.abs(pts).max()), *map(abs, z.center))
    slack = 1e-9 * (1.0 + magnitude / rho_min) if rho_min > 0.0 else math.inf
    den, reach, count = _content_scales(pts, s_prime, delta)
    tried = np.flatnonzero(n / (n / den) < eta)
    den = den[tried]
    ceiling = np.count_nonzero(n / (np.arange(1, n) / den[:, None]) >= eta, axis=1)
    width = np.array([
        2.0 * (2.0 * math.asin(r * (1.0 + slack) / (2.0 * rho_min))) * (1.0 + slack) + slack
        if r * (1.0 + slack) < 2.0 * rho_min else math.inf  # inf: no ceiling
        for r in reach[tried].tolist()
    ])
    fits = (ring[np.arange(n) + ceiling[:, None]] > theta + width[:, None]).all(axis=1)
    return all(fit or n / (count(i) / d) >= eta
               for i, d, fit in zip(tried.tolist(), den.tolist(), fits.tolist()))


class _ContentBelowEta(InsufficientContent):
    """Content below eta; the message computes the estimate when it is read."""

    def __str__(self) -> str:
        pts, s, delta, eta = self.args
        return f"content lower estimate {content_lower(pts, s, delta):.4g} below eta {eta:.4g}"


def _require_content(
    z: CircleParam, pts: np.ndarray, theta: np.ndarray, s_prime: float, delta: float, eta: float
) -> None:
    """Raise InsufficientContent unless the content lower estimate of the
    circle z's cloud, at angles theta, reaches eta; decided, not estimated.

    A subset's content bounds the set's from below, so a decimated check is
    valid; when it is shy the full cloud decides, unless the subset was the
    full cloud already.
    """
    stride = max(1, -(-pts.shape[0] // 1024))
    if _content_reaches(z, pts[::stride], theta[::stride], s_prime, delta, eta):
        return
    if stride > 1 and _content_reaches(z, pts, theta, s_prime, delta, eta):
        return
    raise _ContentBelowEta(pts, s_prime, delta, eta)


def auto_eta(s_prime: float, delta: float, k1: int) -> float:
    """Discretization-aware content threshold max(k1^-2, 16 (2 delta)^s').

    Takes the classical (log 1/delta)^-2 = k1^-2 when the induced arc length
    gamma stays >= 2*delta, else raises eta just enough; fails when that
    pushes eta above 1.  Whether a circle's content reaches it is decided by
    extract_three_arcs.
    """
    eta = max(1.0 / (k1 * k1), 16.0 * (2.0 * delta) ** s_prime)
    if eta > 1.0 + 1e-12:
        raise InsufficientContent("resolution too coarse for this exponent")
    return eta


def extract_three_arcs(
    z: CircleParam, pts: np.ndarray, s_prime: float, eta: float, *, delta: float
) -> ArcTriple:
    """Scan arcs of length gamma = (eta/16)^(1/s') and cut out three
    separated groups whose cumulative per-arc content reaches eta/8.

    The one place that decides the precondition: the circle's content lower
    estimate must reach eta (_require_content), else InsufficientContent.
    This is scan_circles on one circle.
    """
    (triple,) = scan_circles([(z, pts)], s_prime, eta, delta=delta)
    if isinstance(triple, InsufficientContent):
        raise triple
    return triple


def scan_circles(circles, s_prime: float, eta: float, *, delta: float) -> list:
    """extract_three_arcs of every (z, pts) in `circles`, in lockstep: each
    round covers the next arc of every circle still scanning through one
    _greedy_cover call.  Returns per circle its ArcTriple or the
    InsufficientContent it raised."""
    scans = [_arc_scan(z, np.asarray(pts, dtype=float), s_prime, eta, delta) for z, pts in circles]
    results, sends = [None] * len(scans), dict.fromkeys(range(len(scans)))
    while sends:
        arcs = {}
        for i, content in sends.items():
            try:
                arcs[i] = scans[i].send(content)
            except StopIteration as done:
                results[i] = done.value
            except InsufficientContent as err:
                results[i] = err
        covers = _greedy_cover(list(arcs.values()), s_prime, delta) if arcs else []
        sends = {i: est.upper for i, est in zip(arcs, covers)}
    return results


def _arc_scan(z: CircleParam, pts: np.ndarray, s_prime: float, eta: float, delta: float):
    """extract_three_arcs as a generator: it yields the points of each filled
    arc whose content it needs next, in scan order, is sent that arc's
    content_greedy upper estimate, and returns the ArcTriple."""
    if not (0.0 < eta <= 1.0):
        raise InsufficientContent("need 0 < eta <= 1")
    if pts.shape[0] == 0:
        raise InsufficientContent("empty circle cloud")
    theta = circle_angles(z, pts)
    _require_content(z, pts, theta, s_prime, delta, eta)
    r = z.radius
    gamma = (eta / 16.0) ** (1.0 / s_prime)
    assert gamma <= 1.0 / 16.0 + 1e-12
    n_arcs = math.ceil(2.0 * math.pi * r / gamma)
    assert n_arcs >= 16
    w = gamma / r
    # the arcs that hold points and their runs of `order`; nothing sized by n_arcs.
    # The scans of a set run side by side, so each keeps only what it reads.
    filled, bounds, order = _unique_runs(np.minimum((theta / w).astype(np.int64), n_arcs - 1))
    bounds, theta = np.append(bounds, order.size), None
    arc = lambda i: pts[order[bounds[i] : bounds[i + 1]]]
    target = eta / 8.0
    tol = gamma ** s_prime

    def scan(start: int, stop: int):
        """Smallest end arc in [start+1, stop] (at least two arcs) with cumulative
        content >= target.  Only filled arcs move the sum; a first arc that
        reaches the target alone ends the scan at start + 1."""
        cum, lo = 0.0, filled.searchsorted(start)
        for i, l in enumerate(filled[lo : filled.searchsorted(stop + 1)].tolist(), lo):
            cum += yield arc(i)
            if cum >= target:
                if l == start and i + 1 < filled.size and filled[i + 1] == start + 1:
                    cum += yield arc(i + 1)
                return max(l, start + 1), cum
        raise InsufficientContent("arc scan exhausted the circle")

    e1, c1 = yield from scan(0, n_arcs - 13)
    e2, c2 = yield from scan(e1 + 2, n_arcs - 9)
    e3, c3 = yield from scan(e2 + 2, n_arcs - 3)
    for c in (c1, c2, c3):
        if not (target - tol <= c <= 3.0 * eta / 16.0 + tol):
            raise InsufficientContent("arc content escaped the bracket")
    ends = ((0.0, (e1 + 1) * w), ((e1 + 2) * w, (e2 + 1) * w), ((e2 + 2) * w, (e3 + 1) * w))
    triple = ArcTriple(z, ends, gamma, gamma / math.pi, (c1, c2, c3))
    if triple.min_chord_separation() < gamma / math.pi - 1e-12:
        raise InsufficientContent("arc separation collapsed")
    return triple


def _arc_cell_keys(triple: ArcTriple, pts: np.ndarray, k: int):
    """Sorted packed keys of the occupied cells of side 2^-k of each of the
    three arcs' cloud points."""
    theta = circle_angles(triple.z, pts)
    keys = _pack(np.floor(pts * (1 << k)).astype(np.int64))
    return [_unique_runs(keys[(theta >= lo) & (theta < hi)])[0] for lo, hi in triple.intervals]


@dataclass
class TripleIndex:
    """Occupied-cell counts (n+, n-, nx) of the three arcs of every circle.

    Row i of ``counts`` belongs to circle i, zeros for a circle without a
    triple.  The quadruples (cell+, cell-, cellx, circle index) of arc-cell
    incidences number n+ * n- * nx per circle, so ``count`` (#T) is the sum
    of the products, taken in Python ints so that it cannot overflow.
    """

    counts: np.ndarray  # (n_circles, 3) int64

    @property
    def count(self) -> int:
        return sum(a * b * c for a, b, c in self.counts.tolist())


def build_triple_index(arc_data, k: int) -> TripleIndex:
    """Arc cells of side 2^-k; arc_data: iterable of (ArcTriple or None,
    circle cloud points) in circle order."""
    rows = [
        [0, 0, 0] if triple is None else [c.size for c in _arc_cell_keys(triple, pts, k)]
        for triple, pts in arc_data
    ]
    return TripleIndex(counts=np.array(rows, dtype=np.int64))


def triple_upper_ratio(t_index: TripleIndex, n_cells: int, tau: float) -> float:
    """#T * tau^6 / (#cells)^3; bounded by a constant via the three-circle
    confinement, reported as measured."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if n_cells == 0:
        raise EmptyInput("empty grid")
    return t_index.count * tau ** 6 / n_cells ** 3


def step4_reference_count(s_prime: float, k1: int) -> float:
    """The per-arc covering-count reference delta^-s' * (log 1/delta)^-2."""
    return 2.0 ** (k1 * s_prime) / (k1 * k1)


# --- multiplicity fields ------------------------------------------------------


@dataclass
class MultiplicityField:
    """Multiplicity values m(w) at the centers w of the annulus cells.

    ``cells`` is the (n, 2) int64 array of every cell some annulus meets, in
    lexicographic order, and ``values`` (m) the (n,) array aligned with it.
    ``positions`` holds each atom's annulus cells as indices into ``cells``,
    in lexicographic order, concatenated in atom order; ``per_atom_counts``
    gives each atom's share.  Every value is the left-to-right float sum of
    its covering atoms' weights in ascending atom order, so reruns agree bit
    for bit.
    """

    cells: np.ndarray
    values: np.ndarray
    per_atom_counts: np.ndarray
    positions: np.ndarray

    @property
    def sup(self) -> float:
        return float(self.values.max()) if self.values.size else 0.0


def _branch_ranges(x, xlo, xhi, g: float):
    """Column ranges [lo, hi] of the cells of side g meeting the left branch
    [x - xhi, x - xlo] and the right branch [x + xlo, x + xhi] of each row,
    padded by one cell; row 0 of each array is the left branch."""
    lo = np.floor(np.array([x - xhi, x + xlo]) / g).astype(np.int64) - 1
    hi = np.floor(np.array([x - xlo, x + xhi]) / g).astype(np.int64) + 1
    return lo, hi


def _annulus_cells(atoms: np.ndarray, delta: float, g: float):
    """Incidences of cells of side g whose center w satisfies
    | ||w - x|| - r | <= delta, for every atom (x, r) at once.

    Returns (atom, keys): the atom index and packed cell key of each
    incidence, atom-major and each atom's cells in lexicographic order.
    """
    cx, cy, r = atoms[:, 0], atoms[:, 1], atoms[:, 2]
    r_out = r + delta
    r_in = np.maximum(r - delta, 0.0)
    iy_lo = np.floor((cy - r_out) / g).astype(np.int64)
    n_rows = np.floor((cy + r_out) / g).astype(np.int64) - iy_lo + 1
    atom, iy = _runs(iy_lo, n_rows)
    dy = (iy + 0.5) * g - cy[atom]
    # on a grid coarse enough that a cell center lies ~1e154 from the annuli,
    # dy ** 2 overflows to inf; the row then fails its test, which is exact
    with np.errstate(over="ignore"):
        out2 = r_out[atom] ** 2 - dy ** 2
    live = out2 >= 0.0
    atom, iy, dy, out2 = atom[live], iy[live], dy[live], out2[live]
    x = cx[atom]
    xhi = np.sqrt(out2)
    xlo = np.sqrt(np.maximum(r_in[atom] ** 2 - dy ** 2, 0.0))
    lo, hi = _branch_ranges(x, xlo, xhi, g)
    # a row whose two ranges overlap scans their union
    split = lo[1] > hi[0]
    seg_row = np.concatenate([np.arange(atom.size), split.nonzero()[0]])
    seg_lo = np.concatenate([lo[0], lo[1][split]])
    seg_hi = np.concatenate([np.where(split, hi[0], hi[1]), hi[1][split]])
    row, ix = _runs(seg_lo, seg_hi - seg_lo + 1)
    row = seg_row[row]
    keep = np.abs(np.hypot((ix + 0.5) * g - x[row], dy[row]) - r[atom[row]]) <= delta
    row = row[keep]
    atom = atom[row]
    keys = _pack(np.column_stack([ix[keep], iy[row]]))
    order = np.lexsort((keys, atom))
    return atom[order], keys[order]


def multiplicity_field(measure: DiscreteMeasure, delta: float, grid_k: int) -> MultiplicityField:
    """m(w) = sum of weights of atoms z = (x, r) with | ||w-x|| - r | <= delta,
    evaluated at the centers w of cells of side 2^-grid_k.

    The accumulation happens in ascending atom order.
    """
    atom, keys = _annulus_cells(measure.points, delta, 2.0 ** (-grid_k))
    uniq, _, _ = _unique_runs(keys)
    pos = np.searchsorted(uniq, keys)
    # bincount adds in input order, which is atom-major
    return MultiplicityField(
        cells=_unpack(uniq, 2),
        values=np.bincount(pos, weights=measure.weights[atom], minlength=uniq.size),
        per_atom_counts=np.bincount(atom, minlength=len(measure)),
        positions=pos,
    )


def annulus_cell_count(atom, delta: float, g: float) -> int:
    """Cells of side g whose center w satisfies | ||w - x|| - r | <= delta for
    one atom (x, r), counted over the whole bounding box of the annulus,
    padded by one cell, without the row and branch pruning of
    multiplicity_field: an independent check of its per-atom counts."""
    cx, cy, r = (float(v) for v in atom)
    r_out = r + delta
    ix = np.arange(math.floor((cx - r_out) / g) - 1, math.floor((cx + r_out) / g) + 2)
    iy = np.arange(math.floor((cy - r_out) / g) - 1, math.floor((cy + r_out) / g) + 2)
    dx = (ix + 0.5) * g - cx
    count = 0
    for rows in np.array_split(iy, -(-iy.size * ix.size // (1 << 18))):  # ~256k cells a pass
        dy = (rows + 0.5) * g - cy
        # at grid_k = -1023 a corner cell's hypot overflows to inf, which
        # fails the test, the exact answer there
        with np.errstate(over="ignore"):
            dist = np.hypot(dx[None, :], dy[:, None])
        count += int(np.count_nonzero(np.abs(dist - r) <= delta))
    return count


@dataclass
class ThresholdParams:
    """Low-multiplicity thresholding parameters, derived from the exponents
    s', t', epsilon, the scale k1 and the area constant c0, and the reference
    delta^(2-s') / (4^s' k1^2) for the area of a circle's annulus cells."""

    eta: float
    a_param: float
    lam: float
    threshold: float
    s1_area_reference: float

    @classmethod
    def from_exponents(
        cls, s_prime: float, t_prime: float, epsilon: float, k1: int, *, c0: float = C0_DEFAULT
    ) -> "ThresholdParams":
        if not (0.5 < s_prime <= 1.0):
            raise ValueError("threshold route needs 1/2 < s' <= 1")
        if not (0.0 < t_prime <= 1.0 and epsilon > 0.0):
            raise ValueError("need t' in (0,1] and epsilon > 0")
        if not c0 > 0.0:
            raise ValueError("need c0 > 0")
        delta = 2.0 ** (-k1)
        eta = min(epsilon / (2.0 * t_prime), (2.0 * s_prime - 1.0) / 2.0)
        a_param = delta ** (-eta)
        lam = delta ** (1.0 - s_prime) / (2.0 * c0 * 4.0 ** s_prime * k1 * k1)
        threshold = a_param ** t_prime * lam ** (-2.0 * t_prime) * delta ** t_prime
        if not (0.0 < lam <= 1.0):
            raise ValueError("lambda escaped (0, 1]")
        return cls(
            eta=eta,
            a_param=a_param,
            lam=lam,
            threshold=threshold,
            s1_area_reference=delta ** (2.0 - s_prime) / (4.0 ** s_prime * k1 * k1),
        )


def low_multiplicity_subset(field: MultiplicityField, threshold: float) -> np.ndarray:
    """|S2| of every atom: the number of its annulus cells (S1, counted by
    ``field.per_atom_counts``) whose multiplicity lies strictly below the
    threshold, as an int64 array in atom order, from one pass over the
    incidences.  The ratio |S2|/|S1| is a reported statistic, not asserted."""
    n_atoms = field.per_atom_counts.size
    atom_of_incidence = np.repeat(np.arange(n_atoms), field.per_atom_counts)
    low = field.values[field.positions] < threshold
    return np.bincount(atom_of_incidence[low], minlength=n_atoms)
