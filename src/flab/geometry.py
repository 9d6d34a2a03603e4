"""Planar annulus geometry: circumcenters, two-annulus rectangles, and the
three-circle region bound.

The central object is the region

    W = {(x, b) in R^2 x [1/2, 2] : b - a <= |x - P| <= b + a for P in {A, B, C}},

the set of circle parameters whose circle passes within ``a`` of all three
points of a separated triangle.  For a triangle with pairwise separation
>= 2c and a < c^2/20, W is confined to a ball of radius 324*a/c^2 around the
circumcenter and to a radius window of the same width around the circumradius.
All inequalities here are closed, and all grid sampling is anchored at the
origin so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriangle, HypothesisViolated

# Constant from the rhombus estimate: diam of the planar section of W is at
# most THREE_CIRCLE_K * a / c^2; the full R^3 diameter at most twice that.
THREE_CIRCLE_K = 324.0

# Triangle degeneracy cutoff: |cross(B-A, C-A)| < DEGENERACY_TOL * diam^2.
DEGENERACY_TOL = 1e-12

_B_LO = 0.5
_B_HI = 2.0


def _as_point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float).reshape(2)
    if not np.all(np.isfinite(a)):
        raise ValueError("point coordinates must be finite")
    return a


@dataclass(frozen=True)
class CircleParam:
    """A circle S(center, radius), i.e. a point z = (x, r) of R^2 x (0, inf)."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if len(self.center) != 2 or not all(math.isfinite(v) for v in self.center):
            raise ValueError("center must be a finite point of R^2")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")

    def in_reference_box(self) -> bool:
        """Whether (center, radius) lies in the reference parameter box:
        ||center|| <= 1/4 and radius in [1/2, 2]."""
        return math.hypot(*self.center) <= 0.25 and _B_LO <= self.radius <= _B_HI


def circumcenter(A, B, C):
    """Circumcenter M and circumradius h of the triangle ABC.

    Raises DegenerateTriangle when |cross(B-A, C-A)| < 1e-12 * diam^2.
    """
    ok, M, h = _circumcenters(*(_as_point(p)[None] for p in (A, B, C)))
    if not ok[0]:
        raise DegenerateTriangle("collinear points within tolerance")
    return M[0], float(h[0])


def _circumcenters(A, B, C):
    """circumcenter of each row triple of the (n, 2) arrays A, B, C; elementwise,
    so a row's M and h do not depend on the others, with |u|^2 by np.vecdot
    (BLAS ddot, as u.dot(u)).  Returns (ok, M, h): ok is False where the
    triangle is degenerate, and M and h are given for the rows of ok."""
    u, v, w = B - A, C - A, C - B
    cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    diam = np.maximum(np.maximum(np.hypot(u[:, 0], u[:, 1]), np.hypot(v[:, 0], v[:, 1])),
                      np.hypot(w[:, 0], w[:, 1]))
    ok = ~(np.abs(cross) < DEGENERACY_TOL * diam * diam)
    u, v, cross = u[ok], v[ok], cross[ok]
    bu, bv = np.vecdot(u, u), np.vecdot(v, v)
    # Perpendicular bisector equations 2(B-A).m = |B|^2-|A|^2 etc., solved in
    # the frame centered at A.
    mx = (bu * v[:, 1] - bv * u[:, 1]) / (2.0 * cross)
    my = (bv * u[:, 0] - bu * v[:, 0]) / (2.0 * cross)
    return ok, A[ok] + np.column_stack([mx, my]), np.hypot(mx, my)


@dataclass(frozen=True)
class TriangleFrame:
    """Three points with pairwise separation >= 2*sep_scale, plus the
    degeneracy flag computed at construction."""

    a: tuple
    b: tuple
    c: tuple
    sep_scale: float
    degenerate: bool

    @classmethod
    def create(cls, A, B, C, sep_scale: float) -> "TriangleFrame":
        A, B, C = _as_point(A), _as_point(B), _as_point(C)
        c = float(sep_scale)
        if not (0.0 < c < 1.0):
            raise HypothesisViolated("sep_scale must lie in (0, 1)")
        dmin = min(np.hypot(*(B - A)), np.hypot(*(C - A)), np.hypot(*(C - B)))
        if dmin < 2.0 * c:
            raise HypothesisViolated("pairwise separation below 2*sep_scale")
        ok, _, _ = _circumcenters(A[None], B[None], C[None])
        return cls(tuple(A), tuple(B), tuple(C), c, not ok[0])

    def points(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c], dtype=float)


@dataclass(frozen=True)
class SeparatedRectangle:
    """Rectangle bounding the intersection of two equal-radius annuli.

    Short half-extent (9/2)(a/c) along the segment AB, long half-extent 3
    along the perpendicular bisector.
    """

    center: tuple
    short_half: float
    long_half: float
    short_axis: tuple
    long_axis: tuple

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        d = np.asarray(pts, dtype=float) - np.asarray(self.center)
        s = np.abs(d @ np.asarray(self.short_axis))
        l = np.abs(d @ np.asarray(self.long_axis))
        return (s <= self.short_half) & (l <= self.long_half)


def pairwise_rectangle(A, B, a: float, c: float) -> SeparatedRectangle:
    """Rectangle containing S^a(A,b) cap S^a(B,b) for every b in [1/2, 2]."""
    A, B = _as_point(A), _as_point(B)
    a = float(a)
    c = float(c)
    sep = float(np.hypot(*(B - A)))
    if not (0.0 < c < 1.0):
        raise HypothesisViolated("need 0 < c < 1")
    if sep < 2.0 * c:
        raise HypothesisViolated("need ||A-B|| >= 2c")
    if not (0.0 < a < c * c / 20.0):
        raise HypothesisViolated("need 0 < a < c^2/20")
    mid = 0.5 * (A + B)
    short_axis = (B - A) / sep
    long_axis = np.array([-short_axis[1], short_axis[0]])
    return SeparatedRectangle(
        center=tuple(mid),
        short_half=4.5 * a / c,
        long_half=3.0,
        short_axis=tuple(short_axis),
        long_axis=tuple(long_axis),
    )


def sample_two_annulus_points(A, B, a: float, n: int, rng):
    """Draw up to ``n`` points of union over b of S^a(A,b) cap S^a(B,b).

    Sampling is closed-form: draw b in [1/2, 2], then a radius around A in
    [b-a, b+a], then an angle inside the window where the distance-to-B
    constraint holds.  Every returned point is verified against both annuli;
    draws whose window is empty are retried.  Returns (points, b_values);
    fewer than n rows come back only if the intersection is empty for every
    sampled b.
    """
    A, B = _as_point(A), _as_point(B)
    D = float(np.hypot(*(B - A)))
    phi_ab = math.atan2(B[1] - A[1], B[0] - A[0])
    out = np.empty((0, 2))
    bs = np.empty(0)
    rounds = 0
    while out.shape[0] < n and rounds < 64:
        rounds += 1
        m = 2 * (n - out.shape[0]) + 16
        b = rng.uniform(_B_LO, _B_HI, m)
        r = rng.uniform(b - a, b + a)
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = np.maximum((r * r + D * D - (b + a) ** 2) / (2.0 * r * D), -1.0)
            hi = np.minimum((r * r + D * D - (b - a) ** 2) / (2.0 * r * D), 1.0)
        good = (r > 0) & (lo <= hi)
        if not np.any(good):
            continue
        b, r, lo, hi = b[good], r[good], lo[good], hi[good]
        cos_psi = rng.uniform(lo, hi)
        sign = np.where(rng.random(cos_psi.size) < 0.5, 1.0, -1.0)
        psi = np.arccos(cos_psi) * sign
        px = A[0] + r * np.cos(phi_ab + psi)
        py = A[1] + r * np.sin(phi_ab + psi)
        da = np.hypot(px - A[0], py - A[1])
        db = np.hypot(px - B[0], py - B[1])
        ok = (
            (da >= b - a) & (da <= b + a) & (db >= b - a) & (db <= b + a)
        )
        out = np.vstack([out, np.column_stack([px[ok], py[ok]])])
        bs = np.concatenate([bs, b[ok]])
    return out[:n], bs[:n]


@dataclass(frozen=True)
class WRegionBound:
    """Confinement data for W: ball B(M, K a/c^2) and the radius window."""

    circumcenter: tuple
    circumradius: float
    diam_bound: float
    radius_interval: tuple | None  # None when the clipped window is empty


@dataclass(frozen=True)
class EmptyRegion:
    """Returned for degenerate frames: W(b) is empty for every b."""


def three_circle_bound(frame: TriangleFrame, a: float):
    """Confinement bound for W with K = 324, or EmptyRegion when degenerate."""
    a = float(a)
    c = frame.sep_scale
    if not (0.0 < a < c * c / 20.0):
        raise HypothesisViolated("need 0 < a < c^2/20")
    if frame.degenerate:
        return EmptyRegion()
    M, h = circumcenter(frame.a, frame.b, frame.c)
    bound = THREE_CIRCLE_K * a / (c * c)
    lo = max(h - bound, _B_LO)
    hi = min(h + bound, _B_HI)
    interval = (lo, hi) if lo <= hi else None
    return WRegionBound(
        circumcenter=tuple(M),
        circumradius=h,
        diam_bound=bound,
        radius_interval=interval,
    )


# --- origin-anchored grid scan of W ----------------------------------------
#
# The planar grid is g*Z^2 and the b grid is {1/2 + m*g}.  One refinement loop
# (_scan_levels) starts from a square of halfwidth 2 + a + 2g around A, prunes
# its cells with interval bounds on the three distances, and splits each
# survivor into four until the cells have halfwidth <= 4g.  Pruning is
# conservative, so the grid points in the last level's cells that pass the
# exact test are exactly those a full scan would return.  Members come out
# cell-major, then by i, j and b.

_PRUNE_EPS = 1e-12


def _runs(lo: np.ndarray, n: np.ndarray):
    """Run index and value of every entry of the integer runs lo[j] .. lo[j] + n[j] - 1."""
    run = np.repeat(np.arange(n.size), n)
    return run, (lo + n - np.cumsum(n))[run] + np.arange(run.size)


def _scan_levels(frame: TriangleFrame, a: float, g: float):
    """Yield (cx, cy, half, blo, bhi) for each level of the refinement: the
    centers of the cells that may hold a planar point of W, their common
    halfwidth, and the b-envelope [blo, bhi] of each.  Stops after a level
    that is empty or has half <= 4g."""
    if not (0.0 < g <= a / 4.0):
        raise HypothesisViolated("need 0 < grid_step <= a/4")
    P = frame.points()[:, :, None]
    cx = np.array([frame.a[0]])
    cy = np.array([frame.a[1]])
    half = 2.0 + a + 2.0 * g
    while True:
        dx = np.abs(cx - P[:, 0])
        dy = np.abs(cy - P[:, 1])
        # a lower bound for max_P d_P and an upper bound for min_P d_P on the cell
        hi_min = np.hypot(np.maximum(dx - half, 0.0), np.maximum(dy - half, 0.0)).max(axis=0)
        lo_max = np.hypot(dx + half, dy + half).min(axis=0)
        keep = hi_min - lo_max <= 2.0 * a + _PRUNE_EPS
        keep &= hi_min - a <= _B_HI + _PRUNE_EPS
        keep &= lo_max + a >= _B_LO - _PRUNE_EPS
        cx, cy = cx[keep], cy[keep]
        yield cx, cy, half, np.maximum(hi_min[keep] - a, _B_LO), np.minimum(lo_max[keep] + a, _B_HI)
        if cx.size == 0 or half <= 4.0 * g:
            return
        half /= 2.0
        cx = np.concatenate([cx - half, cx - half, cx + half, cx + half])
        cy = np.concatenate([cy - half, cy + half, cy - half, cy + half])


def _enumerate_members(cx, cy, half, frame, a, g):
    """Exact grid members inside the given (pre-pruned) cells."""
    pts3 = frame.points()
    ilo = np.ceil((cx - half) / g).astype(np.int64)
    jlo = np.ceil((cy - half) / g).astype(np.int64)
    ni = np.maximum(np.ceil((cx + half) / g).astype(np.int64) - ilo, 0)
    nj = np.maximum(np.ceil((cy + half) / g).astype(np.int64) - jlo, 0)
    cell, i = _runs(ilo, ni)
    row, j = _runs(jlo[cell], nj[cell])
    xy = np.column_stack([i[row] * g, j * g])
    d = np.stack([np.hypot(xy[:, 0] - P[0], xy[:, 1] - P[1]) for P in pts3])
    blo = np.maximum(d.max(axis=0) - a, _B_LO)
    bhi = np.minimum(d.min(axis=0) + a, _B_HI)
    mlo = np.ceil((blo - _B_LO) / g - 1e-12).astype(np.int64)
    mhi = np.floor((bhi - _B_LO) / g + 1e-12).astype(np.int64)
    # The +-1e-12 index slack can admit a borderline b; re-check exactly below.
    point, m = _runs(mlo, np.where(blo <= bhi, np.maximum(mhi - mlo + 1, 0), 0))
    members = np.column_stack([xy[point], _B_LO + m * g])
    d = np.stack(
        [np.hypot(members[:, 0] - P[0], members[:, 1] - P[1]) for P in pts3]
    )
    good = np.all(
        (d >= members[:, 2] - a) & (d <= members[:, 2] + a), axis=0
    ) & (members[:, 2] >= _B_LO) & (members[:, 2] <= _B_HI)
    return members[good]


def w_region_grid_members(frame: TriangleFrame, a: float, grid_step: float) -> np.ndarray:
    """All grid points (x1, x2, b) of W on the origin-anchored grid.

    Raises HypothesisViolated unless 0 < grid_step <= a/4.
    """
    a, g = float(a), float(grid_step)
    for level in _scan_levels(frame, a, g):
        pass
    cx, cy, half, _, _ = level
    return _enumerate_members(cx, cy, half, frame, a, g)


def _hull_vertices(points: np.ndarray) -> np.ndarray:
    """The rows of ``points`` that are vertices of their convex hull, or all
    rows when Qhull cannot build a hull (fewer than dim + 1 points, or a flat
    set)."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        return points[ConvexHull(points).vertices]
    except QhullError:
        return points


def _diameter(points: np.ndarray) -> float:
    """Max pairwise Euclidean distance (any dimension), over the hull vertices.

    A farthest pair is a pair of hull vertices, so on sets whose distinct
    points lie well apart, such as grid members, this is the all-pairs
    maximum bit for bit (an oracle test pins it).  Of two points within
    rounding of each other Qhull may keep either, which can move the last bit.
    """
    if points.shape[0] < 2:
        return 0.0
    # A row strictly between its neighbours on a line along the last axis is
    # no hull vertex; grid members come in runs of b, each cut to its ends.
    step = np.diff(points[:, -1])
    line = (points[1:, :-1] == points[:-1, :-1]).all(axis=1)
    inner = line[:-1] & line[1:] & (step[:-1] * step[1:] > 0)
    cand = _hull_vertices(points[np.concatenate(([True], ~inner, [True]))])
    m = cand.shape[0]
    best = 0.0
    block = 2048
    for i in range(0, m, block):
        a = cand[i : i + block]
        for j in range(i, m, block):
            b = cand[j : j + block]
            d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
            best = max(best, float(d2.max()))
    return math.sqrt(best)


def w_region_sample_diameter(frame: TriangleFrame, a: float, grid_step: float) -> float:
    """Max pairwise R^3 distance over the grid members of W (0 if <= 1).

    Raises HypothesisViolated unless 0 < grid_step <= a/4.
    """
    return _diameter(w_region_grid_members(frame, a, grid_step))


def w_region_diameter_within(
    frame: TriangleFrame, a: float, grid_step: float, bound: float
) -> bool:
    """Whether the sampled diameter of W is <= bound.

    Walks the refinement levels; as soon as the reachable envelope of a
    level's surviving cells fits inside ``bound`` the answer is certified
    without enumeration.  Otherwise the last level is enumerated, so the
    result always equals w_region_sample_diameter(...) <= bound.  Raises
    HypothesisViolated unless 0 < grid_step <= a/4.
    """
    a, g = float(a), float(grid_step)
    for cx, cy, half, blo, bhi in _scan_levels(frame, a, g):
        if cx.size == 0:
            return True
        dx = (cx.max() + half) - (cx.min() - half)
        dy = (cy.max() + half) - (cy.min() - half)
        db = max(float(bhi.max() - blo.min()), 0.0)
        if math.sqrt(dx * dx + dy * dy + db * db) <= bound:
            return True
    return _diameter(_enumerate_members(cx, cy, half, frame, a, g)) <= bound
