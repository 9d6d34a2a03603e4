"""Generators for discretized circular Furstenberg-type sets.

A configuration (s, t, k1, preset, seed) produces a delta-separated circle
family V inside the reference parameter box (centers in B(0,1/4), radii in
[1/2, 2]) carrying a t-dimensional Cantor structure, plus per-circle angular
s-sets at resolution delta/r, and the assembled planar cloud.  Everything is
deterministic given the seed; the seed only rotates the angular sets.  Cantor
levels are built once for all circles, and the circles' points fill one
preallocated array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigInvalid, OriginInput, OutOfAnnulus
from .fractal import DeltaQSet, PointCloud, _cell_keys, _unique_runs, verify_non_concentration
from .geometry import CircleParam

PRESETS = ("concentric", "center-segment", "radius-graph")

# Per-circle angular cardinality must land in [delta^-s / CARD_PIN,
# CARD_PIN * delta^-s]; dimension targets are met by the closest realizable
# log n / log m at least s - DIM_SLACK.
CARD_PIN = 64.0
DIM_SLACK = 0.02


@dataclass(frozen=True)
class CantorSpec:
    """Self-similar subdivision: keep `pattern` of m sub-intervals, k levels."""

    m: int
    pattern: tuple
    levels: int

    def __post_init__(self):
        object.__setattr__(self, "pattern", tuple(sorted(int(i) for i in self.pattern)))
        if not 2 <= self.m <= 2 ** 53:  # m^-level is computed in floats
            raise ConfigInvalid("subdivision m must lie in [2, 2^53]")
        if not self.pattern or len(set(self.pattern)) != len(self.pattern):
            raise ConfigInvalid("pattern must be a nonempty set of indices")
        if self.pattern[0] < 0 or self.pattern[-1] >= self.m:
            raise ConfigInvalid("pattern indices must lie in [0, m)")
        if self.levels < 0:
            raise ConfigInvalid("levels must be >= 0")

    @property
    def n(self) -> int:
        return len(self.pattern)

    @property
    def realized_dim(self) -> float:
        return math.log(self.n) / math.log(self.m)


def choose_cantor_base(dim: float):
    """Closest realizable (m <= 16, pattern): log n / log m >= dim - DIM_SLACK.

    Kept indices are spread across [0, m) with both endpoints retained, so
    sets at different levels stay well separated.  At least two are kept: a
    one-index base never gains a point, however deep it is subdivided.
    """
    if not (0.0 < dim <= 1.0):
        raise ConfigInvalid("dimension must lie in (0, 1]")
    if dim == 1.0:
        return 2, (0, 1)
    best = None
    for m in range(2, 17):
        for n in range(2, m + 1):
            real = math.log(n) / math.log(m)
            if real < dim - DIM_SLACK or real > 1.0:
                continue
            key = (abs(real - dim), m, n)
            if best is None or key < best[0]:
                pattern = tuple(sorted({round(i * (m - 1) / (n - 1)) for i in range(n)}))
                if len(pattern) != n:
                    continue
                best = (key, m, pattern)
    if best is None:
        raise ConfigInvalid(f"no realizable Cantor base for dimension {dim}")
    return best[1], best[2]


def cantor_points(spec: CantorSpec, interval) -> np.ndarray:
    """Left endpoints of the level-k retained sub-intervals, mapped affinely.

    Returns n^k sorted points.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ConfigInvalid("interval must be nondegenerate")
    x = np.array([0.0])
    digits = np.array(spec.pattern, dtype=float)
    for level in range(1, spec.levels + 1):
        x = (x[:, None] + digits[None, :] * spec.m ** (-float(level))).ravel()
    return lo + (hi - lo) * x


def _levels_for_separation(m: int, pattern, length: float, min_gap: float) -> int:
    """Deepest level whose realized point set keeps gaps >= min_gap.

    A pattern of fewer than two indices never gains a point, however deep it
    is subdivided, so no level would end the search: it is refused.
    """
    if len(pattern) < 2:
        raise ConfigInvalid(f"Cantor pattern {tuple(pattern)} keeps fewer than two indices")
    levels = 0
    while True:
        cand = CantorSpec(m, pattern, levels + 1)
        pts = cantor_points(cand, (0.0, length))
        if len(pts) > 1 and float(np.diff(pts).min()) < min_gap:
            return levels
        levels += 1
        if len(pts) >= 2 ** 26:
            return levels


@dataclass(frozen=True)
class FurstenbergConfig:
    """Target exponents s, t in (0,1], scale k1 (delta = 2^-k1), preset, seed.

    `cantor` overrides the angular (s) subdivision base for s < 1, and is unused
    at s = 1, whose sets are not Cantor; the radial/parameter (t) base is automatic.
    """

    s: float
    t: float
    k1: int
    preset: str
    seed: int
    cantor: Optional[tuple] = None  # (m, pattern)

    def __post_init__(self):
        if not (0.0 < self.s <= 1.0 and 0.0 < self.t <= 1.0):
            raise ConfigInvalid("s and t must lie in (0, 1]")
        if self.k1 <= 5:
            raise ConfigInvalid("delta too coarse: need k1 >= 6")
        if self.k1 > 1074:  # 2^-k1 rounds to 0
            raise ConfigInvalid("delta too fine: need k1 <= 1074")
        if self.preset not in PRESETS:
            raise ConfigInvalid(f"unknown preset {self.preset!r}")
        if self.cantor is not None:
            m, pattern = self.cantor
            if len(pattern) < 2:
                raise ConfigInvalid("cantor pattern needs at least two indices")
            CantorSpec(int(m), tuple(pattern), 1)
            object.__setattr__(self, "cantor", (int(m), tuple(int(i) for i in pattern)))

    @property
    def delta(self) -> float:
        return 2.0 ** (-self.k1)

    @property
    def realized_s(self) -> float:
        """Dimension log n / log m of the angular base; 1 for s = 1."""
        base = _angular_base(self)
        return 1.0 if base is None else CantorSpec(*base, 1).realized_dim

    @property
    def realized_t(self) -> float:
        """Dimension log n / log m of the parameter family's base."""
        return CantorSpec(*choose_cantor_base(self.t), 1).realized_dim


def generate_parameter_set(config: FurstenbergConfig) -> DeltaQSet:
    """The circle family V as a delta-separated (delta, t)-style set in R^3."""
    delta = config.delta
    m, pattern = choose_cantor_base(config.t)
    if config.preset == "concentric":
        levels = _levels_for_separation(m, pattern, 1.5, delta)
        radii = cantor_points(CantorSpec(m, pattern, levels), (0.5, 2.0))
        pts = np.column_stack([np.zeros_like(radii), np.zeros_like(radii), radii])
    elif config.preset == "center-segment":
        levels = _levels_for_separation(m, pattern, 0.5, delta)
        u = cantor_points(CantorSpec(m, pattern, levels), (-0.25, 0.25))
        pts = np.column_stack([u, np.zeros_like(u), np.ones_like(u)])
    else:  # radius-graph: radius = 1/2 + center abscissa, a Lipschitz graph
        levels = _levels_for_separation(m, pattern, 0.25, delta / math.sqrt(2.0))
        u = cantor_points(CantorSpec(m, pattern, levels), (0.0, 0.25))
        pts = np.column_stack([u, np.zeros_like(u), 0.5 + u])
    cloud = PointCloud(pts, config.k1)
    if not (
        np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 0.25 + 1e-12)
        and np.all((pts[:, 2] >= 0.5) & (pts[:, 2] <= 2.0))
    ):
        raise ConfigInvalid("parameter point escapes the reference box")
    ds = DeltaQSet(cloud, float(config.t), 0.0)
    ds.conc_measured = verify_non_concentration(ds, 128, seed=config.seed)
    return ds


@functools.lru_cache(maxsize=64)
def _circular_cantor(m: int, pattern: tuple, levels: int):
    """(angles, least gap) of the level-`levels` circular Cantor set, read-only, for
    every circle; its span makes the seam gap the least inner gap, wasting no level."""
    unit = cantor_points(CantorSpec(m, pattern, levels), (0.0, 1.0))
    ang = unit * (2.0 * math.pi / (unit[-1] + float(np.diff(unit).min())))
    ang.flags.writeable = False
    return ang, min(float(np.diff(ang).min()), 2.0 * math.pi - float(ang[-1]))


@functools.lru_cache(maxsize=64)
def _rotation(seed) -> float:
    """The angle every angular set of `seed` is rotated by, drawn once a seed."""
    return 0.0 if seed is None else np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)


def generate_angular_set(
    z: CircleParam,
    s: float,
    delta: float,
    seed,
    cantor: Optional[tuple] = None,
) -> np.ndarray:
    """Angles in [0, 2pi) of a (delta/r)-separated Cantor s-set on S(z).

    The seed only rotates the whole set; cardinality, separations and
    box-counts are seed-invariant.
    """
    if not z.in_reference_box():
        raise ConfigInvalid("circle parameter outside the reference box")
    r = z.radius
    step = delta / r
    if s == 1.0:
        count = math.floor(2.0 * math.pi / step)
        angles = np.arange(count) * step
    else:
        m, pattern = choose_cantor_base(s) if cantor is None else cantor
        pattern, levels = tuple(pattern), 1
        while _circular_cantor(m, pattern, levels + 1)[1] >= step:
            levels += 1
        angles = _circular_cantor(m, pattern, levels)[0]
    # x ascends in [0, 4 pi); each x >= 2 pi lies below x[0] with x % 2 pi == x - 2 pi
    # exactly (Sterbenz), so the sorted remainder is a rotation of x
    x = angles + _rotation(seed)
    w = x.searchsorted(2.0 * math.pi)
    return np.concatenate((x[w:] - 2.0 * math.pi, x[:w]))


@dataclass
class DiscretizedFurstenbergSet:
    """Circle family V, per-circle angle lists, and the planar union cloud.  Circle
    i's points before deduplication are points[offsets[i]:offsets[i + 1]], read-only;
    cloud.points is this same array when no point was dropped."""

    config: FurstenbergConfig
    v: DeltaQSet
    circles: list
    angular: list
    cloud: PointCloud
    points: np.ndarray
    offsets: np.ndarray


def _circle_points(z: CircleParam, angles: np.ndarray, out=None) -> np.ndarray:
    """center + radius (cos, sin) of `angles`, into the (n, 2) block `out` if given."""
    out = np.empty((len(angles), 2)) if out is None else out
    np.add(z.center[0], z.radius * np.cos(angles), out=out[:, 0])
    np.add(z.center[1], z.radius * np.sin(angles), out=out[:, 1])
    return out


def _angular_base(config: FurstenbergConfig):
    """(m, pattern) of the angular sets; None for s = 1 (not Cantor: `cantor` is unused)."""
    if config.s == 1.0:
        return None
    return config.cantor or choose_cantor_base(config.s)


def _circles(config: FurstenbergConfig, v: DeltaQSet, base):
    """Yield (z, angles) per circle of V in canonical order; raises
    ConfigInvalid when a circle's angular cardinality leaves the CARD_PIN
    window."""
    lo_card = 2.0 ** (config.k1 * config.s) / CARD_PIN
    hi_card = 2.0 ** (config.k1 * config.s) * CARD_PIN
    for row in v.cloud.points:
        z = CircleParam((row[0], row[1]), row[2])
        angles = generate_angular_set(z, config.s, config.delta, config.seed, cantor=base)
        if not (lo_card <= len(angles) <= hi_card):
            raise ConfigInvalid(
                f"angular cardinality {len(angles)} outside pinned window"
            )
        yield z, angles


def iter_furstenberg_points(config: FurstenbergConfig):
    """Yield per-circle planar point arrays in canonical circle order.

    Streaming variant of assemble_furstenberg (no global dedup) for clouds
    too large to hold alongside their grids; each chunk equals that circle's
    slice of the assembled `points`, from the same kernel.
    """
    v = generate_parameter_set(config)
    for z, angles in _circles(config, v, _angular_base(config)):
        yield _circle_points(z, angles)


def assemble_furstenberg(config: FurstenbergConfig) -> DiscretizedFurstenbergSet:
    """Build the full discretized set; deterministic in config + seed.  Circles fill
    one point array and one delta/4 cell-key array; one unique keeps each cell's
    first point (as PointCloud.create), gathered only when a point was dropped."""
    v = generate_parameter_set(config)
    circles, angular = map(list, zip(*_circles(config, v, _angular_base(config))))
    offsets = np.cumsum([0, *map(len, angular)])
    points, keys = np.empty((offsets[-1], 2)), np.empty(offsets[-1], dtype=np.int64)
    for z, angles, lo, hi in zip(circles, angular, offsets, offsets[1:]):
        keys[lo:hi] = _cell_keys(_circle_points(z, angles, points[lo:hi]), config.k1 + 2)
    points.flags.writeable = False
    _, starts, order = _unique_runs(keys)
    del keys
    kept = points if len(starts) == len(points) else points[np.sort(order[starts])]
    return DiscretizedFurstenbergSet(
        config, v, circles, angular, PointCloud(kept, config.k1), points, offsets
    )


# --- the reciprocal map ------------------------------------------------------


def invert_points(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    n2 = (pts ** 2).sum(axis=1)
    if np.any(n2 == 0.0):
        raise OriginInput("the reciprocal is undefined at the origin")
    return np.column_stack([pts[:, 0] / n2, -pts[:, 1] / n2])


def invert_set(cloud: PointCloud) -> PointCloud:
    """Pointwise reciprocal of a cloud in the annulus B(0,4) \\ B(0,1)."""
    norms = np.linalg.norm(cloud.points, axis=1)
    if np.any(norms < 1.0 - 1e-12) or np.any(norms > 4.0 + 1e-12):
        raise OutOfAnnulus("points must satisfy 1 <= |p| <= 4")
    return PointCloud(invert_points(cloud.points), cloud.k)


def linear_furstenberg(s: float, k1: int, seed) -> PointCloud:
    """Union of delta-separated directions of lines through B(0,4) \\ B(0,1),
    each carrying a Cantor s-set of points.

    One line per direction, tangent to the unit circle, so the whole chord
    (length 2*sqrt(15)) stays inside the annulus; the direction family is
    the maximal delta-separated set of unit vectors.
    """
    if not (0.0 < s <= 1.0):
        raise ConfigInvalid("s must lie in (0, 1]")
    if k1 <= 5:
        raise ConfigInvalid("delta too coarse: need k1 >= 6")
    delta = 2.0 ** (-k1)
    rng = np.random.default_rng(seed)
    offset = rng.uniform(0.0, 2.0 * math.pi)
    half = math.sqrt(15.0)
    if s == 1.0:
        ts = np.arange(-half, half + delta / 2, delta)
    else:
        m, pattern = choose_cantor_base(s)
        levels = _levels_for_separation(m, pattern, 2.0 * half, delta)
        ts = cantor_points(CantorSpec(m, pattern, levels), (-half, half))
    n_dir = math.floor(math.pi / math.asin(delta / 2.0))
    thetas = offset + 2.0 * math.pi * np.arange(n_dir) / n_dir
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    # line j: tangent point (cos, sin) + t * (-sin, cos)
    xs = (cos_t[:, None] - ts[None, :] * sin_t[:, None]).ravel()
    ys = (sin_t[:, None] + ts[None, :] * cos_t[:, None]).ravel()
    return PointCloud.create(np.column_stack([xs, ys]), k1)
