"""Rotated-box geometry on the bird's-eye-view ground plane.

Boxes are rectangles parameterized by center, footprint and heading:
``length`` extends along the heading (yaw) direction, ``width`` across it.
Distances are meters, angles radians. Polygon work (exact rotated IoU) is
done with Sutherland-Hodgman clipping plus the shoelace formula, which is
exact for convex quads up to float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .columns import RowColumns

if TYPE_CHECKING:
    from .bev_grid import Heatmap

_TWO_PI = 2.0 * math.pi


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    y = math.fmod(yaw, _TWO_PI)
    if y <= -math.pi:
        y += _TWO_PI
    elif y > math.pi:
        y -= _TWO_PI
    return y


def box_corners(cx, cy, length, width, yaw):
    """Heading cosine and sine, and corners in counter-clockwise order, of
    one box (floats; corners (4, 2)) or a column of boxes (arrays; corners
    (4, 2, n)): ``math.cos``/``math.sin`` per yaw, then the same float
    operations in the same order, so a box and its column row agree bit for bit."""
    c, s = (np.array(list(map(f, yaw.tolist()))) if np.ndim(yaw) else f(yaw)
            for f in (math.cos, math.sin))
    hl, hw = 0.5 * length, 0.5 * width
    local = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    return c, s, np.array([(cx + c * u - s * v, cy + s * u + c * v) for u, v in local])


@dataclass(frozen=True)
class BevBox:
    """Rotated ground-plane box with class id and optional detection score.

    ``score`` stays ``None`` on ground-truth boxes and carries the detector
    confidence in [0, 1] on predictions. Yaw is normalized to (-pi, pi] at
    construction.
    """

    cx: float
    cy: float
    length: float
    width: float
    yaw: float = 0.0
    class_id: int = 0
    score: float | None = None

    def __post_init__(self) -> None:
        if not (self.length > 0.0 and self.width > 0.0):
            raise ValueError(
                f"box footprint must be positive, got {self.length} x {self.width}"
            )
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")
        for name in _FINITE_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"box {name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "yaw", normalize_yaw(float(self.yaw)))

    @property
    def area(self) -> float:
        return self.length * self.width

    def corners(self) -> np.ndarray:
        """Corner coordinates in counter-clockwise order, shape (4, 2)."""
        return box_corners(self.cx, self.cy, self.length, self.width, self.yaw)[2]


_BOX_FIELDS = tuple(f.name for f in fields(BevBox))
_FINITE_FIELDS = _BOX_FIELDS[:5]  # cx, cy, length, width, yaw: checked in this order
_BOX_DTYPES = tuple(np.int64 if name == "class_id" else np.float64 for name in _BOX_FIELDS)


def _box_row(cx, cy, length, width, yaw, class_id, score) -> BevBox:
    return BevBox(cx, cy, length, width, yaw, class_id, None if score != score else score)


class BoxColumns(RowColumns):
    """A run of boxes held as one read-only numpy array per ``BevBox``
    field: float64 columns and an int64 ``class_id``; see
    :class:`RowColumns`. A box without a score (ground truth) holds NaN in
    the ``score`` column.

    Construction checks ``BevBox``'s rules on every row at once; the first
    row that breaks any of them raises its ``BevBox``'s error. The yaw is
    wrapped into (-pi, pi] exactly as :func:`normalize_yaw` does.
    """

    __slots__ = _fields = _BOX_FIELDS
    _dtypes = _BOX_DTYPES
    _row = staticmethod(_box_row)
    _record = BevBox
    _noun = "boxes"

    def __init__(self, cx, cy, length, width, yaw, class_id, score=None) -> None:
        if score is None:
            score = np.full(len(cx), np.nan)
        super().__init__(cx, cy, length, width, yaw, class_id, score, dtypes=_BOX_DTYPES)
        s = self.score
        ok = np.isfinite([getattr(self, f) for f in _FINITE_FIELDS]).all(axis=0)
        ok &= (self.length > 0.0) & (self.width > 0.0) & (np.isnan(s) | ((0.0 <= s) & (s <= 1.0)))
        if not ok.all():
            self[int(np.argmin(ok))]  # the first bad row, whose BevBox raises
        # normalize_yaw over the column: the same fmod and the same branches.
        y = np.fmod(self.yaw, _TWO_PI)
        y = np.where(y <= -math.pi, y + _TWO_PI, np.where(y > math.pi, y - _TWO_PI, y))
        y.setflags(write=False)
        self.yaw = y

    def corners(self) -> np.ndarray:
        """Each box's ``BevBox.corners()``, bit for bit, shape (n, 4, 2)."""
        return box_corners(*(getattr(self, f) for f in _FINITE_FIELDS))[2].transpose(2, 0, 1)


@dataclass(frozen=True)
class BoxPoolConfig:
    """Sampling lattice used to pool features over a (slightly expanded) box."""

    grid_h: int = 7
    grid_w: int = 7
    expansion: float = 1.2

    def __post_init__(self) -> None:
        if self.grid_h < 1 or self.grid_w < 1:
            raise ValueError("pooling grid must be at least 1 x 1")
        if not self.expansion > 0.0:
            raise ValueError(f"expansion must be positive, got {self.expansion}")


@dataclass(frozen=True)
class DeformSamplingConfig:
    """Multi-scale point sampling layout around a reference location."""

    points_per_scale: int = 4
    num_scales: int = 3
    scale_factors: tuple[int, ...] = (1, 2, 4)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale_factors", tuple(self.scale_factors))
        if self.points_per_scale < 1:
            raise ValueError("points_per_scale must be at least 1")
        if self.num_scales < 1:
            raise ValueError("num_scales must be at least 1")
        if len(self.scale_factors) != self.num_scales:
            raise ValueError(
                f"expected {self.num_scales} scale factors, got {len(self.scale_factors)}"
            )
        if self.scale_factors[0] != 1:
            raise ValueError("the first scale factor must be 1 (the base resolution)")
        if any(b <= a for a, b in zip(self.scale_factors, self.scale_factors[1:])):
            raise ValueError("scale factors must be strictly increasing")


def center_distance(a: BevBox, b: BevBox) -> float:
    """Euclidean distance between box centers on the ground plane."""
    return math.hypot(a.cx - b.cx, a.cy - b.cy)


def polygon_area(vertices: Sequence[tuple[float, float]]) -> float:
    """Signed shoelace area; positive for counter-clockwise vertex order."""
    n = len(vertices)
    if n < 3:
        return 0.0
    area = 0.0
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return 0.5 * area


def _intersect(p, q, p_side: float, q_side: float) -> tuple[float, float]:
    # The side value is linear along the segment, so this hits the clip
    # line exactly (up to rounding).
    t = p_side / (p_side - q_side)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def clip_polygon(subject, clip) -> list[tuple[float, float]]:
    """Clip ``subject`` against a convex, counter-clockwise ``clip`` polygon.

    Sutherland-Hodgman: the subject is trimmed against each clip edge in
    turn. Returns the (possibly empty) intersection polygon.
    """
    output = [(float(p[0]), float(p[1])) for p in subject]
    clip_pts = [(float(p[0]), float(p[1])) for p in clip]
    n_clip = len(clip_pts)
    for i in range(n_clip):
        if not output:
            break
        ex, ey = clip_pts[i]
        fx, fy = clip_pts[(i + 1) % n_clip]
        dx, dy = fx - ex, fy - ey
        polygon = output
        output = []
        prev = polygon[-1]
        prev_side = dx * (prev[1] - ey) - dy * (prev[0] - ex)
        for cur in polygon:
            cur_side = dx * (cur[1] - ey) - dy * (cur[0] - ex)
            if cur_side >= 0.0:
                if prev_side < 0.0:
                    output.append(_intersect(prev, cur, prev_side, cur_side))
                output.append(cur)
            elif prev_side >= 0.0:
                output.append(_intersect(prev, cur, prev_side, cur_side))
            prev, prev_side = cur, cur_side
    return output


def rotated_iou_bev(a: BevBox, b: BevBox) -> float:
    """Exact IoU of two rotated boxes via convex polygon clipping.

    Both footprint areas come from the same shoelace evaluation as the
    intersection, so identical boxes give exactly 1.0.
    """
    return corners_iou(a.corners(), b.corners())


def corners_iou(ca: np.ndarray, cb: np.ndarray) -> float:
    """:func:`rotated_iou_bev` of two boxes given by their ``corners()``."""
    inter_poly = clip_polygon(ca, cb)
    if len(inter_poly) < 3:
        return 0.0
    inter = abs(polygon_area(inter_poly))
    union = abs(polygon_area(list(ca))) + abs(polygon_area(list(cb))) - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, inter / union)


def box_pool_points(box: BevBox, cfg: BoxPoolConfig = BoxPoolConfig()) -> np.ndarray:
    """Regular lattice of sample points covering the expanded box footprint.

    The footprint scaled by ``cfg.expansion`` is subdivided into
    ``grid_h x grid_w`` cells and the cell centers are rotated into world
    coordinates. Points are ordered row-major in the box frame: rows sweep
    the width axis, columns the length axis. Shape (grid_h * grid_w, 2).
    """
    ext_l = box.length * cfg.expansion
    ext_w = box.width * cfg.expansion
    us = (np.arange(cfg.grid_w) + 0.5) * (ext_l / cfg.grid_w) - 0.5 * ext_l
    vs = (np.arange(cfg.grid_h) + 0.5) * (ext_w / cfg.grid_h) - 0.5 * ext_w
    vv, uu = np.meshgrid(vs, us, indexing="ij")
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    xs = box.cx + c * uu - s * vv
    ys = box.cy + s * uu + c * vv
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


def _bilinear_gather(values: np.ndarray, gx, gy) -> np.ndarray:
    """Bilinearly sample every channel of ``values[C][Y][X]`` at the points
    (gx[i], gy[i]), reading zero outside the grid; returns float64 (n, C)."""
    gx, gy = np.asarray([gx, gy], dtype=np.float64)
    if not np.isfinite(gx).all() or not np.isfinite(gy).all():
        raise ValueError("sample coordinates must be finite")
    _, ny, nx = values.shape
    x0, y0 = np.floor(gx), np.floor(gy)
    fx, fy = gx - x0, gy - y0
    xs = x0[:, None] + (0.0, 1.0, 0.0, 1.0)  # corners 00, 10, 01, 11
    ys = y0[:, None] + (0.0, 0.0, 1.0, 1.0)
    inside = (0 <= xs) & (xs < nx) & (0 <= ys) & (ys < ny)
    ix = np.clip(xs, 0, nx - 1).astype(np.intp)
    iy = np.clip(ys, 0, ny - 1).astype(np.intp)
    v = np.where(inside, values[:, iy, ix].astype(np.float64), 0.0)
    # Weight times value, summed left to right: a per-point loop's rounding.
    return (
        (1.0 - fx) * (1.0 - fy) * v[..., 0]
        + fx * (1.0 - fy) * v[..., 1]
        + (1.0 - fx) * fy * v[..., 2]
        + fx * fy * v[..., 3]
    ).T


def bilinear_sample(channel: np.ndarray, gx: float, gy: float) -> float:
    """Bilinearly interpolate one grid channel at fractional (gx, gy).

    Integer coordinates address stored values exactly; anything outside the
    grid reads as zero, so samples decay to 0 within one cell of the border.
    """
    return float(_bilinear_gather(np.asarray(channel)[None], [gx], [gy])[0, 0])


def box_pool(heatmap: "Heatmap", box: BevBox, cfg: BoxPoolConfig = BoxPoolConfig()) -> np.ndarray:
    """Pool every heatmap channel over the box sampling lattice.

    Returns a flat float64 vector of length grid_h * grid_w * C laid out
    point-major (all channels of point 0, then point 1, ...). Points that
    fall outside the map are zero-padded by the bilinear kernel.
    """
    gx, gy = heatmap.spec.world_to_grid(box_pool_points(box, cfg).T)
    return _bilinear_gather(heatmap.values, gx, gy).ravel()


def deform_sample(
    pyramid: Sequence["Heatmap"],
    ref: tuple[float, float],
    offsets,
    cfg: DeformSamplingConfig = DeformSamplingConfig(),
) -> np.ndarray:
    """Sample bilinear heatmap values around a world reference point.

    ``pyramid`` holds one heatmap per scale; level ``s`` is treated as the
    base map downsampled by ``cfg.scale_factors[s]``, so the reference is
    converted to base grid coordinates with level 0's spec and divided by
    the level factor. ``offsets[s][j]`` are fractional (dx, dy) offsets in
    level-``s`` cells. Returns (num_scales, points_per_scale, C) float64.
    """
    if len(pyramid) != cfg.num_scales:
        raise ValueError(f"expected {cfg.num_scales} pyramid levels, got {len(pyramid)}")
    offsets = np.asarray(offsets, dtype=np.float64)
    if offsets.shape != (cfg.num_scales, cfg.points_per_scale, 2):
        raise ValueError(
            "offsets must have shape (num_scales, points_per_scale, 2), "
            f"got {offsets.shape}"
        )
    num_classes = pyramid[0].values.shape[0]
    for level, hm in enumerate(pyramid):
        if hm.values.shape[0] != num_classes:
            raise ValueError(f"pyramid level {level} has a different channel count")
    gx0, gy0 = pyramid[0].spec.world_to_grid(ref)
    return np.stack(
        [
            _bilinear_gather(hm.values, gx0 / factor + off[:, 0], gy0 / factor + off[:, 1])
            for hm, factor, off in zip(pyramid, cfg.scale_factors, offsets)
        ]
    )
