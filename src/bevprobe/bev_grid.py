"""BEV grid definition, Gaussian center-heatmap rendering, and file I/O.

A grid is a lattice of cell sample points: integer grid coordinate (i, j)
sits at world position (origin + i * cell_size, origin + j * cell_size).
Heatmaps are float32 tensors laid out [class][y][x] with values in [0, 1].

Ground-truth centers are splatted as unnormalized Gaussians whose radius
follows the classic corner-overlap bound (the smallest radius such that a
shifted box still overlaps the original by at least ``min_overlap``), with
sigma = radius / 3 and peaks max-combined so overlapping objects never sum
above 1.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DataError, decode_json, from_json
from .geometry import BevBox, BoxColumns

_FORMAT_TAG = "bevprobe-grid-v1"
_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}


@dataclass(frozen=True)
class BevGridSpec:
    """Shape and world placement of a BEV grid."""

    size_x: int
    size_y: int
    num_classes: int
    cell_size: float
    origin_x: float
    origin_y: float

    def __post_init__(self) -> None:
        if self.size_x < 1 or self.size_y < 1:
            raise ValueError("grid dimensions must be at least 1")
        if self.num_classes < 1:
            raise ValueError("num_classes must be at least 1")
        if not self.cell_size > 0.0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        far = self.grid_to_world((self.size_x - 1, self.size_y - 1))
        if not all(map(math.isfinite, far)):
            raise ValueError(f"origin and cell_size put the far cell at {far}, which is not finite")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.num_classes, self.size_y, self.size_x)

    def world_to_grid(self, point: tuple[float, float]) -> tuple[float, float]:
        """Continuous grid coordinates of a world point."""
        return (
            (point[0] - self.origin_x) / self.cell_size,
            (point[1] - self.origin_y) / self.cell_size,
        )

    def grid_to_world(self, point: tuple[float, float]) -> tuple[float, float]:
        """World position of (possibly fractional) grid coordinates."""
        return (
            self.origin_x + point[0] * self.cell_size,
            self.origin_y + point[1] * self.cell_size,
        )

    def contains_cell(self, x: int, y: int) -> bool:
        return 0 <= x < self.size_x and 0 <= y < self.size_y


def frozen_grid(spec: BevGridSpec, values, dtype, what: str, copy: bool = True) -> np.ndarray:
    """A read-only ``dtype`` copy of ``values``, which must have the grid's
    shape; ``values`` itself if it has the dtype and ``copy`` is False."""
    arr = np.array(values, dtype=dtype) if copy else np.asarray(values, dtype=dtype)
    if arr.shape != spec.shape:
        raise ValueError(f"{what} shape {arr.shape} does not match grid shape {spec.shape}")
    arr.setflags(write=False)
    return arr


def adopt_grid(cls, spec: BevGridSpec, values: np.ndarray):
    """``cls(spec, values)`` for ``Heatmap`` or ``PositiveMask``, with every check
    but without the copy: only for an array that its caller just built."""
    obj = object.__new__(cls)
    for f, value in zip(fields(cls), (spec, values)):
        object.__setattr__(obj, f.name, value)
    obj.__post_init__(copy=False)
    return obj


@dataclass(frozen=True)
class Heatmap:
    """Per-class center heatmap over a grid: float32 [C][Y][X] in [0, 1].

    Values are copied and frozen at construction; treat instances as
    immutable.
    """

    spec: BevGridSpec
    values: np.ndarray

    def __post_init__(self, copy: bool = True) -> None:
        arr = frozen_grid(self.spec, self.values, np.float32, "heatmap", copy)
        # NaN fails both comparisons.
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise ValueError("heatmap values must lie in [0, 1] and contain no NaNs")
        object.__setattr__(self, "values", arr)

    @classmethod
    def zeros(cls, spec: BevGridSpec) -> "Heatmap":
        return adopt_grid(cls, spec, np.zeros(spec.shape, dtype=np.float32))


@dataclass(frozen=True)
class GaussianRenderConfig:
    """Controls the footprint-to-radius rule for center splats."""

    min_overlap: float = 0.1
    min_radius_cells: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.min_overlap < 1.0:
            raise ValueError(f"min_overlap must lie in (0, 1), got {self.min_overlap}")
        if self.min_radius_cells < 1:
            raise ValueError("min_radius_cells must be at least 1")
        if self.min_radius_cells > sys.float_info.max:  # a splat divides it as a float
            raise ValueError("min_radius_cells must not exceed the largest float")


def gaussian_radius(extent_a: float, extent_b: float, min_overlap: float) -> float:
    """Continuous corner-overlap radius for a box of the given cell extents.

    Smallest of the three quadratic bounds guaranteeing IoU >= min_overlap
    between the original footprint and one shifted by the radius. Symmetric
    in its two extents.
    """
    # Canonical argument order keeps the symmetry exact in floating point.
    h, w = max(extent_a, extent_b), min(extent_a, extent_b)

    a1 = 1.0
    b1 = h + w
    c1 = w * h * (1.0 - min_overlap) / (1.0 + min_overlap)
    sq1 = math.sqrt(b1 * b1 - 4.0 * a1 * c1)
    r1 = (b1 - sq1) / (2.0 * a1)

    a2 = 4.0
    b2 = 2.0 * (h + w)
    c2 = (1.0 - min_overlap) * w * h
    sq2 = math.sqrt(b2 * b2 - 4.0 * a2 * c2)
    r2 = (b2 - sq2) / (2.0 * a2)

    a3 = 4.0 * min_overlap
    b3 = -2.0 * min_overlap * (h + w)
    c3 = (min_overlap - 1.0) * w * h
    sq3 = math.sqrt(b3 * b3 - 4.0 * a3 * c3)
    r3 = (b3 + sq3) / (2.0 * a3)

    return min(r1, r2, r3)


def radius_for_box(
    length: float, width: float, spec: BevGridSpec, cfg: GaussianRenderConfig
) -> int:
    """Integer splat radius in cells for a box footprint on a grid."""
    r = gaussian_radius(length / spec.cell_size, width / spec.cell_size, cfg.min_overlap)
    return max(cfg.min_radius_cells, int(r))


# A kernel of more cells is evaluated over its on-canvas window only, and not cached.
_CACHED_KERNEL_CELLS = 1 << 16


def _gaussian(radius: int, dy: range, dx: range) -> np.ndarray:
    """Gaussian with sigma = radius / 3 and peak 1 at row offsets ``dy`` and
    column offsets ``dx`` from its center."""
    sigma = radius / 3.0
    ay, ax = (np.arange(d.start, d.stop, dtype=np.float64) for d in (dy, dx))
    return np.exp(-(ax[None, :] ** 2 + ay[:, None] ** 2) / (2.0 * sigma * sigma))


@functools.lru_cache(maxsize=64)
def _unit_gaussian(radius: int) -> np.ndarray:
    """Read-only (2r+1)^2 Gaussian window with sigma = radius / 3, peak 1."""
    kernel = _gaussian(radius, range(-radius, radius + 1), range(-radius, radius + 1))
    kernel.setflags(write=False)
    return kernel


def draw_gaussian_peak(
    canvas: np.ndarray, x: int, y: int, radius: int, peak: float = 1.0
) -> bool:
    """Max-combine a Gaussian bump (sigma = radius / 3) into a 2D canvas.

    The bump is evaluated on the integer lattice of a (2r+1)^2 window
    centered at (x, y); cells beyond the canvas are dropped. The center
    cell receives exactly ``peak``. Returns False when (x, y) is off-canvas.
    """
    ny, nx = canvas.shape
    if not (0 <= x < nx and 0 <= y < ny):
        return False
    dx = range(max(0, x - radius) - x, min(nx, x + radius + 1) - x)
    dy = range(max(0, y - radius) - y, min(ny, y + radius + 1) - y)
    if (2 * radius + 1) ** 2 > _CACHED_KERNEL_CELLS:
        window = _gaussian(radius, dy, dx)
    else:
        window = _unit_gaussian(radius)[dy.start + radius : dy.stop + radius,
                                        dx.start + radius : dx.stop + radius]
    region = canvas[y + dy.start : y + dy.stop, x + dx.start : x + dx.stop]
    np.maximum(region, peak * window, out=region)
    return True


def render_gaussian_heatmap(
    gts: Sequence[BevBox],
    spec: BevGridSpec,
    cfg: GaussianRenderConfig = GaussianRenderConfig(),
) -> tuple[Heatmap, int]:
    """Render ground-truth centers into a fresh heatmap.

    Each box splats a Gaussian into its class channel at the rounded center
    cell; overlapping splats are combined by elementwise max. Boxes whose
    rounded center falls outside the grid are skipped; the skip count is
    returned alongside the heatmap.
    """
    canvas = np.zeros(spec.shape, dtype=np.float64)
    skipped = splat_centers(canvas, BoxColumns.of(gts), [1.0] * len(gts), spec, cfg)
    return Heatmap(spec, canvas), skipped


def splat_centers(
    canvas: np.ndarray, gts: BoxColumns, peaks: Sequence[float], spec: BevGridSpec,
    cfg: GaussianRenderConfig,
) -> int:
    """Max-combine a Gaussian of peak ``peaks[i]`` at the rounded center cell
    of each ``gts[i]`` into its class plane; return how many fell off the grid.
    Any class outside the grid raises ValueError before the first splat."""
    classes = gts.class_id.tolist()
    for i, class_id in enumerate(classes):
        if not 0 <= class_id < spec.num_classes:
            raise ValueError(
                f"ground truth {i} has class_id {class_id} outside [0, {spec.num_classes})"
            )
    skipped = 0
    footprints = zip(gts.cx.tolist(), gts.cy.tolist(), gts.length.tolist(), gts.width.tolist())
    for class_id, (cx, cy, length, width), peak in zip(classes, footprints, peaks):
        gx, gy = spec.world_to_grid((cx, cy))
        x, y = int(round(gx)), int(round(gy))
        radius = radius_for_box(length, width, spec, cfg)
        if not draw_gaussian_peak(canvas[class_id], x, y, radius, peak):
            skipped += 1
    return skipped


def write_grid_tensor(
    path: str | os.PathLike, spec: BevGridSpec, values: np.ndarray, dtype: str
) -> None:
    """Write a [C][Y][X] tensor as a one-line JSON header plus a raw blob.

    The header pins the grid spec, the element dtype tag ("f32" or "u8"),
    the "CYX" layout and little-endian byte order. The blob is the C-order
    tensor bytes. The format is deterministic: equal inputs give equal
    bytes.
    """
    if dtype not in _DTYPES:
        raise ValueError(f"unsupported dtype tag {dtype!r}")
    arr = np.ascontiguousarray(values, dtype=_DTYPES[dtype])
    if arr.shape != spec.shape:
        raise ValueError(f"tensor shape {arr.shape} does not match grid {spec.shape}")
    header = {
        "format": _FORMAT_TAG,
        "spec": asdict(spec),
        "dtype": dtype,
        "layout": "CYX",
        "endianness": "little",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        fh.write(arr)


def read_grid_tensor(path: str | os.PathLike) -> tuple[BevGridSpec, np.ndarray, str]:
    """Read a tensor written by :func:`write_grid_tensor`.

    Returns (spec, values, dtype tag). Raises DataError on any malformed
    header, unsupported field, or size mismatch between header and blob.
    """
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
            if not line.endswith(b"\n"):
                raise DataError(f"{path}: missing header line")
            header = decode_json(line[:-1], f"{path}: malformed header", DataError)
            if not isinstance(header, dict) or header.get("format") != _FORMAT_TAG:
                raise DataError(f"{path}: not a {_FORMAT_TAG} file")
            dtype = header.get("dtype")
            if dtype not in _DTYPES:
                raise DataError(f"{path}: unsupported dtype {dtype!r}")
            for key, want in (("layout", "CYX"), ("endianness", "little")):
                if header.get(key) != want:
                    raise DataError(f"{path}: unsupported {key} {header.get(key)!r}")
            spec = from_json(BevGridSpec, header.get("spec"), f"{path}: spec", err=DataError)
            np_dtype = _DTYPES[dtype]
            expected = spec.num_classes * spec.size_y * spec.size_x * np_dtype.itemsize
            blob_len = os.fstat(fh.fileno()).st_size - len(line)
            # Read into an aligned array the caller may adopt; a pipe has no size.
            if blob_len == expected or blob_len < 0:
                values = np.empty(spec.shape, dtype=np_dtype)
                blob_len = fh.readinto(values) + len(fh.read())
    except (OSError, MemoryError) as exc:
        raise DataError(f"cannot read grid tensor {path}: {exc}") from exc
    if blob_len != expected:
        raise DataError(f"{path}: blob holds {blob_len} bytes, header implies {expected}")
    return spec, values, dtype


def save_heatmap(path: str | os.PathLike, heatmap: Heatmap) -> None:
    """Persist a heatmap to the grid-tensor container."""
    write_grid_tensor(path, heatmap.spec, heatmap.values, "f32")


def load_grid(path: str | os.PathLike, cls, dtype: str, what: str):
    """``cls(spec, values)`` of a grid file holding ``dtype`` elements; a
    file of another dtype, or values ``cls`` rejects, raise DataError."""
    spec, values, found = read_grid_tensor(path)
    if found != dtype:
        raise DataError(f"{path}: expected {what}, found dtype {found!r}")
    try:
        return adopt_grid(cls, spec, values)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_heatmap(path: str | os.PathLike) -> Heatmap:
    """Load a heatmap persisted by :func:`save_heatmap`."""
    return load_grid(path, Heatmap, "f32", "an f32 heatmap")
