"""Multi-stage hard-instance probing over BEV center heatmaps.

Each stage takes the k highest-scoring cells that no earlier stage has
claimed, then marks the neighborhood of every selection in a per-class
positive mask. Masks accumulate across stages by elementwise max, so later
stages are forced onto previously missed (hard) instances. Three masking
modes are supported: the selected cell only, a square pooling window
(small classes keep the single cell), and the footprint of a predicted box.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .bev_grid import BevGridSpec, Heatmap, PositiveMask
from .columns import RowColumns
from .errors import BevProbeError, DataError, decode_json, from_json
from .geometry import BevBox, BoxColumns, box_corners


class MaskType(enum.Enum):
    POINT = "point"
    POOLING = "pooling"
    BOX = "box"


@dataclass(frozen=True)
class HipConfig:
    """Stage layout and masking behavior of the probing loop."""

    num_stages: int = 3
    k_per_stage: tuple[int, ...] = (200, 200, 200)
    mask_type: MaskType = MaskType.POINT
    small_classes: frozenset[int] = frozenset()
    pooling_kernel: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_per_stage", tuple(int(k) for k in self.k_per_stage))
        object.__setattr__(self, "small_classes", frozenset(self.small_classes))
        if self.num_stages < 1:
            raise ValueError("num_stages must be at least 1")
        if len(self.k_per_stage) != self.num_stages:
            raise ValueError(
                f"k_per_stage has {len(self.k_per_stage)} entries for "
                f"{self.num_stages} stages"
            )
        if any(k < 1 for k in self.k_per_stage):
            raise ValueError("every stage budget must be at least 1")
        if self.pooling_kernel < 1 or self.pooling_kernel % 2 == 0:
            raise ValueError(
                f"pooling_kernel must be a positive odd integer, got {self.pooling_kernel}"
            )

    @property
    def total_k(self) -> int:
        return sum(self.k_per_stage)


@dataclass(frozen=True, slots=True)
class Candidate:
    """One selected heatmap cell: grid location, class, score, stage."""

    x: int
    y: int
    class_id: int
    score: float
    stage: int
    world_x: float
    world_y: float


_FIELDS = tuple(f.name for f in fields(Candidate))
# ``CandidateColumns.of`` reads rows into these dtypes, which hold any grid
# index and any float exactly; ``topk_select`` stores smaller index columns.
_ROW_DTYPES = tuple(np.intp if f.type == "int" else np.float64 for f in fields(Candidate))
# Key order of a JSONL record, and its body after any leading scene_id.
_JSONL_FIELDS = ("stage", "x", "y", "class_id", "score", "world_x", "world_y")
_JSONL_TEMPLATE = '"stage":%d,"x":%d,"y":%d,"class_id":%d,"score":%r,"world_x":%r,"world_y":%r}\n'


class CandidateColumns(RowColumns):
    """A run of candidates held as one read-only numpy array per
    ``Candidate`` field; see :class:`RowColumns`."""

    __slots__ = _fields = _FIELDS
    _dtypes = _ROW_DTYPES
    _row = Candidate
    _noun = "candidates"

    @classmethod
    def concat(cls, parts: Sequence["CandidateColumns"]) -> "CandidateColumns":
        if not parts:
            return cls.of(())
        return cls(*(np.concatenate([getattr(p, f) for p in parts]) for f in _FIELDS))

    def to_jsonl(self, scene_id: str | None = None) -> str:
        """One compact JSON object per line, in candidate order, led by a
        ``scene_id`` key when one is given.

        The bytes equal ``json`` encoding of each record: ``%d`` of a
        Python int and ``%r`` of a finite Python float are what the
        encoder writes for them. A non-finite score or world coordinate,
        which JSON cannot hold, raises ValueError naming the candidate.
        """
        finite = np.isfinite(self.score) & np.isfinite(self.world_x) & np.isfinite(self.world_y)
        if not finite.all():
            bad = self[int(np.argmin(finite))]
            raise ValueError(f"candidate {bad} has a non-finite score or world coordinate")
        head = "{"
        if scene_id is not None:
            head += '"scene_id":' + encode_compact_json(scene_id).replace("%", "%%") + ","
        template = head + _JSONL_TEMPLATE
        columns = (getattr(self, f).tolist() for f in _JSONL_FIELDS)
        return "".join(map(template.__mod__, zip(*columns)))


@dataclass(frozen=True)
class TopKResult:
    columns: CandidateColumns
    degenerate: bool


def topk_select(
    heatmap: Heatmap,
    accumulated: PositiveMask | None,
    k: int,
    stage: int = 0,
) -> TopKResult:
    """Pick the k best unmasked cells under a deterministic total order.

    Cells are ranked by score descending, ties broken by ascending
    (class, y, x). With fewer than k positive-score unmasked cells the
    selection is padded with zero-score cells (or truncated when the grid
    runs out) and flagged degenerate.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    spec = heatmap.spec
    if accumulated is not None and accumulated.spec != spec:
        raise ValueError("accumulated mask grid spec does not match the heatmap")
    flat = heatmap.values.ravel()
    taken = None if accumulated is None else accumulated.values.ravel().view(np.bool_)

    def unclaimed(cells: np.ndarray) -> np.ndarray:
        return cells if taken is None else cells[~taken[cells]]

    # Once k open cells reach a positive floor, they hold the whole top k and
    # every tie at the k-th score; else every open positive cell is ranked.
    floor = _sampled_floor(flat, taken, k)
    pool = unclaimed(np.flatnonzero(flat >= floor)) if floor > 0 else None
    if pool is None or pool.size < k:
        pool = unclaimed(np.flatnonzero(flat))
    if pool.size >= k:
        chosen = pool[_k_lowest(-flat[pool], k)]
    else:
        # Pad with the first open zero-score cells, or all of them if fewer.
        zero = flat == 0 if taken is None else (flat == 0) & ~taken
        chosen = np.concatenate([pool, np.flatnonzero(zero)[: k - pool.size]])
    # Flat C-order index equals (class * Y + y) * X + x, so ascending index
    # is exactly the (class, y, x) tie order.
    scores = flat[chosen]
    order = np.lexsort((chosen, -scores))
    chosen, scores = chosen[order], scores[order]
    cls, ys, xs = np.unravel_index(chosen, spec.shape)
    # Every index lies below the cell count; int32 index columns take half
    # the bytes of intp ones when outcomes are pickled between processes.
    index = np.int32 if max(flat.size, abs(stage)) < 2**31 else np.int64
    cols = CandidateColumns(
        xs.astype(index), ys.astype(index), cls.astype(index), scores,
        np.full(chosen.size, stage, dtype=index), *spec.grid_to_world((xs, ys)),
    )
    return TopKResult(cols, int(np.count_nonzero(scores > 0.0)) < k)


def _k_lowest(work: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k lowest of ``work``, ties taken in index order."""
    kth = np.partition(work, k - 1)[k - 1]
    above = np.flatnonzero(work < kth)
    return np.concatenate([above, np.flatnonzero(work == kth)[: k - above.size]])


def _sampled_floor(flat: np.ndarray, taken: np.ndarray | None, k: int) -> float:
    """A score about 2k open cells reach, from every 64th open cell; 0 if too few."""
    sample = flat[::64] if taken is None else flat[::64][~taken[::64]]
    rank = sample.size - 2 * (k // 64) - 8
    return np.partition(sample, rank)[rank] if rank >= 0 else 0


# Upper bound on padded window cells rasterized at once; a single box whose
# window is larger still goes alone.
_RASTER_CHUNK_CELLS = 1 << 20


def _rasterize_boxes(
    bits: np.ndarray, classes: np.ndarray, boxes: BoxColumns, spec: BevGridSpec
) -> None:
    """Set bits[class] for every cell whose sample point lies in its box.

    Containment is inclusive of the boundary; cells outside the grid are
    ignored. Each box is tested only inside the clipped bounding window of
    its ``box_corners`` with a per-box point-in-box test, so the result
    does not depend on how boxes are batched.
    """
    c, s, corners = box_corners(boxes.cx, boxes.cy, boxes.length, boxes.width, boxes.yaw)
    if not np.isfinite(corners).all():
        raise ValueError("box corners must be finite")
    cx, cy, hl, hw = boxes.cx, boxes.cy, 0.5 * boxes.length, 0.5 * boxes.width
    gx, gy = spec.world_to_grid((corners[:, 0], corners[:, 1]))
    x0 = np.maximum(0.0, np.floor(gx.min(axis=0)))
    x1 = np.minimum(spec.size_x - 1.0, np.ceil(gx.max(axis=0)))
    y0 = np.maximum(0.0, np.floor(gy.min(axis=0)))
    y1 = np.minimum(spec.size_y - 1.0, np.ceil(gy.max(axis=0)))
    keep = np.flatnonzero((x0 <= x1) & (y0 <= y1))
    x0, x1, y0, y1 = (a[keep].astype(np.int64) for a in (x0, x1, y0, y1))
    cx, cy, hl, hw, c, s, classes = (a[keep] for a in (cx, cy, hl, hw, c, s, classes))
    w, h = x1 - x0 + 1, y1 - y0 + 1
    ws, hs = w.tolist(), h.tolist()
    flat_bits = bits.reshape(-1)
    start = 0
    while start < keep.size:
        stop, wmax, hmax = start + 1, ws[start], hs[start]
        while stop < keep.size:
            wn, hn = max(wmax, ws[stop]), max(hmax, hs[stop])
            if (stop - start + 1) * hn * wn > _RASTER_CHUNK_CELLS:
                break
            stop, wmax, hmax = stop + 1, wn, hn
        part = slice(start, stop)
        cols, rows = np.arange(wmax), np.arange(hmax)
        wx, wy = spec.grid_to_world((x0[part, None] + cols, y0[part, None] + rows))
        dx, dy = (wx - cx[part, None])[:, None, :], (wy - cy[part, None])[:, :, None]
        cb, sb = c[part, None, None], s[part, None, None]
        inside = np.abs(cb * dx + sb * dy) <= hl[part, None, None]
        inside &= np.abs(-sb * dx + cb * dy) <= hw[part, None, None]
        inside &= (cols < w[part, None])[:, None, :]
        inside &= (rows < h[part, None])[:, :, None]
        # Flat index of window cell (r, q): base + r * size_x + q.
        base = (classes[part] * spec.size_y + y0[part]) * spec.size_x + x0[part]
        flat_bits[(base[:, None, None] + (rows[:, None] * spec.size_x + cols))[inside]] = 1
        start = stop


def _window_hits(marks: np.ndarray, half: int, axis: int) -> np.ndarray:
    """Whether a mark lies within ``half`` cells along ``axis``, with the
    window clipped to the array.

    With ``half`` empty cells padded at each end, the window centred on
    cell i is the run of ``2 * half + 1`` padded cells from i. Each step
    ORs the array with itself shifted by at most the run already covered,
    so the run doubles, the array shrinks by the shift, and the cost grows
    with the log of the clipped half-width.
    """
    n = marks.shape[axis]
    half = min(half, n - 1)

    def cut(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    shape = list(marks.shape)
    shape[axis] += 2 * half
    reach = np.zeros(shape, dtype=marks.dtype)
    reach[cut(half, half + n)] = marks
    span = 1
    while span < 2 * half + 1:
        step = min(span, 2 * half + 1 - span)
        reach = reach[cut(None, -step)] | reach[cut(step, None)]
        span += step
    return reach


def build_positive_mask(
    candidates: Sequence[Candidate],
    cfg: HipConfig,
    spec: BevGridSpec,
    boxes: Sequence[BevBox] | None = None,
) -> PositiveMask:
    """Mark the cells claimed by one stage's candidates.

    POINT marks each selected cell; POOLING marks a pooling_kernel square
    around it except for small classes, which keep the single cell; BOX
    marks every cell whose sample point falls inside the candidate's
    predicted box (one box per candidate, required).
    """
    cols = CandidateColumns.of(candidates)
    n = len(cols)
    cls = cols.class_id
    cells = spec.flat_cells(cols, "candidate")
    bits = np.zeros(spec.shape, dtype=np.uint8)
    bits.reshape(-1)[cells] = 1
    if cfg.mask_type is MaskType.POOLING:
        wide = ~np.isin(cls, list(cfg.small_classes))
        # A box filter over each class plane that holds a wide candidate,
        # whose only set bits are those centers.
        planes = np.flatnonzero(np.bincount(cls[wide]))
        half = cfg.pooling_kernel // 2
        bits[planes] = _window_hits(_window_hits(bits[planes], half, 2), half, 1)
    elif cfg.mask_type is MaskType.BOX:
        if boxes is None:
            raise ValueError("box masking requires a predicted box per candidate")
        if len(boxes) != n:
            raise ValueError(f"{n} candidates but {len(boxes)} predicted boxes")
        _rasterize_boxes(bits, cls, BoxColumns.of(boxes), spec)
    return PositiveMask.adopt(spec, bits)


def accumulate_mask(accumulated: PositiveMask, mask: PositiveMask) -> PositiveMask:
    """Fold one stage mask into the running union (elementwise max)."""
    if accumulated.spec != mask.spec:
        raise ValueError("mask grid specs do not match")
    return PositiveMask.adopt(accumulated.spec, np.maximum(accumulated.values, mask.values))


def apply_mask(heatmap: Heatmap, accumulated: PositiveMask) -> Heatmap:
    """Zero out claimed cells, leaving the others untouched."""
    if heatmap.spec != accumulated.spec:
        raise ValueError("mask grid spec does not match the heatmap")
    # Bits are 0/1, so they view as bool without a full-grid temporary.
    claimed = accumulated.values.view(np.bool_)
    return Heatmap.adopt(heatmap.spec, np.where(claimed, np.float32(0), heatmap.values))


StageSource = Callable[[int, Sequence[Candidate]], Heatmap]
BoxProvider = Callable[[Sequence[Candidate]], Sequence[BevBox]]


@dataclass(frozen=True)
class StageTrace:
    """One stage's selections, its own mask and its degenerate flag."""

    stage: int
    columns: CandidateColumns
    positive_mask: PositiveMask
    degenerate: bool


@dataclass(frozen=True)
class HipResult:
    """The run's candidates, the union of its stage masks, and its stages."""

    columns: CandidateColumns
    accumulated_mask: PositiveMask
    traces: tuple[StageTrace, ...]
    degenerate: bool


def run_hip(
    stage_source: StageSource,
    cfg: HipConfig,
    spec: BevGridSpec,
    box_provider: BoxProvider | None = None,
) -> HipResult:
    """Run the full staged probing loop.

    ``stage_source`` is a callable ``(stage, candidates_so_far) ->
    Heatmap``, called once per stage when that stage starts, which
    receives the earlier stages' selections as one ``CandidateColumns``.
    BOX masking additionally needs ``box_provider`` mapping a stage's
    candidates to one predicted box each, as one ``BoxColumns`` or a
    sequence of ``BevBox``. A source's ConfigError or DataError propagates
    unchanged; any other source error is re-raised as RuntimeError with
    the failing stage identified.
    """
    if cfg.mask_type is MaskType.BOX and box_provider is None:
        raise ValueError("box masking requires a box_provider")

    accumulated = PositiveMask.zeros(spec)
    traces: list[StageTrace] = []
    for stage in range(cfg.num_stages):
        try:
            hm = stage_source(stage, CandidateColumns.concat([t.columns for t in traces]))
        except BevProbeError:
            raise
        except Exception as exc:
            raise RuntimeError(f"stage {stage}: heatmap source failed: {exc}") from exc
        if hm.spec != spec:
            raise ValueError(f"stage {stage}: heatmap grid spec differs from the run's")
        # Select from the masked map and hold only it. ``accumulated`` still
        # goes to topk_select, because its zero-score padding must skip claimed cells.
        hm = apply_mask(hm, accumulated)
        result = topk_select(hm, accumulated, cfg.k_per_stage[stage], stage=stage)
        boxes = box_provider(result.columns) if cfg.mask_type is MaskType.BOX else None
        try:
            stage_mask = build_positive_mask(result.columns, cfg, spec, boxes=boxes)
        except ValueError as exc:
            raise ValueError(f"stage {stage}: {exc}") from exc
        accumulated = accumulate_mask(accumulated, stage_mask)
        traces.append(StageTrace(stage, result.columns, stage_mask, result.degenerate))
    return HipResult(
        CandidateColumns.concat([t.columns for t in traces]),
        accumulated,
        tuple(traces),
        any(t.degenerate for t in traces),
    )


# The encoder json.dumps(obj, separators=(",", ":")) builds on every call.
encode_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def candidates_from_jsonl(text: str) -> list[Candidate]:
    out = []
    # "\n" alone ends a record: str.splitlines also breaks at a U+2028 in a string.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        record = decode_json(line, f"line {lineno}: malformed JSON", DataError)
        out.append(from_json(Candidate, record, f"line {lineno}: candidate", err=DataError))
    return out

