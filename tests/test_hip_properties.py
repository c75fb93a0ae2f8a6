"""Property tests for the vectorized top-k, mask and candidate-column
layers of ``hip``, and for the staged loop ``run_hip`` built on them.

Each test compares the array implementation with a plain oracle: a full
sort of the open cells for ``topk_select``, the per-box window rasterizer
that ``build_positive_mask`` used before it rasterized all of a stage's
boxes at once, the per-candidate loops it used before it marked every
mask type from index columns, and a ``json`` encoder run on one record
dict per candidate for the JSONL writer.
"""

import math
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevprobe import hip
from bevprobe.assignment import MatchConfig, classify_stage
from bevprobe.bev_grid import BevGridSpec, Heatmap
from bevprobe.geometry import BevBox, BoxColumns
from bevprobe.hip import (
    Candidate,
    CandidateColumns,
    HipConfig,
    MaskType,
    PositiveMask,
    apply_mask,
    build_positive_mask,
    candidates_from_jsonl,
    encode_compact_json,
    run_hip,
    topk_select,
)
from bevprobe.metrics import RecallConfig, average_recall

RNG = np.random.default_rng


def full_sort_topk(values, bits, k):
    """Oracle: open cells sorted by (-score, class, y, x), first k kept."""
    C, Y, X = values.shape
    cells = sorted(
        (-float(values[c, y, x]), c, y, x)
        for c in range(C)
        for y in range(Y)
        for x in range(X)
        if bits[c, y, x] == 0
    )
    return [(c, y, x, -neg) for neg, c, y, x in cells[:k]]


def rasterize_box_oracle(channel_bits, box, spec):
    """One box at a time: test every cell of its clipped bounding window."""
    corners = box.corners()
    gx = (corners[:, 0] - spec.origin_x) / spec.cell_size
    gy = (corners[:, 1] - spec.origin_y) / spec.cell_size
    x0 = max(0, int(math.floor(gx.min())))
    x1 = min(spec.size_x - 1, int(math.ceil(gx.max())))
    y0 = max(0, int(math.floor(gy.min())))
    y1 = min(spec.size_y - 1, int(math.ceil(gy.max())))
    if x0 > x1 or y0 > y1:
        return
    xs = spec.origin_x + np.arange(x0, x1 + 1) * spec.cell_size
    ys = spec.origin_y + np.arange(y0, y1 + 1) * spec.cell_size
    dx = xs[None, :] - box.cx
    dy = ys[:, None] - box.cy
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    inside = (np.abs(u) <= 0.5 * box.length) & (np.abs(v) <= 0.5 * box.width)
    region = channel_bits[y0 : y1 + 1, x0 : x1 + 1]
    region[inside] = 1


def box_mask_oracle(candidates, boxes, spec):
    bits = np.zeros(spec.shape, dtype=np.uint8)
    for cd, box in zip(candidates, boxes):
        bits[cd.class_id, cd.y, cd.x] = 1
        rasterize_box_oracle(bits[cd.class_id], box, spec)
    return bits


def mask_loop_oracle(candidates, cfg, spec, boxes=None):
    """Per-candidate loops: a bounds pass, then one marking pass per mode."""
    bits = np.zeros(spec.shape, dtype=np.uint8)
    for i, cd in enumerate(candidates):
        if not (0 <= cd.class_id < spec.num_classes and 0 <= cd.x < spec.size_x
                and 0 <= cd.y < spec.size_y):
            raise ValueError(f"candidate {i} {cd} lies outside grid {spec.shape}")
    if cfg.mask_type is MaskType.POINT:
        for cd in candidates:
            bits[cd.class_id, cd.y, cd.x] = 1
    elif cfg.mask_type is MaskType.POOLING:
        half = cfg.pooling_kernel // 2
        for cd in candidates:
            if cd.class_id in cfg.small_classes:
                bits[cd.class_id, cd.y, cd.x] = 1
            else:
                y0, y1 = max(0, cd.y - half), min(spec.size_y, cd.y + half + 1)
                x0, x1 = max(0, cd.x - half), min(spec.size_x, cd.x + half + 1)
                bits[cd.class_id, y0:y1, x0:x1] = 1
    else:
        bits = box_mask_oracle(candidates, boxes, spec)
    return bits


BOX_CFG = HipConfig(num_stages=1, k_per_stage=(1,), mask_type=MaskType.BOX)


# Round origins, lattice centers, cell-multiple extents and yaw 0 put cell
# sample points exactly on box edges, where containment is inclusive.
origins = st.one_of(st.sampled_from([0.0, -3.0, -2.5]), st.floats(-5.0, 5.0))
yaws = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]), st.floats(-math.pi, math.pi))


@st.composite
def grid_specs(draw, max_size=9, max_classes=3):
    return BevGridSpec(
        draw(st.integers(1, max_size)),
        draw(st.integers(1, max_size)),
        draw(st.integers(1, max_classes)),
        draw(st.sampled_from([0.1, 0.2, 0.5, 1.0, 0.37])),
        draw(origins),
        draw(origins),
    )


@st.composite
def box_extents(draw, cell):
    """Sub-cell, ordinary, and grid-spanning footprint extents."""
    return draw(
        st.one_of(
            st.integers(1, 8).map(lambda m: m * cell),
            st.floats(1e-3 * cell, cell),
            st.floats(cell, 8.0 * cell),
            st.sampled_from([1e3, 1e300]),
        )
    )


class TestTopkProperties:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_full_sort_under_random_masks(self, data):
        spec = data.draw(grid_specs(max_size=7))
        n = spec.num_classes * spec.size_y * spec.size_x
        # Few quantization levels force ties at the kth score and zeros.
        levels = data.draw(st.integers(1, 4))
        steps = data.draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))
        values = (np.array(steps, dtype=np.float64) / levels).astype(np.float32)
        values = values.reshape(spec.shape)
        mask_kind = data.draw(st.sampled_from(["none", "random", "all"]))
        if mask_kind == "all":
            bits = np.ones(spec.shape, dtype=np.uint8)
        elif mask_kind == "random":
            flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            bits = np.array(flags, dtype=np.uint8).reshape(spec.shape)
        else:
            bits = np.zeros(spec.shape, dtype=np.uint8)
        accumulated = None if mask_kind == "none" else PositiveMask(spec, bits)
        # Up to past the grid size, so k >= open cells is covered too.
        k = data.draw(st.integers(1, n + 3))
        stage = data.draw(st.integers(0, 4))

        got = topk_select(Heatmap(spec, values), accumulated, k, stage=stage)

        expect = full_sort_topk(values, bits, k)
        assert [(c.class_id, c.y, c.x, c.score) for c in got.columns.rows()] == expect
        assert all(c.stage == stage for c in got.columns.rows())
        assert all(
            (c.world_x, c.world_y) == spec.grid_to_world((c.x, c.y))
            for c in got.columns.rows()
        )
        assert all(type(c.x) is int and type(c.score) is float for c in got.columns.rows())
        assert got.degenerate == (sum(1 for *_cyx, s in expect if s > 0.0) < k)


def lexsort_topk(values, bits, k):
    """Oracle: flat indices of the open cells, fully sorted by score
    descending then index ascending, first k kept."""
    flat = values.ravel()
    cells = np.flatnonzero(bits.ravel() == 0)
    return cells[np.lexsort((cells, -flat[cells]))][:k]


FLOOR_MAPS = ("spread", "levels", "avoids_samples", "on_samples", "zeros", "sparse", "tie_at_floor")


def floor_map(kind, shape, rng):
    """A heatmap shaped to steer ``topk_select``'s sampled floor: onto many
    distinct scores, onto a few tied levels, off every 64th cell (whose
    samples then read 0), onto every 64th cell (so that fewer than k cells
    reach a positive floor), to 0, or onto one score shared by the sampled
    floor, the k-th cell and most of the grid."""
    n = int(np.prod(shape))
    if kind == "spread":
        flat = rng.random(n, dtype=np.float32)
    elif kind == "levels":
        flat = (rng.integers(0, 4, n) / 4).astype(np.float32)
    elif kind == "avoids_samples":
        flat = rng.random(n, dtype=np.float32)
        flat[::64] = 0
    elif kind == "on_samples":
        flat = rng.random(n, dtype=np.float32) / 2
        flat[::64] += np.float32(0.5)
    elif kind == "zeros":
        flat = np.zeros(n, dtype=np.float32)
    elif kind == "sparse":
        flat = np.where(rng.random(n) < 0.05, rng.random(n), 0).astype(np.float32)
    else:
        flat = np.full(n, np.float32(0.5))
        flat[rng.random(n) < 0.01] = np.float32(0.75)
    return flat.reshape(shape)


class TestTopkFloorPath:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_lexsort_oracle(self, data):
        # Grids of 256 to 8,192 cells give 4 to 128 samples, so the floor
        # path and each fallback (too few samples, a floor of 0, a pool
        # under k) are reached.
        spec = BevGridSpec(data.draw(st.integers(16, 64)), data.draw(st.integers(16, 64)),
                           data.draw(st.integers(1, 2)), 0.5, -3.0, -3.0)
        rng = RNG(data.draw(st.integers(0, 2**32 - 1)))
        values = floor_map(data.draw(st.sampled_from(FLOOR_MAPS)), spec.shape, rng)
        n = values.size
        # None, sparse, claiming more than half the grid, or claiming the
        # highest-scoring cells of an unmasked map, so that the sampled cells
        # left open sit below them; the map is either masked, as run_hip
        # passes it, or left unmasked.
        density = data.draw(st.sampled_from([None, 0.05, 0.6, 0.95, "top"]))
        if density is None:
            bits, accumulated = np.zeros(spec.shape, dtype=np.uint8), None
        elif density == "top":
            top = np.argsort(-values, axis=None, kind="stable")[: data.draw(st.integers(1, n))]
            bits = np.zeros(spec.shape, dtype=np.uint8)
            bits.flat[top] = 1
            accumulated = PositiveMask(spec, bits)
        else:
            bits = (rng.random(spec.shape) < density).astype(np.uint8)
            accumulated = PositiveMask(spec, bits)
            if data.draw(st.booleans()):
                values = values * (bits == 0)
        n_open = n - int(bits.sum())
        k = data.draw(st.one_of(st.sampled_from([1, 63, 64, 200, 500]), st.integers(1, n + 2),
                                st.just(max(1, n_open - 1))))

        got = topk_select(Heatmap(spec, values), accumulated, k, stage=1)

        want = lexsort_topk(values, bits, k)
        cls, ys, xs = np.unravel_index(want, spec.shape)
        assert np.array_equal(got.columns.class_id, cls)
        assert np.array_equal(got.columns.y, ys) and np.array_equal(got.columns.x, xs)
        assert got.columns.score.tobytes() == values.ravel()[want].tobytes()
        assert got.degenerate == (np.count_nonzero(values.ravel()[want] > 0) < k)

    def test_floor_pool_holds_the_top_k_and_every_tie(self):
        rng = RNG(5)
        values = floor_map("tie_at_floor", (2, 64, 64), rng)
        for k in (1, 40, 200):
            floor = hip._sampled_floor(values.ravel(), None, k)
            pool = np.flatnonzero(values.ravel() >= floor)
            assert floor > 0 and pool.size >= k
            kth = np.sort(values.ravel())[::-1][k - 1]
            assert set(np.flatnonzero(values.ravel() >= kth)) <= set(pool.tolist())

    @pytest.mark.parametrize("kind", ["zeros", "avoids_samples"])
    def test_no_positive_floor_takes_the_full_path(self, kind):
        # A floor of 0 ranks every open positive cell.
        values = floor_map(kind, (2, 64, 64), RNG(6))
        assert hip._sampled_floor(values.ravel(), None, 10) == 0

    def test_too_few_cells_at_the_floor_ranks_every_positive_cell(self):
        # Only the sampled cells score high, so fewer than k cells reach the floor.
        spec = BevGridSpec(64, 64, 2, 0.5, -3.0, -3.0)
        values = floor_map("on_samples", spec.shape, RNG(8))
        floor = hip._sampled_floor(values.ravel(), None, 40)
        assert floor > 0 and np.count_nonzero(values >= floor) < 40
        got = topk_select(Heatmap(spec, values), None, 40)
        cells = np.ravel_multi_index((got.columns.class_id, got.columns.y, got.columns.x), spec.shape)
        assert np.array_equal(cells, lexsort_topk(values, np.zeros(spec.shape, np.uint8), 40))

    def test_sparse_map_allocates_far_below_its_grid(self):
        # 3,000 positive cells and 1% claimed on a 16 MB map: ranking reads
        # only the open positive cells and a 1/64 sample, never a full copy.
        spec = BevGridSpec(1024, 1024, 4, 0.5, -256.0, -256.0)
        rng = RNG(7)
        flat = np.zeros(spec.num_classes * spec.size_y * spec.size_x, dtype=np.float32)
        flat[rng.choice(flat.size, 3000, replace=False)] = rng.random(3000, dtype=np.float32)
        hm = Heatmap(spec, flat.reshape(spec.shape))
        accumulated = PositiveMask(spec, (rng.random(spec.shape) < 0.01).astype(np.uint8))
        tracemalloc.start()
        try:
            got = topk_select(hm, accumulated, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got.columns) == 2000 and not got.degenerate
        assert peak < flat.nbytes // 8, peak


class TestBoxMaskProperties:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_box_oracle(self, data):
        spec = data.draw(grid_specs())
        span_x = spec.size_x * spec.cell_size
        span_y = spec.size_y * spec.cell_size
        n = data.draw(st.integers(0, 12))
        candidates, boxes = [], []
        for _ in range(n):
            x = data.draw(st.integers(0, spec.size_x - 1))
            y = data.draw(st.integers(0, spec.size_y - 1))
            cls = data.draw(st.integers(0, spec.num_classes - 1))
            wx, wy = spec.grid_to_world((x, y))
            candidates.append(Candidate(x, y, cls, 0.5, 0, wx, wy))
            # Centers reach a full grid span beyond every edge.
            if data.draw(st.booleans()):
                cx, cy = spec.grid_to_world(
                    (data.draw(st.integers(-2, spec.size_x + 1)),
                     data.draw(st.integers(-2, spec.size_y + 1)))
                )
            else:
                cx = data.draw(st.floats(spec.origin_x - span_x, spec.origin_x + 2 * span_x))
                cy = data.draw(st.floats(spec.origin_y - span_y, spec.origin_y + 2 * span_y))
            boxes.append(
                BevBox(
                    cx,
                    cy,
                    data.draw(box_extents(spec.cell_size)),
                    data.draw(box_extents(spec.cell_size)),
                    data.draw(yaws),
                    cls,
                )
            )
        # Small chunk budgets split the boxes into several batches.
        chunk = data.draw(st.sampled_from([1, 7, 64, hip._RASTER_CHUNK_CELLS]))

        with mock.patch.object(hip, "_RASTER_CHUNK_CELLS", chunk):
            mask = build_positive_mask(candidates, BOX_CFG, spec, boxes=boxes)

        assert (mask.values == box_mask_oracle(candidates, boxes, spec)).all()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_box_columns_give_the_oracle_and_the_row_list_mask(self, data):
        # Yaws far outside (-pi, pi] are wrapped by the columns as by BevBox.
        spec = data.draw(grid_specs())
        n = data.draw(st.integers(0, 12))
        cells = [
            (data.draw(st.integers(0, spec.size_x - 1)), data.draw(st.integers(0, spec.size_y - 1)),
             data.draw(st.integers(0, spec.num_classes - 1)))
            for _ in range(n)
        ]
        candidates = [Candidate(x, y, c, 0.5, 0, *spec.grid_to_world((x, y))) for x, y, c in cells]
        offset = st.floats(-2.0, 2.0).map(lambda v: v * spec.cell_size)
        boxes = BoxColumns(
            [cd.world_x + data.draw(offset) for cd in candidates],
            [cd.world_y + data.draw(offset) for cd in candidates],
            [data.draw(box_extents(spec.cell_size)) for _ in range(n)],
            [data.draw(box_extents(spec.cell_size)) for _ in range(n)],
            [data.draw(yaws | st.floats(-1e6, 1e6)) for _ in range(n)],
            [c for _x, _y, c in cells],
        )

        mask = build_positive_mask(candidates, BOX_CFG, spec, boxes=boxes)

        assert (mask.values == box_mask_oracle(candidates, boxes.rows(), spec)).all()
        rows = build_positive_mask(candidates, BOX_CFG, spec, boxes=list(boxes.rows()))
        assert mask.values.tobytes() == rows.values.tobytes()

    def test_many_boxes_plus_a_grid_spanning_box_stay_in_bounded_memory(self):
        spec = BevGridSpec(1024, 1024, 1, 0.2, -102.4, -102.4)
        rng = np.random.default_rng(11)
        xs = rng.integers(0, spec.size_x, size=2000).tolist()
        ys = rng.integers(0, spec.size_y, size=2000).tolist()
        headings = rng.uniform(-math.pi, math.pi, size=2000).tolist()
        candidates, boxes = [], []
        for x, y, yaw in zip(xs, ys, headings):
            wx, wy = spec.grid_to_world((x, y))
            candidates.append(Candidate(x, y, 0, 0.5, 0, wx, wy))
            boxes.append(BevBox(wx, wy, 4.5, 2.0, yaw, 0))
        candidates.append(Candidate(0, 0, 0, 0.5, 0, *spec.grid_to_world((0, 0))))
        # A thin diagonal strip: its clipped window is the whole grid.
        boxes.append(BevBox(0.0, 0.0, 1e6, 2.0, 0.3, 0))

        tracemalloc.start()
        try:
            mask = build_positive_mask(candidates, BOX_CFG, spec, boxes=boxes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        # Padding every box to the spanning box's window would take
        # 2001 x 1024 x 1024 cells; the chunked rasterizer needs a few
        # grid-sized temporaries.
        assert peak < 200e6
        assert (mask.values == box_mask_oracle(candidates, boxes, spec)).all()


@st.composite
def grid_indices(draw, size):
    """A cell index along one axis, biased onto both edges."""
    return draw(st.one_of(st.sampled_from([0, size - 1]), st.integers(0, size - 1)))


class TestMaskProperties:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_candidate_loops(self, data):
        spec = data.draw(grid_specs())
        mode = data.draw(st.sampled_from(list(MaskType)))
        cfg = HipConfig(
            num_stages=1,
            k_per_stage=(1,),
            mask_type=mode,
            small_classes=data.draw(st.frozensets(st.integers(0, spec.num_classes - 1))),
            # Kernels past the grid's extent cover the same clipped cells.
            pooling_kernel=data.draw(st.sampled_from(
                [1, 3, 5, 7, 2 * max(spec.size_y, spec.size_x) + 1, 10**9 + 1]
            )),
        )
        n = data.draw(st.integers(0, 12))
        candidates, boxes = [], []
        for _ in range(n):
            x = data.draw(grid_indices(spec.size_x))
            y = data.draw(grid_indices(spec.size_y))
            cls = data.draw(st.integers(0, spec.num_classes - 1))
            wx, wy = spec.grid_to_world((x, y))
            candidates.append(Candidate(x, y, cls, 0.5, 0, wx, wy))
            boxes.append(BevBox(wx, wy, 2.5 * spec.cell_size, spec.cell_size, data.draw(yaws), cls))
        box_arg = boxes if mode is MaskType.BOX else None

        mask = build_positive_mask(candidates, cfg, spec, boxes=box_arg)

        assert mask.values.tobytes() == mask_loop_oracle(candidates, cfg, spec, box_arg).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_out_of_grid_candidate_named_as_by_loops(self, data):
        spec = data.draw(grid_specs())
        mode = data.draw(st.sampled_from([MaskType.POINT, MaskType.POOLING]))
        cfg = HipConfig(num_stages=1, k_per_stage=(1,), mask_type=mode)
        n = data.draw(st.integers(1, 8))
        # Each coordinate may step one past, or far past, either end.
        coords = {
            "x": st.integers(-3, spec.size_x + 2),
            "y": st.integers(-3, spec.size_y + 2),
            "class_id": st.integers(-2, spec.num_classes + 1),
        }
        candidates = [
            Candidate(
                data.draw(coords["x"]), data.draw(coords["y"]), data.draw(coords["class_id"]),
                0.5, 0, 0.0, 0.0,
            )
            for _ in range(n)
        ]
        try:
            mask_loop_oracle(candidates, cfg, spec)
        except ValueError as exc:
            expected = str(exc)
        else:
            expected = None

        if expected is None:
            build_positive_mask(candidates, cfg, spec)
        else:
            with pytest.raises(ValueError, match=re.escape(expected)):
                build_positive_mask(candidates, cfg, spec)


class TestRunHipProperties:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_stages_select_outside_the_union_of_earlier_masks(self, data):
        spec = data.draw(grid_specs(max_size=12))
        n = spec.num_classes * spec.size_y * spec.size_x
        num_stages = data.draw(st.integers(1, 4))
        mode = data.draw(st.sampled_from(list(MaskType)))
        cfg = HipConfig(
            num_stages=num_stages,
            # Up to past the grid size, so stages that run out of cells are covered.
            k_per_stage=data.draw(st.lists(st.integers(1, n + 2), min_size=num_stages,
                                           max_size=num_stages)),
            mask_type=mode,
            small_classes=data.draw(st.frozensets(st.integers(0, spec.num_classes - 1))),
            pooling_kernel=data.draw(st.sampled_from([1, 3, 5])),
        )
        rng = RNG(data.draw(st.integers(0, 2**32 - 1)))
        # Tie-heavy or mostly zero maps, drawn anew for each stage.
        kind = data.draw(st.sampled_from(["levels", "tie_at_floor", "sparse", "zeros"]))
        maps = [Heatmap(spec, floor_map(kind, spec.shape, rng)) for _ in range(num_stages)]
        length, width = (data.draw(box_extents(spec.cell_size)) for _ in range(2))

        def provider(cands):
            m = len(cands)
            size = np.full(m, length), np.full(m, width)
            return BoxColumns(cands.world_x, cands.world_y, *size, np.zeros(m), cands.class_id)

        result = run_hip(lambda stage, _: maps[stage], cfg, spec,
                         box_provider=provider if mode is MaskType.BOX else None)

        assert [t.stage for t in result.traces] == list(range(num_stages))
        union = np.zeros(spec.shape, dtype=np.uint8)
        for trace, hm in zip(result.traces, maps):
            cols = trace.columns
            assert not union[cols.class_id, cols.y, cols.x].any()
            earlier = PositiveMask(spec, union)
            k = cfg.k_per_stage[trace.stage]
            expect = topk_select(apply_mask(hm, earlier), earlier, k, trace.stage)
            assert cols == expect.columns
            assert trace.degenerate == expect.degenerate
            union |= trace.positive_mask.values
        assert result.accumulated_mask.values.tobytes() == union.tobytes()
        assert result.columns == CandidateColumns.concat([t.columns for t in result.traces])
        assert result.degenerate == any(t.degenerate for t in result.traces)


def candidate_record(cand, scene_id=None):
    """Oracle: the JSONL record as a dict in dump key order, run through
    the ``json`` encoder."""
    head = {} if scene_id is None else {"scene_id": scene_id}
    return encode_compact_json({
        **head,
        "stage": cand.stage,
        "x": cand.x,
        "y": cand.y,
        "class_id": cand.class_id,
        "score": cand.score,
        "world_x": cand.world_x,
        "world_y": cand.world_y,
    })


@st.composite
def candidate_columns(draw, spec):
    """Columns as ``topk_select`` stores them: int32 indices biased onto
    the grid edges, float32 scores (whose doubles print many digits) and
    world coordinates on the grid or anywhere, negative ones included."""
    n = draw(st.integers(0, 12))
    xs = [draw(grid_indices(spec.size_x)) for _ in range(n)]
    ys = [draw(grid_indices(spec.size_y)) for _ in range(n)]
    cls = [draw(st.integers(0, spec.num_classes - 1)) for _ in range(n)]
    scores = [draw(st.floats(0.0, 1.0, width=32)) for _ in range(n)]
    stages = [draw(st.integers(0, 4)) for _ in range(n)]
    world = []
    for x, y in zip(xs, ys):
        if draw(st.booleans()):
            world.append(spec.grid_to_world((x, y)))
        else:
            world.append((draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4))))
    wx, wy = (np.array([w[i] for w in world], dtype=np.float64) for i in (0, 1))
    index = lambda v: np.array(v, dtype=np.int32)
    return CandidateColumns(
        index(xs), index(ys), index(cls), np.array(scores, dtype=np.float32),
        index(stages), wx, wy,
    )


scene_ids = st.one_of(st.none(), st.sampled_from(["scene_0000", "100%", 'a"b\\c']), st.text())


class TestCandidateColumnsProperties:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_jsonl_matches_json_encoder(self, data):
        spec = data.draw(grid_specs())
        cols = data.draw(candidate_columns(spec))
        scene_id = data.draw(scene_ids)

        text = cols.to_jsonl(scene_id)

        assert text == "".join(candidate_record(c, scene_id) + "\n" for c in cols.rows())
        if scene_id is None:
            assert CandidateColumns.of(cols.rows()).to_jsonl() == text
            assert candidates_from_jsonl(text) == list(cols.rows())

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_round_trip_with_python_types(self, data):
        spec = data.draw(grid_specs())
        cols = data.draw(candidate_columns(spec))

        rows = cols.rows()

        assert CandidateColumns.of(rows) == cols
        assert list(cols) == list(rows) and len(cols) == len(rows)
        assert [cols[i] for i in range(-len(cols), len(cols))] == list(rows + rows)
        assert cols[1:3] == CandidateColumns.of(rows[1:3])
        for c in rows:
            assert all(type(v) is int for v in (c.x, c.y, c.class_id, c.stage))
            assert all(type(v) is float for v in (c.score, c.world_x, c.world_y))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_index_array_selects_rows_as_columns(self, data):
        spec = data.draw(grid_specs())
        cols = data.draw(candidate_columns(spec))
        n = len(cols)
        index = np.array(
            data.draw(st.lists(st.integers(-n, n - 1), max_size=10) if n else st.just([])),
            dtype=np.intp,
        )

        picked = cols[index]

        assert type(picked) is CandidateColumns
        assert picked.rows() == tuple(cols[int(i)] for i in index)
        assert all(getattr(picked, f).dtype == getattr(cols, f).dtype for f in hip._FIELDS)
        assert not any(getattr(picked, f).flags.writeable for f in hip._FIELDS)
        assert len(cols[np.array([], dtype=np.intp)]) == 0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_pickle_round_trips_read_only_columns(self, data):
        spec = data.draw(grid_specs())
        cols = data.draw(candidate_columns(spec))

        back = pickle.loads(pickle.dumps(cols))

        assert back == cols and back.rows() == cols.rows()
        assert not any(getattr(back, f).flags.writeable for f in hip._FIELDS)
        with pytest.raises(ValueError):
            back.score[...] = 0.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_columns_and_rows_give_equal_masks_matches_and_recall(self, data):
        spec = data.draw(grid_specs())
        cols = data.draw(candidate_columns(spec))
        rows = cols.rows()
        mode = data.draw(st.sampled_from(list(MaskType)))
        cfg = HipConfig(
            num_stages=1,
            k_per_stage=(1,),
            mask_type=mode,
            small_classes=data.draw(st.frozensets(st.integers(0, spec.num_classes - 1))),
            pooling_kernel=data.draw(st.sampled_from([1, 3, 5])),
        )
        boxes = None
        if mode is MaskType.BOX:
            boxes = [
                BevBox(c.world_x, c.world_y, 2.5 * spec.cell_size, spec.cell_size, 0.3, c.class_id)
                for c in rows
            ]
        gts = [
            BevBox(
                data.draw(st.floats(-20.0, 20.0)), data.draw(st.floats(-20.0, 20.0)),
                1.0, 1.0, 0.0, data.draw(st.integers(0, spec.num_classes - 1)),
            )
            for _ in range(data.draw(st.integers(0, 6)))
        ]
        recall_cfg = RecallConfig((0.5, 2.0, 8.0), data.draw(st.booleans()))

        from_cols = build_positive_mask(cols, cfg, spec, boxes=boxes)
        from_rows = build_positive_mask(rows, cfg, spec, boxes=boxes)

        assert from_cols.values.tobytes() == from_rows.values.tobytes()
        assert classify_stage(cols, gts, MatchConfig(eta=2.0)) == classify_stage(
            rows, gts, MatchConfig(eta=2.0)
        )
        assert average_recall(cols, gts, recall_cfg) == average_recall(rows, gts, recall_cfg)
