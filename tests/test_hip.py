import json
import math
import re

import numpy as np
import pytest

from bevprobe.bev_grid import BevGridSpec, Heatmap
from bevprobe.errors import ConfigError, DataError
from bevprobe.geometry import BevBox
from bevprobe.hip import (
    Candidate,
    CandidateColumns,
    HipConfig,
    MaskType,
    PositiveMask,
    accumulate_mask,
    apply_mask,
    build_positive_mask,
    candidates_from_jsonl,
    load_accumulated_mask,
    run_hip,
    save_mask,
    topk_select,
)

RNG = np.random.default_rng


def make_spec(size_x=8, size_y=8, num_classes=2, cell=1.0, ox=0.0, oy=0.0):
    return BevGridSpec(size_x, size_y, num_classes, cell, ox, oy)


def stage_list(maps):
    """A run_hip stage source that hands out ``maps[stage]``."""
    return lambda stage, _collected: maps[stage]


def brute_force_topk(values, mask_bits, k):
    """Oracle: full sort of unmasked cells by (-score, class, y, x)."""
    C, Y, X = values.shape
    cells = []
    for c in range(C):
        for y in range(Y):
            for x in range(X):
                if mask_bits is None or mask_bits[c, y, x] == 0:
                    cells.append((-float(values[c, y, x]), c, y, x))
    cells.sort()
    return [(c, y, x, -neg) for neg, c, y, x in cells[:k]]


class TestHipConfig:
    def test_defaults(self):
        cfg = HipConfig()
        assert cfg.num_stages == 3
        assert cfg.k_per_stage == (200, 200, 200)
        assert cfg.total_k == 600
        assert cfg.pooling_kernel == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            HipConfig(num_stages=0, k_per_stage=())
        with pytest.raises(ValueError):
            HipConfig(num_stages=2, k_per_stage=(5,))
        with pytest.raises(ValueError):
            HipConfig(num_stages=1, k_per_stage=(0,))
        with pytest.raises(ValueError):
            HipConfig(pooling_kernel=4)
        with pytest.raises(ValueError):
            HipConfig(pooling_kernel=-1)


class TestTopkSelect:
    def test_hand_ordering_with_ties(self):
        spec = make_spec(4, 3, 2)
        values = np.zeros(spec.shape, dtype=np.float32)
        values[0, 1, 2] = 0.9
        values[1, 0, 0] = 0.9  # tie: class 0 wins
        values[0, 2, 1] = 0.7
        values[0, 0, 3] = 0.7  # tie: lower y wins
        values[1, 2, 2] = 0.5
        hm = Heatmap(spec, values)
        got = topk_select(hm, None, 4)
        triples = [(c.class_id, c.y, c.x, c.score) for c in got.columns.rows()]
        assert triples == [
            (0, 1, 2, pytest.approx(0.9)),
            (1, 0, 0, pytest.approx(0.9)),
            (0, 0, 3, pytest.approx(0.7)),
            (0, 2, 1, pytest.approx(0.7)),
        ]
        assert not got.degenerate

    def test_matches_brute_force_with_boundary_ties(self):
        rng = RNG(0)
        for trial in range(60):
            spec = make_spec(
                int(rng.integers(2, 9)), int(rng.integers(2, 9)), int(rng.integers(1, 4))
            )
            # Quantized scores force plenty of exact ties across the k edge.
            values = (rng.integers(0, 5, size=spec.shape) / 4.0).astype(np.float32)
            hm = Heatmap(spec, values)
            k = int(rng.integers(1, values.size + 1))
            got = topk_select(hm, None, k)
            expect = brute_force_topk(values, None, k)
            assert [(c.class_id, c.y, c.x) for c in got.columns.rows()] == [
                (c, y, x) for c, y, x, _ in expect
            ]
            assert [c.score for c in got.columns.rows()] == [s for *_xyz, s in expect]

    def test_respects_mask(self):
        spec = make_spec(3, 3, 1)
        values = np.arange(9, dtype=np.float32).reshape(spec.shape) / 10.0
        hm = Heatmap(spec, values)
        bits = np.zeros(spec.shape, dtype=np.uint8)
        bits[0, 2, 2] = 1  # the global max
        apm = PositiveMask(spec, bits)
        got = topk_select(hm, apm, 1)
        assert (got.columns[0].y, got.columns[0].x) == (2, 1)

    def test_degenerate_when_k_exceeds_cells(self):
        spec = make_spec(2, 2, 1)
        hm = Heatmap(spec, np.full(spec.shape, 0.5, dtype=np.float32))
        got = topk_select(hm, None, 10)
        assert len(got.columns) == 4
        assert got.degenerate

    def test_degenerate_when_filling_with_zero_scores(self):
        spec = make_spec(3, 1, 1)
        values = np.zeros(spec.shape, dtype=np.float32)
        values[0, 0, 0] = 0.4
        hm = Heatmap(spec, values)
        got = topk_select(hm, None, 2)
        assert len(got.columns) == 2
        assert got.degenerate
        assert got.columns[1].score == 0.0

    def test_fully_masked_grid(self):
        spec = make_spec(2, 2, 1)
        hm = Heatmap(spec, np.full(spec.shape, 0.5, dtype=np.float32))
        apm = PositiveMask(spec, np.ones(spec.shape, dtype=np.uint8))
        got = topk_select(hm, apm, 3)
        assert got.columns.rows() == ()
        assert got.degenerate

    def test_world_center_is_cell_lattice_point(self):
        spec = make_spec(4, 4, 1, cell=0.5, ox=-1.0, oy=-1.0)
        values = np.zeros(spec.shape, dtype=np.float32)
        values[0, 3, 1] = 1.0
        got = topk_select(Heatmap(spec, values), None, 1)
        cand = got.columns[0]
        assert (cand.world_x, cand.world_y) == spec.grid_to_world((cand.x, cand.y))
        assert (cand.world_x, cand.world_y) == (-0.5, 0.5)

    def test_invalid_k(self):
        spec = make_spec(2, 2, 1)
        hm = Heatmap.zeros(spec)
        with pytest.raises(ValueError):
            topk_select(hm, None, 0)


def cand(x, y, class_id=0, score=0.5, stage=0, spec=None):
    spec = spec or make_spec()
    wx, wy = spec.grid_to_world((x, y))
    return Candidate(x, y, class_id, score, stage, wx, wy)


class TestBuildPositiveMask:
    def test_point_mode(self):
        spec = make_spec(5, 5, 2)
        cfg = HipConfig(num_stages=1, k_per_stage=(3,), mask_type=MaskType.POINT)
        mask = build_positive_mask([cand(1, 2, 0), cand(4, 4, 1)], cfg, spec)
        expect = np.zeros(spec.shape, dtype=np.uint8)
        expect[0, 2, 1] = 1
        expect[1, 4, 4] = 1
        np.testing.assert_array_equal(mask.bits, expect)

    def test_pooling_mode_square_window(self):
        spec = make_spec(5, 5, 1)
        cfg = HipConfig(num_stages=1, k_per_stage=(1,), mask_type=MaskType.POOLING)
        mask = build_positive_mask([cand(2, 2)], cfg, spec)
        expect = np.zeros(spec.shape, dtype=np.uint8)
        expect[0, 1:4, 1:4] = 1
        np.testing.assert_array_equal(mask.bits, expect)

    def test_pooling_mode_clips_at_border(self):
        spec = make_spec(4, 4, 1)
        cfg = HipConfig(num_stages=1, k_per_stage=(1,), mask_type=MaskType.POOLING)
        mask = build_positive_mask([cand(0, 0)], cfg, spec)
        expect = np.zeros(spec.shape, dtype=np.uint8)
        expect[0, 0:2, 0:2] = 1
        np.testing.assert_array_equal(mask.bits, expect)

    def test_pooling_small_class_stays_single_cell(self):
        spec = make_spec(5, 5, 2)
        cfg = HipConfig(
            num_stages=1, k_per_stage=(2,), mask_type=MaskType.POOLING,
            small_classes=frozenset({1}),
        )
        mask = build_positive_mask([cand(2, 2, 0), cand(2, 2, 1)], cfg, spec)
        assert mask.bits[0].sum() == 9
        assert mask.bits[1].sum() == 1
        assert mask.bits[1, 2, 2] == 1

    def test_wider_pooling_kernel(self):
        spec = make_spec(7, 7, 1)
        cfg = HipConfig(
            num_stages=1, k_per_stage=(1,), mask_type=MaskType.POOLING, pooling_kernel=5
        )
        mask = build_positive_mask([cand(3, 3)], cfg, spec)
        assert mask.bits[0].sum() == 25
        assert mask.bits[0, 1:6, 1:6].sum() == 25

    def test_box_mode_axis_aligned_footprint(self):
        # 3 m x 3 m box centered on a lattice point of a 0.6 m grid marks
        # the 5x5 block of cells whose sample points fall inside.
        spec = make_spec(11, 11, 1, cell=0.6, ox=-3.0, oy=-3.0)
        cfg = HipConfig(num_stages=1, k_per_stage=(1,), mask_type=MaskType.BOX)
        c = cand(5, 5, spec=spec)
        box = BevBox(0.0, 0.0, 3.0, 3.0, 0.0)
        mask = build_positive_mask([c], cfg, spec, boxes=[box])
        expect = np.zeros(spec.shape, dtype=np.uint8)
        expect[0, 3:8, 3:8] = 1
        np.testing.assert_array_equal(mask.bits, expect)

    def test_box_mode_matches_point_in_rectangle_oracle(self):
        rng = RNG(1)
        for _ in range(40):
            spec = make_spec(12, 10, 1, cell=0.5, ox=-3.0, oy=-2.5)
            cfg = HipConfig(num_stages=1, k_per_stage=(1,), mask_type=MaskType.BOX)
            box = BevBox(
                float(rng.uniform(-2.5, 2.5)), float(rng.uniform(-2, 2)),
                float(rng.uniform(0.6, 4.0)), float(rng.uniform(0.6, 3.0)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            c = cand(
                int(rng.integers(spec.size_x)), int(rng.integers(spec.size_y)), spec=spec
            )
            mask = build_positive_mask([c], cfg, spec, boxes=[box])
            expect = np.zeros(spec.shape, dtype=np.uint8)
            expect[0, c.y, c.x] = 1  # the selected cell is always claimed
            cos_t, sin_t = math.cos(box.yaw), math.sin(box.yaw)
            for y in range(spec.size_y):
                for x in range(spec.size_x):
                    wx, wy = spec.grid_to_world((x, y))
                    du, dv = wx - box.cx, wy - box.cy
                    u = cos_t * du + sin_t * dv
                    v = -sin_t * du + cos_t * dv
                    if abs(u) <= box.length / 2 and abs(v) <= box.width / 2:
                        expect[0, y, x] = 1
            np.testing.assert_array_equal(mask.bits, expect)

    @pytest.mark.parametrize("cx,cy,yaw", [
        (math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, math.nan),
    ])
    def test_box_mode_rejects_non_finite_boxes(self, cx, cy, yaw):
        spec = make_spec()
        cfg = HipConfig(num_stages=1, k_per_stage=(1,), mask_type=MaskType.BOX)
        with pytest.raises(ValueError, match="finite"):
            build_positive_mask([cand(1, 1)], cfg, spec, boxes=[BevBox(cx, cy, 2.0, 1.0, yaw)])

    def test_box_mode_requires_boxes(self):
        spec = make_spec()
        cfg = HipConfig(num_stages=1, k_per_stage=(1,), mask_type=MaskType.BOX)
        with pytest.raises(ValueError, match="predicted box"):
            build_positive_mask([cand(1, 1)], cfg, spec)
        with pytest.raises(ValueError, match="boxes"):
            build_positive_mask([cand(1, 1)], cfg, spec, boxes=[])

    def test_candidate_outside_grid_rejected(self):
        spec = make_spec(4, 4, 1)
        cfg = HipConfig(num_stages=1, k_per_stage=(1,), mask_type=MaskType.POINT)
        bad = Candidate(4, 0, 0, 0.5, 0, 0.0, 0.0)
        with pytest.raises(ValueError):
            build_positive_mask([bad], cfg, spec)


class TestMaskAlgebra:
    def test_accumulate_is_elementwise_max(self):
        rng = RNG(2)
        spec = make_spec(6, 5, 3)
        for _ in range(50):
            a = PositiveMask(spec, rng.integers(0, 2, size=spec.shape))
            m = PositiveMask(spec, rng.integers(0, 2, size=spec.shape))
            merged = accumulate_mask(a, m)
            np.testing.assert_array_equal(merged.bits, np.maximum(a.bits, m.bits))

    def test_accumulate_spec_mismatch(self):
        a = PositiveMask.zeros(make_spec(4, 4, 1))
        m = PositiveMask(make_spec(5, 4, 1), np.zeros((1, 4, 5), dtype=np.uint8))
        with pytest.raises(ValueError):
            accumulate_mask(a, m)

    def test_apply_mask_zeroes_exactly_the_masked_cells(self):
        rng = RNG(3)
        spec = make_spec(7, 6, 2)
        for _ in range(50):
            hm = Heatmap(spec, rng.random(spec.shape).astype(np.float32))
            bits = rng.integers(0, 2, size=spec.shape).astype(np.uint8)
            apm = PositiveMask(spec, bits)
            masked = apply_mask(hm, apm)
            assert (masked.values[bits == 1] == 0.0).all()
            np.testing.assert_array_equal(
                masked.values[bits == 0], hm.values[bits == 0]
            )
            # The algebraic form: values * (1 - bits), bit for bit.
            np.testing.assert_array_equal(
                masked.values, hm.values * (1 - bits).astype(np.float32)
            )

    def test_mask_bits_validated(self):
        spec = make_spec(3, 3, 1)
        with pytest.raises(ValueError):
            PositiveMask(spec, np.full(spec.shape, 2, dtype=np.uint8))
        with pytest.raises(ValueError):
            PositiveMask(spec, np.zeros((1, 3, 4), dtype=np.uint8))


def naive_staged_probe(values, k_per_stage, pooling=False, kernel=3, small=()):
    """Independent straight-line reimplementation of the staged loop."""
    C, Y, X = values.shape
    masked = np.zeros((C, Y, X), dtype=bool)
    all_picks = []
    for k in k_per_stage:
        cells = [
            (-float(values[c, y, x]), c, y, x)
            for c in range(C)
            for y in range(Y)
            for x in range(X)
            if not masked[c, y, x]
        ]
        cells.sort()
        picks = cells[:k]
        all_picks.extend((c, y, x, -neg) for neg, c, y, x in picks)
        for neg, c, y, x in picks:
            if pooling and c not in small:
                y0, y1 = max(0, y - kernel // 2), min(Y, y + kernel // 2 + 1)
                x0, x1 = max(0, x - kernel // 2), min(X, x + kernel // 2 + 1)
                masked[c, y0:y1, x0:x1] = True
            else:
                masked[c, y, x] = True
    return all_picks


class TestRunHip:
    def test_strong_and_weak_peaks_all_collected(self):
        # Five strong and three weak peaks on an 8x8 single-class map with
        # budgets [3, 3, 3]: the nine picks cover all eight peaks and pad
        # one zero-score cell, flagged degenerate.
        spec = make_spec(8, 8, 1)
        values = np.zeros(spec.shape, dtype=np.float32)
        strong = [(1, 1, 0.9), (5, 2, 0.85), (3, 6, 0.8), (7, 7, 0.75), (0, 4, 0.7)]
        weak = [(6, 5, 0.3), (2, 3, 0.25), (4, 0, 0.2)]
        for x, y, s in strong + weak:
            values[0, y, x] = s
        cfg = HipConfig(num_stages=3, k_per_stage=(3, 3, 3), mask_type=MaskType.POINT)
        result = run_hip(stage_list([Heatmap(spec, values)] * 3), cfg, spec)
        got = [(c.class_id, c.y, c.x, c.score) for c in result.columns.rows()]
        expect = naive_staged_probe(values, (3, 3, 3))
        assert got == expect
        peak_cells = {(y, x) for x, y, _ in strong + weak}
        assert peak_cells <= {(c.y, c.x) for c in result.columns.rows()}
        assert len(result.columns) == 9
        assert result.degenerate
        assert [t.degenerate for t in result.traces] == [False, False, True]

    def test_matches_naive_loop_point_mode(self):
        rng = RNG(4)
        for _ in range(20):
            spec = make_spec(int(rng.integers(3, 8)), int(rng.integers(3, 8)), 2)
            values = (rng.integers(0, 6, size=spec.shape) / 5.0).astype(np.float32)
            ks = tuple(int(rng.integers(1, 5)) for _ in range(3))
            cfg = HipConfig(num_stages=3, k_per_stage=ks, mask_type=MaskType.POINT)
            result = run_hip(stage_list([Heatmap(spec, values)] * 3), cfg, spec)
            got = [(c.class_id, c.y, c.x, c.score) for c in result.columns.rows()]
            assert got == naive_staged_probe(values, ks)

    def test_matches_naive_loop_pooling_mode(self):
        rng = RNG(5)
        for _ in range(20):
            spec = make_spec(7, 7, 2)
            values = (rng.integers(0, 6, size=spec.shape) / 5.0).astype(np.float32)
            ks = (3, 3)
            cfg = HipConfig(
                num_stages=2, k_per_stage=ks, mask_type=MaskType.POOLING,
                small_classes=frozenset({1}),
            )
            result = run_hip(stage_list([Heatmap(spec, values)] * 2), cfg, spec)
            got = [(c.class_id, c.y, c.x, c.score) for c in result.columns.rows()]
            assert got == naive_staged_probe(values, ks, pooling=True, small={1})

    def test_no_candidate_repeats_masked_cell(self):
        rng = RNG(6)
        spec = make_spec(10, 10, 3)
        values = rng.random(spec.shape).astype(np.float32)
        cfg = HipConfig(num_stages=3, k_per_stage=(10, 10, 10), mask_type=MaskType.POINT)
        result = run_hip(stage_list([Heatmap(spec, values)] * 3), cfg, spec)
        triples = [(c.class_id, c.y, c.x) for c in result.columns.rows()]
        assert len(triples) == len(set(triples)) == 30

    def test_traces_monotone_accumulation(self):
        rng = RNG(7)
        spec = make_spec(9, 9, 2)
        values = rng.random(spec.shape).astype(np.float32)
        cfg = HipConfig(num_stages=3, k_per_stage=(5, 5, 5), mask_type=MaskType.POOLING)
        result = run_hip(stage_list([Heatmap(spec, values)] * 3), cfg, spec)
        prev = np.zeros(spec.shape, dtype=np.uint8)
        for trace in result.traces:
            # The stage selected from the map masked by the mask that preceded it.
            acc = PositiveMask(spec, prev)
            expect = topk_select(apply_mask(Heatmap(spec, values), acc), acc, 5, trace.stage)
            assert trace.columns == expect.columns
            prev = np.maximum(prev, trace.positive_mask.bits)
        np.testing.assert_array_equal(result.accumulated_mask.bits, prev)

    def test_callable_source_sees_prior_candidates(self):
        spec = make_spec(4, 4, 1)
        seen = []

        def source(stage, collected):
            seen.append((stage, len(collected)))
            values = np.zeros(spec.shape, dtype=np.float32)
            values[0, stage, stage] = 1.0
            return Heatmap(spec, values)

        cfg = HipConfig(num_stages=3, k_per_stage=(1, 1, 1), mask_type=MaskType.POINT)
        result = run_hip(source, cfg, spec)
        assert seen == [(0, 0), (1, 1), (2, 2)]
        assert [(c.y, c.x) for c in result.columns.rows()] == [(0, 0), (1, 1), (2, 2)]
        assert [c.stage for c in result.columns.rows()] == [0, 1, 2]

    def test_source_failure_names_stage(self):
        spec = make_spec(4, 4, 1)

        def source(stage, collected):
            if stage == 1:
                raise RuntimeError("backend exploded")
            return Heatmap.zeros(spec)

        cfg = HipConfig(num_stages=2, k_per_stage=(1, 1), mask_type=MaskType.POINT)
        with pytest.raises(RuntimeError, match="stage 1"):
            run_hip(source, cfg, spec)

    @pytest.mark.parametrize("error", [DataError, ConfigError])
    def test_source_package_errors_propagate_unwrapped(self, error):
        spec = make_spec(4, 4, 1)

        def source(stage, collected):
            if stage == 1:
                raise error("stage file is corrupt")
            return Heatmap.zeros(spec)

        cfg = HipConfig(num_stages=2, k_per_stage=(1, 1), mask_type=MaskType.POINT)
        with pytest.raises(error, match="^stage file is corrupt$"):
            run_hip(source, cfg, spec)

    def test_spec_mismatch_names_stage(self):
        spec = make_spec(4, 4, 1)
        other = make_spec(5, 4, 1)
        maps = [Heatmap.zeros(spec), Heatmap.zeros(other)]
        cfg = HipConfig(num_stages=2, k_per_stage=(1, 1), mask_type=MaskType.POINT)
        with pytest.raises(ValueError, match="stage 1"):
            run_hip(stage_list(maps), cfg, spec)

    def test_box_mode_requires_provider(self):
        spec = make_spec(4, 4, 1)
        cfg = HipConfig(num_stages=1, k_per_stage=(1,), mask_type=MaskType.BOX)
        with pytest.raises(ValueError, match="box_provider"):
            run_hip(stage_list([Heatmap.zeros(spec)]), cfg, spec)

    def test_box_mode_masks_footprints(self):
        spec = make_spec(10, 10, 1, cell=1.0)
        values = np.zeros(spec.shape, dtype=np.float32)
        values[0, 5, 5] = 1.0
        values[0, 5, 6] = 0.9  # inside the predicted box, must be masked
        values[0, 5, 8] = 0.8
        cfg = HipConfig(num_stages=2, k_per_stage=(1, 1), mask_type=MaskType.BOX)

        def provider(cands):
            return [
                BevBox(c.world_x, c.world_y, 4.0, 2.0, 0.0, c.class_id) for c in cands
            ]

        maps = [Heatmap(spec, values)] * 2
        result = run_hip(stage_list(maps), cfg, spec, box_provider=provider)
        assert [(c.y, c.x) for c in result.columns.rows()] == [(5, 5), (5, 8)]


class TestCandidateSerialization:
    def test_jsonl_roundtrip(self):
        spec = make_spec(6, 6, 2, cell=0.5, ox=-1.5, oy=-1.5)
        values = RNG(8).random(spec.shape).astype(np.float32)
        cfg = HipConfig(num_stages=2, k_per_stage=(4, 4), mask_type=MaskType.POINT)
        result = run_hip(stage_list([Heatmap(spec, values)] * 2), cfg, spec)
        text = result.columns.to_jsonl()
        back = candidates_from_jsonl(text)
        assert tuple(back) == result.columns.rows()

    def test_record_key_order(self):
        text = CandidateColumns.of([Candidate(1, 2, 0, 0.5, 1, 0.5, 1.0)]).to_jsonl()
        line = text.strip()
        assert line.startswith('{"stage":1,"x":1,"y":2,"class_id":0,"score":0.5')
        record = json.loads(line)
        assert list(record) == ["stage", "x", "y", "class_id", "score", "world_x", "world_y"]

    @pytest.mark.parametrize(
        "bad",
        [
            Candidate(0, 0, 0, math.nan, 0, math.inf, 0.0),
            Candidate(1, 0, 0, 0.5, 0, math.inf, 0.0),
            Candidate(2, 0, 0, 0.5, 0, 0.0, -math.inf),
        ],
    )
    def test_non_finite_candidate_rejected_by_writer(self, bad):
        good = Candidate(1, 2, 0, 0.5, 1, 0.5, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"candidate {bad} ")):
            CandidateColumns.of([good, bad, Candidate(3, 0, 0, math.nan, 0, 0.0, 0.0)]).to_jsonl()

    def test_malformed_line_rejected(self):
        good = '{"stage":0,"x":1,"y":2,"class_id":0,"score":0.5,"world_x":1.0,"world_y":2.0}\n'
        with pytest.raises(DataError, match="line 2"):
            candidates_from_jsonl(good + "not json\n")
        for bad in (good.replace('"x":1', '"x":1.5'), good.replace("0.5", "NaN")):
            with pytest.raises(DataError, match="line 2: candidate"):
                candidates_from_jsonl(good + bad)

    def test_missing_field_rejected(self):
        with pytest.raises(DataError, match="line 1: candidate"):
            candidates_from_jsonl('{"stage":0,"x":1,"y":2}\n')

    def test_line_separator_inside_a_string_does_not_end_the_record(self):
        # U+2028 is a line break to str.splitlines but not to JSONL.
        record = '{"stage":0,"x":1,"y":2,"class_id":0,"score":0.5,"world_x":1.0,"world_y":2.0'
        with pytest.raises(DataError, match="line 1: candidate.note: unknown key"):
            candidates_from_jsonl(record + ',"note":"a\u2028b"}\n')


class TestCandidateColumns:
    def test_one_column_per_field(self):
        assert len(CandidateColumns(*[np.zeros(2)] * 7)) == 2
        for count in (6, 8):
            with pytest.raises((TypeError, ValueError)):
                CandidateColumns(*[np.zeros(2)] * count)


class TestMaskFiles:
    def test_roundtrip(self, tmp_path):
        spec = make_spec(5, 4, 2)
        bits = RNG(9).integers(0, 2, size=spec.shape).astype(np.uint8)
        apm = PositiveMask(spec, bits)
        path = tmp_path / "mask.bevgrid"
        save_mask(path, apm)
        back = load_accumulated_mask(path)
        assert back.spec == spec
        np.testing.assert_array_equal(back.bits, bits)

    def test_heatmap_file_rejected_as_mask(self, tmp_path):
        from bevprobe.bev_grid import save_heatmap

        spec = make_spec(3, 3, 1)
        save_heatmap(tmp_path / "hm.bevgrid", Heatmap.zeros(spec))
        with pytest.raises(DataError, match="u8"):
            load_accumulated_mask(tmp_path / "hm.bevgrid")
