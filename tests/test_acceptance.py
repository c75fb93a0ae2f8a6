"""Acceptance suite: one numbered criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines. Every criterion is verified against an independent oracle written
in this file (full sorts, permutation search, fine rasterization, scalar
re-derivations), never against the library's own internals.
"""

import hashlib
import itertools
import json
import math
import time
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest

from bevprobe.bev_grid import BevGridSpec, Heatmap
from bevprobe.cli import main
from bevprobe.geometry import (
    BevBox,
    BoxPoolConfig,
    bilinear_sample,
    box_pool_points,
    normalize_yaw,
    rotated_iou_bev,
)
from bevprobe.hip import (
    HipConfig,
    MaskType,
    PositiveMask,
    accumulate_mask,
    apply_mask,
    run_hip,
    topk_select,
)
from bevprobe.assignment import AssignmentConfig, gated_cost_matrix, hungarian_assign
from bevprobe.losses import LossConfig, gaussian_focal_loss, multi_stage_loss
from bevprobe.metrics import RecallConfig, average_recall
from bevprobe.sim import experiment_from_config, run_experiment

RNG = np.random.default_rng

FROZEN_MEAN_DELTA = 0.41997846669315936


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


def reference_config():
    text = resources.files("bevprobe").joinpath("configs/reference.json").read_text()
    return json.loads(text)


def reference_config_path():
    return str(resources.files("bevprobe").joinpath("configs/reference.json"))


# --- independent oracles -------------------------------------------------


def full_sort_topk(values, k):
    """Total order by (-score, class, y, x) via an explicit full sort."""
    C, Y, X = values.shape
    cells = [
        (-float(values[c, y, x]), c, y, x)
        for c in range(C)
        for y in range(Y)
        for x in range(X)
    ]
    cells.sort()
    return [(c, y, x, -neg) for neg, c, y, x in cells[:k]]


def permutation_assignment_cost(cost):
    """Minimum assignment cost by exhaustive search (n <= 7)."""
    cost = np.asarray(cost, dtype=np.float64)
    r, c = cost.shape
    if r > c:
        cost = cost.T
        r, c = c, r
    return min(
        sum(cost[i, perm[i]] for i in range(r))
        for perm in itertools.permutations(range(c), r)
    )


def fine_raster_iou(a, b, cells=2000):
    """IoU by point-in-footprint counting on a cells x cells lattice.

    Each box is tested only inside the lattice window of its own bounding
    box, padded by one lattice step, in blocks of 64 rows. Lattice points
    outside that window cannot fall inside the box, so the counts are those
    of testing every point of the full lattice, with small temporaries.
    """
    pts = np.vstack([a.corners(), b.corners()])
    lo = pts.min(axis=0) - 0.01
    hi = pts.max(axis=0) + 0.01
    xs = np.linspace(lo[0], hi[0], cells)
    ys = np.linspace(lo[1], hi[1], cells)
    step = (hi - lo) / (cells - 1)

    def footprint(box):
        """(first row, first column, inside mask) over the box's window."""
        corners = box.corners()
        c0, c1 = np.searchsorted(
            xs, [corners[:, 0].min() - step[0], corners[:, 0].max() + step[0]]
        )
        r0, r1 = np.searchsorted(
            ys, [corners[:, 1].min() - step[1], corners[:, 1].max() + step[1]]
        )
        cos_t, sin_t = math.cos(box.yaw), math.sin(box.yaw)
        dx = xs[c0:c1] - box.cx
        u_dx, v_dx = cos_t * dx, -sin_t * dx
        mask = np.empty((r1 - r0, c1 - c0), dtype=bool)
        for r in range(r0, r1, 64):
            dy = ys[r : min(r + 64, r1), None] - box.cy
            u = u_dx + sin_t * dy
            v = v_dx + cos_t * dy
            mask[r - r0 : r - r0 + len(dy)] = (np.abs(u) <= box.length / 2) & (
                np.abs(v) <= box.width / 2
            )
        return r0, c0, mask

    (ra, ca, in_a), (rb, cb, in_b) = footprint(a), footprint(b)
    r0, c0 = max(ra, rb), max(ca, cb)
    r1 = min(ra + in_a.shape[0], rb + in_b.shape[0])
    c1 = min(ca + in_a.shape[1], cb + in_b.shape[1])
    inter = 0
    if r0 < r1 and c0 < c1:
        inter = np.count_nonzero(
            in_a[r0 - ra : r1 - ra, c0 - ca : c1 - ca]
            & in_b[r0 - rb : r1 - rb, c0 - cb : c1 - cb]
        )
    union = np.count_nonzero(in_a) + np.count_nonzero(in_b) - inter
    return inter / union if union else 0.0


def rotate_about(box, pivot, angle):
    cos_t, sin_t = math.cos(angle), math.sin(angle)
    dx, dy = box.cx - pivot[0], box.cy - pivot[1]
    return BevBox(
        pivot[0] + cos_t * dx - sin_t * dy,
        pivot[1] + sin_t * dx + cos_t * dy,
        box.length,
        box.width,
        normalize_yaw(box.yaw + angle),
        box.class_id,
    )


def digest_dir(path, exclude=("run_info.json",)):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file() and p.name not in exclude
    }


# --- criteria ------------------------------------------------------------


def test_criterion_01_staged_exclusion_never_reselects_masked_cells():
    with criterion(1, "staged selection never re-picks a masked cell"):
        rng = RNG(100)
        modes = (MaskType.POINT, MaskType.POOLING, MaskType.BOX)
        heatmaps_used = 0
        runs = 0
        t0 = time.perf_counter()
        while heatmaps_used < 1000:
            num_stages = 4
            mode = modes[runs % 3]
            spec = BevGridSpec(
                int(rng.integers(16, 129)), int(rng.integers(16, 129)),
                int(rng.integers(1, 6)), 0.5, -16.0, -16.0,
            )
            stages = []
            for _ in range(num_stages):
                values = rng.random(spec.shape, dtype=np.float32)
                if runs % 2:
                    # Quantized scores make cross-stage ties common.
                    values = np.round(values * 8.0) / 8.0
                stages.append(Heatmap(spec, values.astype(np.float32)))
            heatmaps_used += num_stages
            cfg = HipConfig(
                num_stages=num_stages,
                k_per_stage=tuple(int(rng.integers(1, 101)) for _ in range(num_stages)),
                mask_type=mode,
                small_classes=frozenset({0}) if mode is MaskType.POOLING else frozenset(),
            )
            provider = None
            if mode is MaskType.BOX:
                def provider(cands):
                    return [
                        BevBox(c.world_x, c.world_y, 2.0, 1.0, 0.3, c.class_id)
                        for c in cands
                    ]
            result = run_hip(lambda stage, _: stages[stage], cfg, spec, box_provider=provider)
            prev_bits = np.zeros(spec.shape, dtype=np.uint8)
            for trace in result.traces:
                for cand in trace.columns.rows():
                    assert prev_bits[cand.class_id, cand.y, cand.x] == 0
                prev_bits = np.maximum(prev_bits, trace.positive_mask.bits)
            if mode is MaskType.POINT:
                triples = [(c.class_id, c.y, c.x) for c in result.columns.rows()]
                assert len(triples) == len(set(triples))
            runs += 1
        elapsed = time.perf_counter() - t0
        assert heatmaps_used >= 1000
        assert elapsed < 10.0, f"exclusion suite took {elapsed:.1f}s"


def test_criterion_02_masking_algebra_is_exact():
    with criterion(2, "mask accumulation and score suppression are exact"):
        rng = RNG(101)
        for _ in range(500):
            spec = BevGridSpec(
                int(rng.integers(2, 24)), int(rng.integers(2, 24)),
                int(rng.integers(1, 4)), 1.0, 0.0, 0.0,
            )
            values = rng.random(spec.shape, dtype=np.float32)
            heatmap = Heatmap(spec, values)
            acc = PositiveMask.zeros(spec)
            reference = np.zeros(spec.shape, dtype=np.uint8)
            for _stage in range(int(rng.integers(1, 4))):
                bits = (rng.random(spec.shape) < 0.2).astype(np.uint8)
                before = acc.bits
                acc = accumulate_mask(acc, PositiveMask(spec, bits))
                reference = np.maximum(reference, bits)
                np.testing.assert_array_equal(acc.bits, reference)
                assert (acc.bits >= before).all()
                masked = apply_mask(heatmap, acc)
                np.testing.assert_array_equal(
                    masked.values, values * (1 - acc.bits).astype(np.float32)
                )


def test_criterion_03_reference_experiment_reproduces_frozen_advantage():
    with criterion(3, "reference probing run beats the baseline and reproduces"):
        setup = experiment_from_config(reference_config())
        assert setup.num_scenes == 200
        assert setup.hip_cfg.total_k == setup.baseline_cfg.total_k == 600
        t0 = time.perf_counter()
        result = run_experiment(setup, jobs=1)
        elapsed = time.perf_counter() - t0
        assert result.arms["hip"].mean_mar >= result.arms["baseline"].mean_mar
        assert result.frac_nonneg_delta >= 0.9
        assert result.mean_delta == pytest.approx(FROZEN_MEAN_DELTA, abs=1e-9)
        assert elapsed < 60.0, f"reference run took {elapsed:.1f}s"


def test_criterion_04_topk_matches_full_sort():
    with criterion(4, "top-k selection equals a full-sort oracle"):
        rng = RNG(102)
        t0 = time.perf_counter()
        for trial in range(200):
            spec = BevGridSpec(
                int(rng.integers(2, 33)), int(rng.integers(2, 33)),
                int(rng.integers(1, 5)), 1.0, 0.0, 0.0,
            )
            if trial % 2:
                values = (rng.integers(0, 6, size=spec.shape) / 5.0).astype(np.float32)
            else:
                values = rng.random(spec.shape, dtype=np.float32)
            k = int(rng.integers(1, values.size + 1))
            got = topk_select(Heatmap(spec, values), None, k)
            want = full_sort_topk(values, k)
            assert [(c.class_id, c.y, c.x, c.score) for c in got.columns.rows()] == want
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"top-k comparison took {elapsed:.1f}s"


def test_criterion_05_assignment_matches_permutation_search():
    with criterion(5, "optimal assignment equals exhaustive search"):
        rng = RNG(103)
        t0 = time.perf_counter()
        for trial in range(500):
            if trial % 2 == 0:
                r, c = int(rng.integers(1, 8)), int(rng.integers(1, 8))
                cost = rng.uniform(0.0, 50.0, size=(r, c))
            else:
                n_pred, n_gt = int(rng.integers(1, 8)), int(rng.integers(1, 8))
                preds = [
                    BevBox(float(rng.uniform(-12, 12)), float(rng.uniform(-12, 12)),
                           2.0, 1.0, 0.0, 0, score=0.5)
                    for _ in range(n_pred)
                ]
                gts = [
                    BevBox(float(rng.uniform(-12, 12)), float(rng.uniform(-12, 12)),
                           2.0, 1.0, 0.0, 0)
                    for _ in range(n_gt)
                ]
                cost, _ = gated_cost_matrix(preds, gts, AssignmentConfig(7.0))
            pairs = hungarian_assign(cost)
            total = sum(cost[i, j] for i, j in pairs)
            assert len(pairs) == min(cost.shape)
            assert len({i for i, _ in pairs}) == len(pairs)
            assert len({j for _, j in pairs}) == len(pairs)
            best = permutation_assignment_cost(cost)
            assert total == pytest.approx(best, rel=1e-12, abs=1e-12)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"assignment comparison took {elapsed:.1f}s"


def test_criterion_06_rotated_iou_matches_fine_rasterization():
    with criterion(6, "rotated IoU agrees with a fine rasterization oracle"):
        assert rotated_iou_bev(BevBox(0, 0, 4, 4), BevBox(0, 0, 2, 2)) == 0.25
        assert rotated_iou_bev(BevBox(0, 0, 2, 2), BevBox(1, 0, 2, 2)) == 2.0 / 6.0
        assert rotated_iou_bev(
            BevBox(1.5, -2.0, 3.0, 1.5, 0.7), BevBox(1.5, -2.0, 3.0, 1.5, 0.7)
        ) == 1.0
        rng = RNG(104)
        t0 = time.perf_counter()
        for _ in range(200):
            a = BevBox(
                float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                float(rng.uniform(0.8, 5.0)), float(rng.uniform(0.8, 4.0)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            b = BevBox(
                float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                float(rng.uniform(0.8, 5.0)), float(rng.uniform(0.8, 4.0)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            exact = rotated_iou_bev(a, b)
            estimate = fine_raster_iou(a, b)
            assert exact == pytest.approx(estimate, abs=1e-2)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"IoU comparison took {elapsed:.1f}s"


def test_criterion_07_recall_defaults_fixture_and_monotonicity():
    with criterion(7, "recall thresholds, fixture values, and monotonicity"):
        assert RecallConfig().thresholds == (0.5, 1.0, 2.0, 4.0)

        gts = [BevBox(x, 0.0, 4.0, 2.0, 0.0, 0) for x in (0.0, 10.0, 20.0, 30.0)]
        preds = [
            BevBox(0.3, 0.0, 4.0, 2.0, 0.0, 0, score=0.9),
            BevBox(11.5, 0.0, 4.0, 2.0, 0.0, 0, score=0.8),
            BevBox(23.0, 0.0, 4.0, 2.0, 0.0, 0, score=0.7),
            BevBox(38.0, 0.0, 4.0, 2.0, 0.0, 0, score=0.6),
        ]
        report = average_recall(preds, gts)
        assert [report.per_threshold_recall[t] for t in (0.5, 1.0, 2.0, 4.0)] == [
            0.25, 0.25, 0.5, 0.75
        ]

        rng = RNG(105)
        cfg = RecallConfig(thresholds=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
        for _ in range(100):
            gts = [
                BevBox(float(rng.uniform(-15, 15)), float(rng.uniform(-15, 15)),
                       2.0, 1.0, 0.0, int(rng.integers(0, 3)))
                for _ in range(int(rng.integers(1, 10)))
            ]
            base = [
                BevBox(float(rng.uniform(-15, 15)), float(rng.uniform(-15, 15)),
                       2.0, 1.0, 0.0, int(rng.integers(0, 3)),
                       score=float(rng.random()))
                for _ in range(int(rng.integers(0, 8)))
            ]
            extra = base + [
                BevBox(float(rng.uniform(-15, 15)), float(rng.uniform(-15, 15)),
                       2.0, 1.0, 0.0, int(rng.integers(0, 3)),
                       score=float(rng.random()))
                for _ in range(int(rng.integers(1, 5)))
            ]
            small = average_recall(base, gts, cfg)
            grown = average_recall(extra, gts, cfg)
            per_t = [small.per_threshold_recall[t] for t in cfg.thresholds]
            assert all(b >= a for a, b in zip(per_t, per_t[1:]))
            for t in cfg.thresholds:
                assert grown.per_threshold_recall[t] >= small.per_threshold_recall[t]


def test_criterion_08_focal_loss_closed_forms():
    with criterion(8, "focal loss closed forms, stage sum, and finiteness"):
        spec = BevGridSpec(1, 1, 1, 1.0, 0.0, 0.0)

        def cell(value):
            arr = np.array([[[value]]], dtype=np.float32)
            return Heatmap(spec, arr)

        pos = gaussian_focal_loss(cell(0.5), cell(1.0))
        assert pos == pytest.approx(0.25 * math.log(2.0), abs=1e-9)
        neg = gaussian_focal_loss(cell(0.5), cell(0.5))
        assert neg == pytest.approx(0.0625 * 0.25 * math.log(2.0), abs=1e-9)

        rng = RNG(106)
        big = BevGridSpec(8, 8, 2, 1.0, 0.0, 0.0)
        preds, targets = [], []
        for _ in range(4):
            preds.append(Heatmap(big, rng.random(big.shape, dtype=np.float32)))
            tv = np.zeros(big.shape, dtype=np.float32)
            tv[0, int(rng.integers(8)), int(rng.integers(8))] = 1.0
            targets.append(Heatmap(big, tv))
        total = multi_stage_loss(preds, targets)
        assert total == sum(gaussian_focal_loss(p, t) for p, t in zip(preds, targets))

        for p_val in (0.0, 1.0):
            for t_val in (0.0, 1.0):
                val = gaussian_focal_loss(cell(p_val), cell(t_val), LossConfig())
                assert math.isfinite(val) and val >= 0.0


def test_criterion_09_geometry_kernels():
    with criterion(9, "pooling lattice, IoU rigid invariance, bilinear identity"):
        pts = box_pool_points(BevBox(0, 0, 7, 7, 0.0), BoxPoolConfig(7, 7, 1.0))
        ex, ey = np.meshgrid(np.arange(-3, 4), np.arange(-3, 4))
        expect = np.stack([ex.ravel(), ey.ravel()], axis=1).astype(np.float64)
        np.testing.assert_allclose(pts, expect, atol=1e-9)

        rng = RNG(107)
        for _ in range(100):
            a = BevBox(
                float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                float(rng.uniform(0.8, 4.0)), float(rng.uniform(0.8, 3.0)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            b = BevBox(
                float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                float(rng.uniform(0.8, 4.0)), float(rng.uniform(0.8, 3.0)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            pivot = (float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            angle = float(rng.uniform(-math.pi, math.pi))
            before = rotated_iou_bev(a, b)
            after = rotated_iou_bev(
                rotate_about(a, pivot, angle), rotate_about(b, pivot, angle)
            )
            assert after == pytest.approx(before, abs=1e-9)

        channel = rng.random((12, 9)).astype(np.float32)
        for _ in range(100):
            gx = int(rng.integers(0, 9))
            gy = int(rng.integers(0, 12))
            assert bilinear_sample(channel, float(gx), float(gy)) == float(
                channel[gy, gx]
            )


def test_criterion_10_cli_simulate_is_byte_deterministic(tmp_path):
    with criterion(10, "simulate CLI is byte-identical across reruns and --jobs"):
        cfg = reference_config_path()
        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["simulate", "--config", cfg, "--output-dir", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--output-dir", str(out_b)]) == 0
        assert main([
            "simulate", "--config", cfg, "--output-dir", str(out_c), "--jobs", "4",
        ]) == 0
        digests = digest_dir(out_a)
        assert digests  # sanity: the run produced artifacts
        assert set(digests) == {
            "summary.json", "recall_curve.svg",
            "recall_hip.csv", "recall_hip.json", "candidates_hip.jsonl",
            "recall_baseline.csv", "recall_baseline.json", "candidates_baseline.jsonl",
        }
        assert digest_dir(out_b) == digests
        assert digest_dir(out_c) == digests
