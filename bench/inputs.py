"""Seeded benchmark inputs, built with numpy and json only.

Nothing here imports bevprobe: the inputs a workload feeds the CLI depend
on the workload variant alone, so no change to the package can change
them. Each generator draws from its own ``SeedSequence([variant, tag])``
stream.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# probe_large: 3 stages of 10 classes x 1024 x 1024 cells at 0.2 m.
PROBE_STAGES = 3
PROBE_CLASSES = 10
PROBE_SIZE = 1024
PROBE_CELL = 0.2
PROBE_ORIGIN = -PROBE_SIZE * PROBE_CELL / 2.0
PROBE_OBJECTS = 3000
PROBE_STAGE_GAIN = 1.8
PROBE_NOISE_FLOOR = 0.05
PROBE_K = 2000
PROBE_BOX = (4.5, 2.0)

# audit_large: 100 scenes of 40-60 ground truths and ~500 predictions, so
# one CLI process takes a few seconds and a run holds several of them.
AUDIT_SCENES = 100
AUDIT_CLASSES = 10
AUDIT_EXTENT = 50.0
AUDIT_SIZES = (
    (4.6, 1.9), (7.0, 2.5), (10.5, 2.9), (12.0, 2.9), (6.5, 2.8),
    (2.2, 0.9), (2.0, 0.7), (0.8, 0.7), (0.5, 0.5), (0.4, 0.4),
)

_TAG_SIM, _TAG_PROBE, _TAG_AUDIT = 1, 2, 3


def _rng(variant: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([variant, tag]))


def sim_config(variant: int, num_scenes: int) -> dict:
    """The reference experiment's per-scene parameters with a variant seed.

    ``sim_config.json`` is the bench's own copy of the package's reference
    config, so editing the package's copy cannot change these inputs.
    """
    cfg = json.loads((HERE / "sim_config.json").read_text())
    cfg["rng_seed"] = int(_rng(variant, _TAG_SIM).integers(2**31))
    cfg["num_scenes"] = num_scenes
    return cfg


def probe_spec() -> dict:
    return {
        "size_x": PROBE_SIZE,
        "size_y": PROBE_SIZE,
        "num_classes": PROBE_CLASSES,
        "cell_size": PROBE_CELL,
        "origin_x": PROBE_ORIGIN,
        "origin_y": PROBE_ORIGIN,
    }


def _gaussian(radius: int) -> np.ndarray:
    sigma = radius / 3.0
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    return np.exp(-(ax[None, :] ** 2 + ax[:, None] ** 2) / (2.0 * sigma * sigma))


def probe_heatmaps(variant: int) -> list[np.ndarray]:
    """Stage heatmaps: Gaussian object peaks over a low uniform noise floor.

    Half the objects are easy (amplitude 0.7-1.0) and count as found by
    stage 0; the hard rest (0.1-0.4) brighten by ``PROBE_STAGE_GAIN`` per
    stage, capped at 1, the way a detector re-focuses on what it missed.
    """
    rng = _rng(variant, _TAG_PROBE)
    n = PROBE_OBJECTS
    cls = rng.integers(PROBE_CLASSES, size=n)
    radius = rng.integers(2, 8, size=n)
    xs = rng.integers(0, PROBE_SIZE, size=n)
    ys = rng.integers(0, PROBE_SIZE, size=n)
    easy = rng.random(n) < 0.5
    amp = np.where(easy, rng.uniform(0.7, 1.0, size=n), rng.uniform(0.1, 0.4, size=n))
    bumps = {int(r): _gaussian(int(r)) for r in np.unique(radius)}
    shape = (PROBE_CLASSES, PROBE_SIZE, PROBE_SIZE)
    stages = []
    for stage in range(PROBE_STAGES):
        canvas = rng.random(shape, dtype=np.float32) * np.float32(PROBE_NOISE_FLOOR)
        gain = np.where(easy, 1.0, PROBE_STAGE_GAIN ** stage)
        amp_s = np.minimum(1.0, amp * gain)
        for c, r, x, y, a in zip(cls.tolist(), radius.tolist(), xs.tolist(), ys.tolist(), amp_s.tolist()):
            x0, x1 = max(0, x - r), min(PROBE_SIZE, x + r + 1)
            y0, y1 = max(0, y - r), min(PROBE_SIZE, y + r + 1)
            window = bumps[r][y0 - (y - r) : y1 - (y - r), x0 - (x - r) : x1 - (x - r)]
            region = canvas[c, y0:y1, x0:x1]
            np.maximum(region, (a * window).astype(np.float32), out=region)
        stages.append(canvas)
    return stages


def write_bevgrid(path: Path, spec: dict, values: np.ndarray) -> None:
    """Write an f32 heatmap in the documented ``bevprobe-grid-v1`` format:
    one compact JSON header line, then the C-order [class][y][x] blob."""
    header = {
        "format": "bevprobe-grid-v1",
        "spec": spec,
        "dtype": "f32",
        "layout": "CYX",
        "endianness": "little",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes(order="C"))


def stage0_oracle(stage0: np.ndarray, k: int) -> list[tuple[int, int, int, float]]:
    """Top-k cells of an unmasked heatmap by a full sort.

    Order: score descending, then ascending (class, y, x), which is
    ascending flat C-order index. Returns (x, y, class_id, score) tuples.
    """
    flat = stage0.ravel()
    order = np.lexsort((np.arange(flat.size), -flat))[:k]
    c, rem = np.divmod(order, PROBE_SIZE * PROBE_SIZE)
    y, x = np.divmod(rem, PROBE_SIZE)
    return list(zip(x.tolist(), y.tolist(), c.tolist(), flat[order].astype(np.float64).tolist()))


def _boxes(rng: np.random.Generator, xy: np.ndarray, cls: np.ndarray) -> list[dict]:
    n = len(cls)
    sizes = np.asarray(AUDIT_SIZES)[cls] * rng.uniform(0.9, 1.1, size=(n, 2))
    yaw = rng.uniform(-np.pi, np.pi, size=n)
    cols = zip(
        np.round(xy, 4).tolist(), np.round(sizes, 4).tolist(), np.round(yaw, 4).tolist(), cls.tolist()
    )
    return [
        {"cx": cx, "cy": cy, "length": ln, "width": wd, "yaw": yw, "class_id": c}
        for (cx, cy), (ln, wd), yw, c in cols
    ]


def audit_dump(variant: int) -> tuple[dict, int]:
    """A detection dump and its total box count.

    Each scene has 40-60 ground truths and 480-520 scored predictions over
    10 classes. Half the predictions sit within about 1 m of a ground
    truth (90% with its class); the other half are uniform clutter.
    """
    rng = _rng(variant, _TAG_AUDIT)
    scenes = []
    boxes = 0
    for i in range(AUDIT_SCENES):
        n_gt = int(rng.integers(40, 61))
        n_pred = int(rng.integers(480, 521))
        n_near = n_pred // 2
        n_far = n_pred - n_near
        gt_xy = rng.uniform(-AUDIT_EXTENT, AUDIT_EXTENT, size=(n_gt, 2))
        gt_cls = rng.integers(AUDIT_CLASSES, size=n_gt)
        near = rng.integers(n_gt, size=n_near)
        near_cls = np.where(
            rng.random(n_near) < 0.9, gt_cls[near], rng.integers(AUDIT_CLASSES, size=n_near)
        )
        pred_xy = np.concatenate(
            [
                gt_xy[near] + rng.normal(0.0, 0.45, size=(n_near, 2)),
                rng.uniform(-AUDIT_EXTENT, AUDIT_EXTENT, size=(n_far, 2)),
            ]
        )
        pred_cls = np.concatenate([near_cls, rng.integers(AUDIT_CLASSES, size=n_far)])
        scores = np.concatenate(
            [rng.uniform(0.3, 1.0, size=n_near), rng.uniform(0.0, 0.6, size=n_far)]
        )
        preds = _boxes(rng, pred_xy, pred_cls)
        for box, score in zip(preds, np.round(scores, 4).tolist()):
            box["score"] = score
        gts = _boxes(rng, gt_xy, gt_cls)
        scenes.append({"scene_id": f"scene_{i:04d}", "predictions": preds, "ground_truth": gts})
        boxes += n_gt + n_pred
    return {"scenes": scenes}, boxes
