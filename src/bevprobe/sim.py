"""Synthetic BEV scenes and paired probing-vs-baseline experiments.

A scene is a set of ground-truth boxes, a per-object peak amplitude, and a
field of single-cell clutter peaks. An oracle detector renders stage
heatmaps directly from this state: every object splats a Gaussian at its
center with its amplitude as the peak, and objects that no candidate has
matched yet get their amplitude scaled by ``stage_gain ** stage`` (capped
at 1), modeling a detector that re-concentrates capacity on what it
missed once earlier detections are claimed by the positive masks.

Experiments run two arms per scene with equal candidate budget: a staged
probing arm and a single-pass baseline. Scene generation and both arms
are fully determined by the experiment seed; scenes are independent, so
runs may be parallelized across processes without changing any result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .assignment import MatchConfig, MatchMetric, classify_stage
from .bev_grid import BevGridSpec, GaussianRenderConfig, Heatmap, gaussian_radius, splat_centers
from .columns import RowColumns
from .errors import ConfigError, DataError, from_json
from .geometry import BoxColumns
from .hip import CandidateColumns, HipConfig, MaskType, run_hip
from .metrics import RecallConfig, RecallReport, average_recall, merge_reports

_PLACEMENT_ATTEMPTS = 10_000
_MIN_BOX_SIDE = 0.05  # meters; a drawn length or width is floored here
# Scene generation holds a boolean table and each render a float64 canvas
# of the grid's full size, so a simulated grid has at most 2**24 cells.
MAX_SCENE_CELLS = 1 << 24
# simulate holds every scene's seed and outcome at once.
MAX_SCENES = 1 << 24


@dataclass(frozen=True)
class SceneParams:
    """Scene population: how many objects, of what class and size, where.

    ``size_table[c]`` is (mean length, mean width, jitter fraction) for
    class c; sizes are drawn uniformly within +-jitter of the mean.
    ``class_mix`` must sum to 1. Objects of the same class keep at least
    ``min_same_class_separation`` meters between centers.
    """

    rng_seed: int
    num_objects_range: tuple[int, int]
    class_mix: tuple[float, ...]
    size_table: tuple[tuple[float, float, float], ...]
    spec: BevGridSpec
    min_same_class_separation: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_objects_range", tuple(int(n) for n in self.num_objects_range))
        object.__setattr__(self, "class_mix", tuple(float(p) for p in self.class_mix))
        object.__setattr__(
            self, "size_table", tuple(tuple(float(v) for v in row) for row in self.size_table)
        )
        lo, hi = self.num_objects_range
        if not 0 <= lo <= hi:
            raise ValueError(f"bad num_objects_range {self.num_objects_range}")
        # numpy's int64 bound; the count draw cannot terminate above 2**64.
        if hi >= 2**63:
            raise ValueError(f"num_objects_range must stay below 2**63, got {hi}")
        if len(self.class_mix) != self.spec.num_classes:
            raise ValueError("class_mix length must equal the grid's class count")
        if len(self.size_table) != self.spec.num_classes:
            raise ValueError("size_table length must equal the grid's class count")
        if any(p < 0.0 for p in self.class_mix):
            raise ValueError("class_mix entries must be non-negative")
        if abs(sum(self.class_mix) - 1.0) > 1e-9:
            raise ValueError(f"class_mix must sum to 1, got {sum(self.class_mix)}")
        for c, row in enumerate(self.size_table):
            if len(row) != 3:
                raise ValueError(f"size_table[{c}] must be (length, width, jitter)")
            l, w, j = row
            if not (l > 0.0 and w > 0.0):
                raise ValueError(f"size_table[{c}] mean footprint must be positive")
            if not 0.0 <= j < 1.0:
                raise ValueError(f"size_table[{c}] jitter must lie in [0, 1)")
        if not self.min_same_class_separation > 0.0:
            raise ValueError("min_same_class_separation must be positive")
        cells = self.spec.num_classes * self.spec.size_y * self.spec.size_x
        if cells > MAX_SCENE_CELLS:
            raise ValueError(
                f"grid.num_classes * grid.size_y * grid.size_x is {cells} cells, "
                f"above the simulator's ceiling of {MAX_SCENE_CELLS}"
            )
        # Object placement squares center offsets up to the grid's span.
        span_x = (self.spec.size_x - 1) * self.spec.cell_size
        span_y = (self.spec.size_y - 1) * self.spec.cell_size
        if not math.isfinite(span_x * span_x + span_y * span_y):
            raise ValueError(
                f"grid.size_x, grid.size_y and grid.cell_size span {span_x:g} x {span_y:g} m, "
                "whose squared diagonal is not finite"
            )


@dataclass(frozen=True)
class DetectabilityModel:
    """How visible each object is to the oracle detector, per stage.

    A fraction of objects is easy (amplitude ``easy_amplitude``); the rest
    draw a hard amplitude strictly below it. Clutter peaks are single-cell
    false responses kept at least ``clutter_clearance`` meters from any
    same-class object center. ``detect_eta`` is the center-distance by
    which a collected candidate counts as having found an object, which
    then stops receiving the stage gain.
    """

    easy_fraction: float
    easy_amplitude: float = 1.0
    hard_amplitude_range: tuple[float, float] = (0.2, 0.5)
    clutter_peaks: int = 0
    clutter_amplitude_range: tuple[float, float] = (0.2, 0.8)
    stage_gain: float = 1.0
    clutter_clearance: float = 4.5
    detect_eta: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "hard_amplitude_range", tuple(float(v) for v in self.hard_amplitude_range)
        )
        object.__setattr__(
            self, "clutter_amplitude_range", tuple(float(v) for v in self.clutter_amplitude_range)
        )
        if not 0.0 <= self.easy_fraction <= 1.0:
            raise ValueError(f"easy_fraction must lie in [0, 1], got {self.easy_fraction}")
        if not 0.0 < self.easy_amplitude <= 1.0:
            raise ValueError("easy_amplitude must lie in (0, 1]")
        lo, hi = self.hard_amplitude_range
        if not 0.0 < lo <= hi < self.easy_amplitude:
            raise ValueError(
                "hard_amplitude_range must satisfy 0 < lo <= hi < easy_amplitude"
            )
        if self.clutter_peaks < 0:
            raise ValueError("clutter_peaks must be non-negative")
        clo, chi = self.clutter_amplitude_range
        if not 0.0 < clo <= chi <= 1.0:
            raise ValueError("clutter_amplitude_range must lie within (0, 1]")
        if not self.stage_gain > 0.0:
            raise ValueError(f"stage_gain must be positive, got {self.stage_gain}")
        if not self.clutter_clearance > 0.0:
            raise ValueError("clutter_clearance must be positive")
        if not math.isfinite(self.clutter_clearance * self.clutter_clearance):
            raise ValueError(f"clutter_clearance {self.clutter_clearance:g} m has no finite square")
        if not 0.0 < self.detect_eta < math.inf:
            raise ValueError(f"detect_eta must be finite and positive, got {self.detect_eta}")


@dataclass(frozen=True)
class ClutterPeak:
    x: int
    y: int
    class_id: int
    amplitude: float


class ClutterColumns(RowColumns):
    """A run of clutter peaks held as one read-only numpy array per
    ``ClutterPeak`` field: intp ``x``, ``y`` and ``class_id`` and a float64
    ``amplitude``, so an empty run still indexes; see :class:`RowColumns`."""

    __slots__ = _fields = ("x", "y", "class_id", "amplitude")
    _dtypes = (np.intp, np.intp, np.intp, np.float64)
    _row = _record = ClutterPeak
    _noun = "clutter peaks"

    def __init__(self, x, y, class_id, amplitude) -> None:
        super().__init__(x, y, class_id, amplitude, dtypes=self._dtypes)


@dataclass(frozen=True)
class SyntheticScene:
    """Ground truth and clutter as columns, read from rows if given rows;
    every amplitude, of an object or of a clutter peak, lies in [0, 1]."""

    gts: BoxColumns
    amplitudes: tuple[float, ...]
    clutter: ClutterColumns

    def __post_init__(self) -> None:
        for name, kind in (("gts", BoxColumns), ("clutter", ClutterColumns)):
            object.__setattr__(self, name, kind.of(getattr(self, name)))
        if len(self.amplitudes) != len(self.gts):
            raise ValueError("one amplitude per ground-truth box is required")
        for name, values in (("amplitudes", self.amplitudes), ("clutter", self.clutter.amplitude)):
            for i, a in enumerate(np.asarray(values, dtype=np.float64).tolist()):
                if not 0.0 <= a <= 1.0:  # NaN fails too
                    raise ValueError(f"{name} entry {i} has amplitude {a!r}, outside [0, 1]")


class _RawStream:
    """``np.random.Generator`` draws walked from its PCG64 raw words.

    Scene generation makes thousands of scalar draws per scene, and each
    ``Generator`` method call costs microseconds. This walker pulls
    ``random_raw`` words in blocks and reproduces, bit for bit, the draws
    numpy makes from them:

    - ``next_uint32`` hands out the low half of a fresh word and keeps the
      high half for the next call (numpy's ``has_uint32``/``uinteger``);
    - ``integers(n)`` is Lemire's bounded method (ACM TOMACS 2019) with its
      rejection loop, on 32-bit draws for n <= 2**32 and 64-bit draws
      above, and draws nothing for n == 1;
    - ``random()`` is ``(word >> 11) * 2**-53``; it leaves the buffered
      half alone;
    - ``uniform(a, b)`` is ``a + (b - a) * random()``;
    - ``choice(p)`` searches one ``random()`` in the normalised cdf of
      ``p`` from the right, as ``Generator.choice(len(p), p=p)`` does.

    A tier-1 test runs it against ``Generator`` over mixed call sequences,
    so a change to these numpy internals fails loudly.
    """

    def __init__(self, bitgen: np.random.BitGenerator, block: int = 1024) -> None:
        if type(bitgen) is not np.random.PCG64:
            raise TypeError(f"expected a PCG64 bit generator, got {type(bitgen).__name__}")
        state = bitgen.state
        self._high = state["uinteger"] if state["has_uint32"] else None
        self.next_uint64 = self._words(bitgen, block).__next__

    @staticmethod
    def _words(bitgen: np.random.PCG64, block: int):
        while True:
            yield from bitgen.random_raw(block).tolist()

    def next_uint32(self) -> int:
        high = self._high
        if high is None:
            word = self.next_uint64()
            self._high = word >> 32
            return word & 0xFFFFFFFF
        self._high = None
        return high

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        wide = n > 1 << 32
        draw = self.next_uint64 if wide else self.next_uint32
        bits = 64 if wide else 32
        m = draw() * n
        if m & ((1 << bits) - 1) < n:
            threshold = ((1 << bits) - n) % n
            while m & ((1 << bits) - 1) < threshold:
                m = draw() * n
        return m >> bits

    def random(self) -> float:
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniform(self, a: float, b: float) -> float:
        # float(b) makes the subtraction a double one, as numpy's, for int bounds too.
        return a + (float(b) - a) * self.random()

    def choice(self, p: np.ndarray) -> int:
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        return int(cdf.searchsorted(self.random(), side="right"))


def _clutter_free_cells(
    spec: BevGridSpec,
    centers_by_class: dict[int, list[tuple[float, float]]],
    clearance_sq: float,
) -> np.ndarray:
    """Boolean [C][Y][X] table: may a clutter peak of class c sit at (x, y)?

    A cell is free when its world position keeps ``clearance_sq`` squared
    meters from every same-class object center, evaluated with the same
    float operations as a per-cell scalar test, so the table agrees with it
    cell for cell.
    """
    wx, wy = spec.grid_to_world((np.arange(spec.size_x), np.arange(spec.size_y)))
    free = np.ones(spec.shape, dtype=bool)
    for class_id, centers in centers_by_class.items():
        for px, py in centers:
            dist_sq = (wx[None, :] - px) ** 2 + (wy[:, None] - py) ** 2
            free[class_id] &= dist_sq >= clearance_sq
    return free


def generate_scene(params: SceneParams, model: DetectabilityModel) -> SyntheticScene:
    """Draw a scene deterministically from ``params.rng_seed``.

    Placement uses bounded rejection sampling; a scene too dense for its
    separation or clearance constraints raises DataError rather than
    looping forever.
    """
    rng = _RawStream(np.random.default_rng(params.rng_seed).bit_generator)
    spec = params.spec
    x_lo, y_lo = spec.grid_to_world((1, 1))  # one cell in from every edge
    x_hi, y_hi = spec.grid_to_world((spec.size_x - 1, spec.size_y - 1))
    x_hi, y_hi = x_hi - spec.cell_size, y_hi - spec.cell_size
    if x_hi <= x_lo or y_hi <= y_lo:
        raise DataError("grid is too small to place objects inside a one-cell margin")

    lo, hi = params.num_objects_range
    count = lo + rng.integers(hi - lo + 1)
    mix = np.asarray(params.class_mix, dtype=np.float64)
    mix = mix / mix.sum()
    min_sep = params.min_same_class_separation

    gts: tuple[list, ...] = ([], [], [], [], [], [])  # BoxColumns' fields up to class_id
    centers_by_class: dict[int, list[tuple[float, float]]] = {}
    for i in range(count):
        class_id = rng.choice(mix)
        mean_l, mean_w, jitter = params.size_table[class_id]
        length = max(_MIN_BOX_SIDE, mean_l * (1.0 + rng.uniform(-jitter, jitter)))
        width = max(_MIN_BOX_SIDE, mean_w * (1.0 + rng.uniform(-jitter, jitter)))
        yaw = rng.uniform(-np.pi, np.pi)
        taken = centers_by_class.setdefault(class_id, [])
        for _attempt in range(_PLACEMENT_ATTEMPTS):
            cx = rng.uniform(x_lo, x_hi)
            cy = rng.uniform(y_lo, y_hi)
            if all((cx - px) ** 2 + (cy - py) ** 2 >= min_sep * min_sep for px, py in taken):
                break
        else:
            raise DataError(
                f"could not place object {i} (class {class_id}) after "
                f"{_PLACEMENT_ATTEMPTS} attempts; lower the density or separation"
            )
        taken.append((cx, cy))
        for column, value in zip(gts, (cx, cy, length, width, yaw, class_id)):
            column.append(value)

    amplitudes = tuple(  # one random() per object, then a uniform() for a hard one
        model.easy_amplitude if rng.random() < model.easy_fraction
        else rng.uniform(*model.hard_amplitude_range) for _ in range(count)
    )

    clutter: tuple[list, ...] = ([], [], [], [])  # x, y, class_id, amplitude
    if model.clutter_peaks:
        free = _clutter_free_cells(spec, centers_by_class, model.clutter_clearance ** 2).tolist()
    for i in range(model.clutter_peaks):
        for _attempt in range(_PLACEMENT_ATTEMPTS):
            x = rng.integers(spec.size_x)
            y = rng.integers(spec.size_y)
            class_id = rng.integers(spec.num_classes)
            if free[class_id][y][x]:
                break
        else:
            raise DataError(
                f"could not place clutter peak {i} after {_PLACEMENT_ATTEMPTS} "
                "attempts; lower clutter_clearance or the object density"
            )
        amplitude = rng.uniform(*model.clutter_amplitude_range)
        for column, value in zip(clutter, (x, y, class_id, amplitude)):
            column.append(value)

    return SyntheticScene(BoxColumns(*gts), amplitudes, ClutterColumns(*clutter))


def oracle_stage_heatmap(
    scene: SyntheticScene,
    stage: int,
    detected_so_far: frozenset[int] | set[int],
    model: DetectabilityModel,
    spec: BevGridSpec,
    render_cfg: GaussianRenderConfig = GaussianRenderConfig(),
) -> Heatmap:
    """Render the heatmap the oracle detector would emit at one stage.

    Objects not yet detected have their peak scaled by
    ``stage_gain ** stage`` (capped at 1.0); detected objects keep their
    base amplitude. Clutter peaks are stage-independent single cells,
    max-combined with the Gaussians. A ground-truth class, or a clutter
    class or cell, outside the grid raises ValueError naming the object.
    """
    if stage < 0:
        raise ValueError(f"stage must be non-negative, got {stage}")
    clutter = scene.clutter
    cells = spec.flat_cells(clutter, "clutter peak")
    try:
        gain = model.stage_gain ** stage
    except OverflowError:  # amplitudes are capped at 1, so this gain saturates them
        gain = math.inf
    peaks = [  # a zero amplitude stays 0 at any gain
        a if i in detected_so_far or not a else min(1.0, a * gain)
        for i, a in enumerate(scene.amplitudes)
    ]
    canvas = np.zeros(spec.shape, dtype=np.float64)
    splat_centers(canvas, scene.gts, peaks, spec, render_cfg)
    np.maximum.at(canvas.reshape(-1), cells, clutter.amplitude)
    return Heatmap(spec, canvas)


def scene_to_dict(scene: SyntheticScene) -> dict:
    return {
        "gts": scene.gts.records(BoxColumns._fields[:-1]),  # ground truth has no score
        "amplitudes": list(scene.amplitudes),
        "clutter": scene.clutter.records(),
    }


def scene_from_dict(d: dict) -> SyntheticScene:
    """Read a scene record; a ``--save-scenes`` line's ``scene_id`` and
    ``seed`` keys are skipped."""
    if isinstance(d, dict):
        d = {k: v for k, v in d.items() if k not in ("scene_id", "seed")}
    try:
        return from_json(SyntheticScene, d, "scene", err=DataError)
    except DataError as exc:
        raise DataError(f"invalid scene record: {exc}") from exc


@dataclass(frozen=True)
class ExperimentSetup:
    """Everything one experiment needs, as parsed from a config file."""

    params: SceneParams
    model: DetectabilityModel
    hip_cfg: HipConfig
    baseline_cfg: HipConfig
    recall_cfg: RecallConfig
    num_scenes: int
    render_cfg: GaussianRenderConfig = GaussianRenderConfig()

    def __post_init__(self) -> None:
        if self.num_scenes < 1:
            raise ValueError("num_scenes must be at least 1")
        if self.num_scenes > MAX_SCENES:
            raise ValueError(
                f"num_scenes is {self.num_scenes}, above the simulator's ceiling of {MAX_SCENES}"
            )
        # A splat is drawn over its on-canvas window only, so it can be drawn if
        # radius_for_box can take int() of its radius; a class's largest box has the largest.
        spec, render = self.params.spec, self.render_cfg
        for c, (mean_l, mean_w, jitter) in enumerate(self.params.size_table):
            sides = (max(_MIN_BOX_SIDE, m * (1.0 + jitter)) for m in (mean_l, mean_w))
            r = gaussian_radius(*(s / spec.cell_size for s in sides), render.min_overlap)
            if not math.isfinite(r):
                raise ValueError(f"scene.size_table[{c}]: largest box has no finite splat radius")


@dataclass(frozen=True)
class SceneOutcome:
    scene_id: str
    seed: int
    reports: dict[str, RecallReport]
    candidates: dict[str, CandidateColumns]
    degenerate: dict[str, bool]
    delta: float


@dataclass(frozen=True)
class ArmSummary:
    mean_mar: float
    pooled: RecallReport


@dataclass(frozen=True)
class ExperimentResult:
    scenes: tuple[SceneOutcome, ...]
    arms: dict[str, ArmSummary]
    mean_delta: float
    frac_nonneg_delta: float


ARM_PROBE = "hip"
ARM_BASELINE = "baseline"
# Scenes a pool worker takes per task.
_SCENES_PER_CHUNK = 8


def _run_arm(
    scene: SyntheticScene, cfg: HipConfig, setup: ExperimentSetup
) -> tuple[CandidateColumns, bool]:
    """Run one arm's staged loop against the oracle detector."""
    model = setup.model
    spec = setup.params.spec
    detect_cfg = MatchConfig(MatchMetric.CENTER_DISTANCE, model.detect_eta)

    def source(stage: int, collected: CandidateColumns) -> Heatmap:
        detected = classify_stage(collected, scene.gts, detect_cfg).tp_gt if stage else frozenset()
        return oracle_stage_heatmap(scene, stage, detected, model, spec, setup.render_cfg)

    result = run_hip(source, cfg, spec)
    return result.columns, result.degenerate


def scene_for_seed(setup: ExperimentSetup, seed: int) -> SyntheticScene:
    """The scene an experiment draws from one of its per-scene seeds."""
    return generate_scene(replace(setup.params, rng_seed=seed), setup.model)


def _run_scene(setup: ExperimentSetup, index: int, seed: int) -> SceneOutcome:
    scene = scene_for_seed(setup, seed)
    reports, candidates, degenerate = {}, {}, {}  # SceneOutcome's three per-arm tables
    for arm, cfg in ((ARM_PROBE, setup.hip_cfg), (ARM_BASELINE, setup.baseline_cfg)):
        candidates[arm], degenerate[arm] = _run_arm(scene, cfg, setup)
        reports[arm] = average_recall(candidates[arm], scene.gts, setup.recall_cfg)
    delta = reports[ARM_PROBE].mean_average_recall - reports[ARM_BASELINE].mean_average_recall
    return SceneOutcome(f"scene_{index:04d}", seed, reports, candidates, degenerate, delta)


def scene_seeds(rng_seed: int, num_scenes: int) -> list[int]:
    """Per-scene seeds derived from the experiment seed."""
    return [int(s) for s in np.random.SeedSequence(rng_seed).generate_state(num_scenes)]


def run_experiment(setup: ExperimentSetup, jobs: int = 1) -> ExperimentResult:
    """Run the paired-arm experiment over ``setup.num_scenes`` scenes.

    Both arms must spend the same total candidate budget; anything else is
    an apples-to-oranges comparison and is rejected. Results are identical
    for any ``jobs`` value because scenes are independent and merged in
    scene order. At most one worker per chunk of 8 scenes is started, and
    a single worker runs in process.
    """
    if setup.hip_cfg.total_k != setup.baseline_cfg.total_k:
        raise ConfigError(
            f"arms must spend equal candidate budgets, got "
            f"{setup.hip_cfg.total_k} vs {setup.baseline_cfg.total_k}"
        )
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    n = setup.num_scenes
    args = (itertools.repeat(setup), range(n), scene_seeds(setup.params.rng_seed, n))
    # A pool starts all its workers at once, but map hands out only
    # ceil(n / chunk) chunks, so workers past that count would sit idle.
    workers = min(jobs, -(-n // _SCENES_PER_CHUNK))
    if workers == 1:
        outcomes = list(map(_run_scene, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_scene, *args, chunksize=_SCENES_PER_CHUNK))

    arms = {}
    for arm in (ARM_PROBE, ARM_BASELINE):
        arm_reports = [o.reports[arm] for o in outcomes]
        mean_mar = sum(r.mean_average_recall for r in arm_reports) / len(arm_reports)
        arms[arm] = ArmSummary(mean_mar, merge_reports(arm_reports, setup.recall_cfg))
    deltas = [o.delta for o in outcomes]
    return ExperimentResult(
        scenes=tuple(outcomes),
        arms=arms,
        mean_delta=sum(deltas) / n,
        frac_nonneg_delta=sum(1 for d in deltas if d >= 0.0) / n,
    )


@dataclass(frozen=True)
class _ConfigFile:
    """Top level of an experiment config file."""

    rng_seed: int
    num_scenes: int
    grid: BevGridSpec
    scene: dict  # read into SceneParams once the grid is known
    detectability: DetectabilityModel
    hip: HipConfig
    baseline: HipConfig
    recall: RecallConfig = RecallConfig()
    render: GaussianRenderConfig = GaussianRenderConfig()

    def __post_init__(self) -> None:
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed: expected a non-negative integer, got {self.rng_seed}")
        for arm in (ARM_PROBE, ARM_BASELINE):
            cfg: HipConfig = getattr(self, arm)
            if cfg.mask_type is MaskType.BOX:
                raise ValueError(
                    f"{arm}.mask_type: box masking needs predicted boxes, "
                    "which the simulator does not produce; use point or pooling"
                )
            n = self.grid.num_classes
            outside = sorted(c for c in cfg.small_classes if not 0 <= c < n)
            if outside:
                raise ValueError(f"{arm}.small_classes: ids must lie in [0, {n}), got {outside}")


def experiment_from_config(cfg: dict) -> ExperimentSetup:
    """Build an experiment from a plain-dict config (see README schema).

    Raises ConfigError naming the offending key for anything malformed.
    """
    top = from_json(_ConfigFile, cfg, "")
    params = from_json(SceneParams, top.scene, "scene", spec=top.grid, rng_seed=top.rng_seed)
    try:
        return ExperimentSetup(
            params=params,
            model=top.detectability,
            hip_cfg=top.hip,
            baseline_cfg=top.baseline,
            recall_cfg=top.recall,
            num_scenes=top.num_scenes,
            render_cfg=top.render,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
