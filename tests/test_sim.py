import concurrent.futures
import json
import math
import pickle
import re
import sys
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bevprobe import sim
from bevprobe.bev_grid import (
    BevGridSpec,
    GaussianRenderConfig,
    Heatmap,
    draw_gaussian_peak,
    radius_for_box,
    render_gaussian_heatmap,
)
from bevprobe.errors import ConfigError, DataError, from_json, typed
from bevprobe.geometry import BevBox, BoxColumns, center_distance
from bevprobe.hip import CandidateColumns, HipConfig, MaskType
from bevprobe.metrics import RecallConfig
from bevprobe.sim import (
    ARM_BASELINE,
    ARM_PROBE,
    MAX_SCENE_CELLS,
    ClutterColumns,
    ClutterPeak,
    DetectabilityModel,
    ExperimentSetup,
    SceneParams,
    SyntheticScene,
    _clutter_free_cells,
    _RawStream,
    experiment_from_config,
    generate_scene,
    oracle_stage_heatmap,
    run_experiment,
    scene_from_dict,
    scene_seeds,
    scene_to_dict,
)


def make_spec(size=28, num_classes=2, cell=1.0):
    half = size * cell / 2.0
    return BevGridSpec(size, size, num_classes, cell, -half, -half)


def make_params(seed=7, spec=None, **kw):
    spec = spec or make_spec()
    defaults = dict(
        rng_seed=seed,
        num_objects_range=(4, 6),
        class_mix=(0.6, 0.4),
        size_table=((4.0, 2.0, 0.1), (0.8, 0.6, 0.1)),
        spec=spec,
        min_same_class_separation=6.0,
    )
    defaults.update(kw)
    return SceneParams(**defaults)


def make_model(**kw):
    defaults = dict(
        easy_fraction=0.5,
        easy_amplitude=1.0,
        hard_amplitude_range=(0.3, 0.55),
        clutter_peaks=40,
        clutter_amplitude_range=(0.25, 0.9),
        stage_gain=1.6,
        clutter_clearance=6.0,
        detect_eta=2.0,
    )
    defaults.update(kw)
    return DetectabilityModel(**defaults)


def make_setup(num_scenes=4, **kw):
    defaults = dict(
        params=make_params(),
        model=make_model(),
        hip_cfg=HipConfig(3, (4, 4, 4), MaskType.POOLING, frozenset({1})),
        baseline_cfg=HipConfig(1, (12,), MaskType.POINT),
        recall_cfg=RecallConfig(),
        num_scenes=num_scenes,
    )
    defaults.update(kw)
    return ExperimentSetup(**defaults)


class TestSceneParamsValidation:
    def test_valid(self):
        make_params()

    def test_class_mix_must_match_grid(self):
        with pytest.raises(ValueError, match="class_mix"):
            make_params(class_mix=(1.0,))

    def test_class_mix_sums_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            make_params(class_mix=(0.6, 0.6))

    def test_class_mix_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_params(class_mix=(1.2, -0.2))

    def test_size_table_shape(self):
        with pytest.raises(ValueError):
            make_params(size_table=((4.0, 2.0, 0.1),))
        with pytest.raises(ValueError, match="jitter"):
            make_params(size_table=((4.0, 2.0, 1.5), (0.8, 0.6, 0.1)))
        with pytest.raises(ValueError, match="positive"):
            make_params(size_table=((0.0, 2.0, 0.1), (0.8, 0.6, 0.1)))

    def test_objects_range_ordered(self):
        with pytest.raises(ValueError):
            make_params(num_objects_range=(6, 4))
        with pytest.raises(ValueError):
            make_params(num_objects_range=(-1, 4))

    def test_separation_positive(self):
        with pytest.raises(ValueError):
            make_params(min_same_class_separation=0.0)


class TestDetectabilityValidation:
    def test_valid(self):
        make_model()

    def test_easy_fraction_bounds(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                make_model(easy_fraction=bad)

    def test_hard_range_below_easy(self):
        with pytest.raises(ValueError):
            make_model(hard_amplitude_range=(0.5, 1.0))
        with pytest.raises(ValueError):
            make_model(hard_amplitude_range=(0.6, 0.4))
        with pytest.raises(ValueError):
            make_model(hard_amplitude_range=(0.0, 0.4))

    def test_clutter_range(self):
        with pytest.raises(ValueError):
            make_model(clutter_amplitude_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            make_model(clutter_amplitude_range=(0.5, 1.2))

    def test_positive_scalars(self):
        with pytest.raises(ValueError):
            make_model(stage_gain=0.0)
        with pytest.raises(ValueError):
            make_model(clutter_clearance=-1.0)
        with pytest.raises(ValueError):
            make_model(detect_eta=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="detect_eta must be finite and positive"):
                make_model(detect_eta=bad)
        with pytest.raises(ValueError):
            make_model(clutter_peaks=-1)


class TestGenerateScene:
    def test_deterministic_per_seed(self):
        params, model = make_params(seed=123), make_model()
        a = generate_scene(params, model)
        b = generate_scene(params, model)
        assert a == b
        c = generate_scene(make_params(seed=124), model)
        assert c != a

    def test_object_count_in_range(self):
        model = make_model()
        for seed in range(20):
            scene = generate_scene(make_params(seed=seed), model)
            assert 4 <= len(scene.gts) <= 6
            assert len(scene.amplitudes) == len(scene.gts)

    def test_same_class_separation_holds(self):
        model = make_model()
        for seed in range(20):
            scene = generate_scene(make_params(seed=seed), model)
            for i, a in enumerate(scene.gts):
                for b in scene.gts[i + 1:]:
                    if a.class_id == b.class_id:
                        assert center_distance(a, b) >= 6.0

    def test_clutter_clearance_holds(self):
        model = make_model()
        spec = make_spec()
        for seed in range(10):
            scene = generate_scene(make_params(seed=seed, spec=spec), model)
            assert len(scene.clutter) == 40
            for peak in scene.clutter:
                wx, wy = spec.grid_to_world((peak.x, peak.y))
                for g in scene.gts:
                    if g.class_id == peak.class_id:
                        assert math.hypot(wx - g.cx, wy - g.cy) >= 6.0

    def test_amplitudes_follow_model(self):
        model = make_model()
        seen_easy = seen_hard = False
        for seed in range(30):
            scene = generate_scene(make_params(seed=seed), model)
            for amp in scene.amplitudes:
                if amp == 1.0:
                    seen_easy = True
                else:
                    assert 0.3 <= amp <= 0.55
                    seen_hard = True
            for peak in scene.clutter:
                assert 0.25 <= peak.amplitude <= 0.9
        assert seen_easy and seen_hard

    def test_centers_inside_margin(self):
        spec = make_spec()
        scene = generate_scene(make_params(seed=5, spec=spec), make_model())
        for g in scene.gts:
            assert -13.0 <= g.cx <= 12.0
            assert -13.0 <= g.cy <= 12.0

    def test_degenerate_mix_yields_single_class(self):
        params = make_params(class_mix=(1.0, 0.0))
        scene = generate_scene(params, make_model())
        assert {g.class_id for g in scene.gts} == {0}

    def test_overdense_scene_rejected(self):
        params = make_params(
            spec=make_spec(10),
            num_objects_range=(8, 8),
            class_mix=(1.0, 0.0),
            min_same_class_separation=50.0,
        )
        with pytest.raises(DataError, match="could not place object"):
            generate_scene(params, make_model(clutter_peaks=0))

    def test_unplaceable_clutter_rejected(self):
        params = make_params(
            spec=make_spec(10, num_classes=1),
            num_objects_range=(1, 1),
            class_mix=(1.0,),
            size_table=((4.0, 2.0, 0.1),),
        )
        with pytest.raises(DataError, match="clutter"):
            generate_scene(params, make_model(clutter_peaks=1, clutter_clearance=100.0))

    def test_grid_too_small_for_margin(self):
        spec = BevGridSpec(2, 2, 2, 1.0, 0.0, 0.0)
        with pytest.raises(DataError, match="margin"):
            generate_scene(make_params(spec=spec), make_model())

    def test_amplitude_count_enforced(self):
        with pytest.raises(ValueError):
            SyntheticScene(
                gts=(BevBox(0, 0, 4, 2, 0.0, 0),), amplitudes=(), clutter=()
            )


def generate_scene_oracle(params, model):
    """generate_scene with clutter placed by a per-attempt scalar scan over
    the same-class centers, as written before the clearance table."""
    rng = np.random.default_rng(params.rng_seed)
    spec = params.spec
    margin = spec.cell_size
    x_lo = spec.origin_x + margin
    x_hi = spec.origin_x + (spec.size_x - 1) * spec.cell_size - margin
    y_lo = spec.origin_y + margin
    y_hi = spec.origin_y + (spec.size_y - 1) * spec.cell_size - margin
    if x_hi <= x_lo or y_hi <= y_lo:
        raise DataError("grid is too small to place objects inside a one-cell margin")
    lo, hi = params.num_objects_range
    count = int(rng.integers(lo, hi + 1))
    mix = np.asarray(params.class_mix, dtype=np.float64)
    mix = mix / mix.sum()
    min_sep = params.min_same_class_separation
    gts = []
    centers_by_class = {}
    for i in range(count):
        class_id = int(rng.choice(spec.num_classes, p=mix))
        mean_l, mean_w, jitter = params.size_table[class_id]
        length = max(0.05, mean_l * (1.0 + rng.uniform(-jitter, jitter)))
        width = max(0.05, mean_w * (1.0 + rng.uniform(-jitter, jitter)))
        yaw = float(rng.uniform(-np.pi, np.pi))
        taken = centers_by_class.setdefault(class_id, [])
        for _attempt in range(10_000):
            cx = float(rng.uniform(x_lo, x_hi))
            cy = float(rng.uniform(y_lo, y_hi))
            if all((cx - px) ** 2 + (cy - py) ** 2 >= min_sep * min_sep for px, py in taken):
                break
        else:
            raise DataError(f"could not place object {i} (class {class_id})")
        taken.append((cx, cy))
        gts.append(BevBox(cx, cy, length, width, yaw, class_id))
    amplitudes = []
    for _ in range(count):
        if rng.random() < model.easy_fraction:
            amplitudes.append(model.easy_amplitude)
        else:
            amplitudes.append(float(rng.uniform(*model.hard_amplitude_range)))
    clearance_sq = model.clutter_clearance ** 2
    clutter = []
    for i in range(model.clutter_peaks):
        for _attempt in range(10_000):
            x = int(rng.integers(spec.size_x))
            y = int(rng.integers(spec.size_y))
            class_id = int(rng.integers(spec.num_classes))
            wx, wy = spec.grid_to_world((x, y))
            near = centers_by_class.get(class_id, ())
            if all((wx - px) ** 2 + (wy - py) ** 2 >= clearance_sq for px, py in near):
                break
        else:
            raise DataError(f"could not place clutter peak {i}")
        amplitude = float(rng.uniform(*model.clutter_amplitude_range))
        clutter.append(ClutterPeak(x, y, class_id, amplitude))
    return SyntheticScene(tuple(gts), tuple(amplitudes), tuple(clutter))


@st.composite
def scene_setups(draw):
    num_classes = draw(st.integers(1, 3))
    size_x, size_y = draw(st.integers(3, 14)), draw(st.integers(3, 14))
    cell = draw(st.sampled_from([0.25, 0.5, 0.7, 1.0, 1.3]))
    origin = draw(st.floats(-10.0, 0.0, allow_nan=False).map(lambda v: round(v, 3)))
    spec = BevGridSpec(size_x, size_y, num_classes, cell, origin, origin * 0.9)
    weights = draw(st.lists(st.integers(0, 4), min_size=num_classes, max_size=num_classes))
    weights[draw(st.integers(0, num_classes - 1))] += 1
    lo = draw(st.integers(0, 5))
    params = SceneParams(
        rng_seed=draw(st.integers(0, 2**32 - 1)),
        num_objects_range=(lo, lo + draw(st.integers(0, 3))),
        class_mix=tuple(w / sum(weights) for w in weights),
        size_table=((4.0, 2.0, 0.1),) * num_classes,
        spec=spec,
        min_same_class_separation=draw(st.sampled_from([0.5, 1.0, 2.5, 6.0])),
    )
    model = make_model(
        clutter_peaks=draw(st.integers(0, 30)),
        clutter_clearance=draw(st.sampled_from([0.5, 1.0, 1.5, 3.0, 4.5, 6.0, 40.0])),
    )
    return params, model


def outcome(fn, params, model):
    """The scene, or DataError with its message cut before the attempt
    count and advice, which the oracle does not repeat."""
    try:
        return fn(params, model)
    except DataError as exc:
        return DataError, str(exc).split(" after ")[0]


class TestClutterTable:
    @settings(max_examples=150, deadline=None)
    @given(scene_setups())
    def test_property_equals_scalar_oracle(self, setup):
        params, model = setup
        assert outcome(generate_scene, params, model) == outcome(
            generate_scene_oracle, params, model
        )

    def test_built_only_when_clutter_is_drawn(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _clutter_free_cells(*args)

        monkeypatch.setattr(sim, "_clutter_free_cells", counted)
        assert len(generate_scene(make_params(), make_model(clutter_peaks=0)).clutter) == 0
        assert calls == []
        assert len(generate_scene(make_params(), make_model()).clutter) == 40
        assert len(calls) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(-4, 16), st.integers(-4, 16),
                      st.sampled_from([0.0, 0.25, 0.5, 0.123456789])),
            max_size=6,
        ),
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.7]),
    )
    def test_property_table_equals_scalar_test(self, placed, clearance):
        # Centers on lattice points hit the clearance boundary exactly.
        spec = BevGridSpec(13, 11, 3, 0.5, -3.0, -2.5)
        centers = {}
        for class_id, i, j, offset in placed:
            centers.setdefault(class_id, []).append(
                (spec.origin_x + i * 0.5 + offset, spec.origin_y + j * 0.5 - offset)
            )
        clearance_sq = clearance ** 2
        free = _clutter_free_cells(spec, centers, clearance_sq)
        for c in range(spec.num_classes):
            for y in range(spec.size_y):
                for x in range(spec.size_x):
                    wx, wy = spec.grid_to_world((x, y))
                    expected = all(
                        (wx - px) ** 2 + (wy - py) ** 2 >= clearance_sq
                        for px, py in centers.get(c, ())
                    )
                    assert free[c, y, x] == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_overdense_cases_raise_in_both(self, seed):
        params = make_params(
            seed=seed, spec=make_spec(10, num_classes=1), num_objects_range=(1, 2),
            class_mix=(1.0,), size_table=((4.0, 2.0, 0.1),),
        )
        model = make_model(clutter_peaks=3, clutter_clearance=40.0)
        expected = (DataError, "could not place clutter peak 0")
        assert outcome(generate_scene, params, model) == expected
        assert outcome(generate_scene_oracle, params, model) == expected


# One draw per entry: ("integers", n), ("random",), ("uniform", a, b) or
# ("choice", p). Bounds mix floats with ints past 2**53, whose difference
# numpy takes in doubles.
_bounds = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False), st.integers(-(2**60), 2**60)
)
stream_draws = st.lists(
    st.one_of(
        st.tuples(
            st.just("integers"),
            st.one_of(
                st.sampled_from([1, 2, 3, 112, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]),
                st.integers(1, 2**63 - 1),
            ),
        ),
        st.tuples(st.just("random")),
        st.tuples(st.just("uniform"), _bounds, _bounds).map(
            lambda t: (t[0], *sorted(t[1:]))
        ),
        st.tuples(
            st.just("choice"),
            st.lists(st.integers(0, 4), min_size=1, max_size=5)
            .filter(any)
            .map(lambda w: np.asarray(w, dtype=np.float64) / sum(w)),
        ),
    ),
    max_size=60,
)


def make_draw(source, name, *args):
    if name == "choice" and isinstance(source, np.random.Generator):
        value = source.choice(len(args[0]), p=args[0])
    else:
        value = getattr(source, name)(*args)
    return value.item() if isinstance(value, np.generic) else value


class TestRawStream:
    """The walker must make exactly the draws of ``Generator``: this is the
    tier-1 guard against a numpy change to PCG64 or its bounded integers."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        buffered=st.booleans(),
        block=st.integers(1, 5),
        draws=stream_draws,
    )
    # n == 1 draws nothing; 2**32 is a bare next_uint32; 2**31 + 1 rejects
    # about half its draws; a block of 1 refills on every word.
    @example(seed=0, buffered=False, block=1, draws=[("integers", 1), ("random",)] * 3)
    @example(seed=1, buffered=True, block=2, draws=[("integers", 2**32)] * 5 + [("random",)])
    @example(seed=2, buffered=True, block=3, draws=[("integers", 2**31 + 1)] * 40)
    # 2**53 + 3 rounds up to a double, so exact int subtraction would differ.
    @example(seed=3, buffered=True, block=1, draws=[("uniform", 1, 2**53 + 3)] * 3)
    def test_matches_generator(self, seed, buffered, block, draws):
        reference = np.random.default_rng(seed)
        source = np.random.default_rng(seed)
        if buffered:
            # An odd number of 32-bit draws leaves the high half buffered.
            reference.integers(7)
            source.integers(7)
        assert source.bit_generator.state["has_uint32"] == buffered
        walker = _RawStream(source.bit_generator, block)
        for name, *args in draws:
            assert make_draw(walker, name, *args) == make_draw(reference, name, *args), name
        assert walker.random() == reference.random()

    def test_rejects_other_bit_generators(self):
        with pytest.raises(TypeError, match="PCG64"):
            _RawStream(np.random.MT19937(0))


def two_object_scene():
    gts = (
        BevBox(0.0, 0.0, 4.0, 2.0, 0.0, 0),
        BevBox(8.0, 8.0, 4.0, 2.0, 0.0, 1),
    )
    return SyntheticScene(gts, (1.0, 0.4), ())


class TestOracleHeatmap:
    def test_unit_amplitudes_at_stage_0_render_the_ground_truth(self):
        # The oracle and render_gaussian_heatmap splat centers by one rule.
        spec = make_spec()
        gts = generate_scene(make_params(), make_model()).gts
        scene = SyntheticScene(gts, (1.0,) * len(gts), ())
        rendered, skipped = render_gaussian_heatmap(gts, spec)
        assert skipped == 0 and len(gts) >= 4
        oracle = oracle_stage_heatmap(scene, 0, frozenset(), make_model(), spec)
        np.testing.assert_array_equal(oracle.values, rendered.values)

    def test_easy_peak_hits_one_exactly(self):
        spec = make_spec()
        scene = two_object_scene()
        hm = oracle_stage_heatmap(scene, 0, frozenset(), make_model(), spec)
        gx, gy = spec.world_to_grid((0.0, 0.0))
        assert hm.values[0, round(gy), round(gx)] == 1.0

    def test_gain_one_is_stage_invariant(self):
        spec = make_spec()
        scene = two_object_scene()
        model = make_model(stage_gain=1.0)
        h0 = oracle_stage_heatmap(scene, 0, frozenset(), model, spec)
        h2 = oracle_stage_heatmap(scene, 2, frozenset(), model, spec)
        np.testing.assert_array_equal(h0.values, h2.values)

    def test_undetected_amplified_per_stage(self):
        spec = make_spec()
        scene = two_object_scene()
        model = make_model(stage_gain=1.5)
        h1 = oracle_stage_heatmap(scene, 1, frozenset(), model, spec)
        gx, gy = spec.world_to_grid((8.0, 8.0))
        assert h1.values[1, round(gy), round(gx)] == pytest.approx(0.6, abs=1e-6)

    def test_amplification_clamped_at_one(self):
        spec = make_spec()
        scene = two_object_scene()
        model = make_model(stage_gain=1.5)
        h4 = oracle_stage_heatmap(scene, 4, frozenset(), model, spec)
        gx, gy = spec.world_to_grid((8.0, 8.0))
        assert h4.values[1, round(gy), round(gx)] == 1.0

    def test_overflowing_gain_saturates(self):
        # 1e200 ** 2 overflows a float; a positive amplitude caps at 1, a zero one stays 0.
        spec = make_spec()
        scene = replace(two_object_scene(), amplitudes=(0.0, 0.4))
        h2 = oracle_stage_heatmap(scene, 2, frozenset(), make_model(stage_gain=1e200), spec)
        gx, gy = spec.world_to_grid((8.0, 8.0))
        assert h2.values[1, round(gy), round(gx)] == 1.0
        assert not h2.values[0].any()

    def test_detected_objects_keep_base_amplitude(self):
        spec = make_spec()
        scene = two_object_scene()
        model = make_model(stage_gain=1.5)
        h2 = oracle_stage_heatmap(scene, 2, {1}, model, spec)
        gx, gy = spec.world_to_grid((8.0, 8.0))
        assert h2.values[1, round(gy), round(gx)] == pytest.approx(0.4, abs=1e-6)

    def test_clutter_rendered_and_max_combined(self):
        spec = make_spec()
        scene = SyntheticScene(
            gts=(BevBox(0.0, 0.0, 4.0, 2.0, 0.0, 0),),
            amplitudes=(1.0,),
            clutter=(
                ClutterPeak(2, 3, 0, 0.7),
                ClutterPeak(*_center_cell(spec, 0.0, 0.0), 0, 0.2),
            ),
        )
        hm = oracle_stage_heatmap(scene, 0, frozenset(), make_model(), spec)
        assert hm.values[0, 3, 2] == pytest.approx(0.7, abs=1e-6)
        gx, gy = spec.world_to_grid((0.0, 0.0))
        # The weak clutter under the object peak must not dent it.
        assert hm.values[0, round(gy), round(gx)] == 1.0

    def test_negative_stage_rejected(self):
        with pytest.raises(ValueError):
            oracle_stage_heatmap(
                two_object_scene(), -1, frozenset(), make_model(), make_spec()
            )

    @pytest.mark.parametrize(
        "path, value, name",
        [
            (("gts", 0, "class_id"), -1, "ground truth 0 has class_id -1"),
            (("gts", 1, "class_id"), 2, "ground truth 1 has class_id 2"),
            (("clutter", 0, "class_id"), -1, "clutter peak 0 ClutterPeak(x=2, y=3, class_id=-1"),
            (("clutter", 1, "x"), -1, "clutter peak 1 ClutterPeak(x=-1, y=5"),
            (("clutter", 1, "y"), 28, "clutter peak 1 ClutterPeak(x=4, y=28"),
        ],
    )
    def test_index_outside_grid_rejected(self, path, value, name):
        # The record reader takes any integer; the oracle must not wrap it.
        scene = replace(
            two_object_scene(), clutter=(ClutterPeak(2, 3, 0, 0.5), ClutterPeak(4, 5, 1, 0.6))
        )
        record = scene_to_dict(scene)
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = scene_from_dict(record)
        with pytest.raises(ValueError, match=re.escape(name)):
            oracle_stage_heatmap(bad, 0, frozenset(), make_model(), make_spec())


def _center_cell(spec, wx, wy):
    gx, gy = spec.world_to_grid((wx, wy))
    return round(gx), round(gy)


def oracle_heatmap_loop(scene, stage, detected, model, spec):
    """oracle_stage_heatmap with clutter max-combined one peak at a time,
    as written before the scatter-max."""
    canvas = np.zeros(spec.shape, dtype=np.float64)
    for i, gt in enumerate(scene.gts):
        amp = scene.amplitudes[i]
        if i not in detected:
            amp = min(1.0, amp * model.stage_gain ** stage)
        gx, gy = spec.world_to_grid((gt.cx, gt.cy))
        radius = radius_for_box(gt.length, gt.width, spec, GaussianRenderConfig())
        draw_gaussian_peak(canvas[gt.class_id], int(round(gx)), int(round(gy)), radius, amp)
    for peak in scene.clutter:
        if peak.amplitude > canvas[peak.class_id, peak.y, peak.x]:
            canvas[peak.class_id, peak.y, peak.x] = peak.amplitude
    return Heatmap(spec, canvas)


def _clutter_cases():
    spec = make_spec()
    cx, cy = _center_cell(spec, 0.0, 0.0)
    return {
        "none": (),
        "same_cell": (ClutterPeak(2, 3, 1, 0.4), ClutterPeak(2, 3, 1, 0.7),
                      ClutterPeak(2, 3, 1, 0.5)),
        "under_gaussian_peak": (ClutterPeak(cx, cy, 0, 0.2),),
        "over_gaussian_tail": (ClutterPeak(cx + 1, cy, 0, 0.95), ClutterPeak(cx, cy + 1, 0, 0.3)),
    }


class TestClutterScatterMax:
    @pytest.mark.parametrize("stage", [0, 2])
    @pytest.mark.parametrize("case", sorted(_clutter_cases()))
    def test_equals_per_peak_loop(self, case, stage):
        spec, model = make_spec(), make_model(stage_gain=1.5)
        scene = replace(two_object_scene(), clutter=_clutter_cases()[case])
        got = oracle_stage_heatmap(scene, stage, {1}, model, spec).values
        expected = oracle_heatmap_loop(scene, stage, {1}, model, spec).values
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_scenes_equal_per_peak_loop(self, seed):
        spec, model = make_spec(), make_model()
        scene = generate_scene(make_params(seed=seed, spec=spec), model)
        for stage in range(3):
            got = oracle_stage_heatmap(scene, stage, {0}, model, spec).values
            expected = oracle_heatmap_loop(scene, stage, {0}, model, spec).values
            assert got.tobytes() == expected.tobytes()

    def test_scene_fields_are_columns_of_fixed_dtypes(self):
        # An empty clutter run keeps its intp index columns, so the oracle's
        # scatter-max indexes the canvas with it as with any other run.
        spec, model = make_spec(), make_model(clutter_peaks=0)
        scene = generate_scene(make_params(seed=9, spec=spec), model)
        assert isinstance(scene.gts, BoxColumns) and isinstance(scene.clutter, ClutterColumns)
        clutter = scene.clutter
        dtypes = [getattr(clutter, f).dtype for f in ("x", "y", "class_id", "amplitude")]
        assert len(clutter) == 0 and dtypes == [np.intp] * 3 + [np.float64]
        got = oracle_stage_heatmap(scene, 1, {0}, model, spec).values
        assert got.tobytes() == oracle_heatmap_loop(scene, 1, {0}, model, spec).values.tobytes()
        assert scene == replace(scene) and replace(scene).clutter is clutter


_BOX_ROW = st.tuples(
    st.floats(-12.0, 12.0), st.floats(-12.0, 12.0), st.floats(0.1, 6.0), st.floats(0.1, 6.0),
    st.floats(-10.0, 10.0), st.integers(0, 1),
)
_CLUTTER_ROW = st.tuples(
    st.integers(0, 27), st.integers(0, 27), st.integers(0, 1), st.floats(0.0, 1.0)
)


def columns_oracle(cls, records, path):
    """The per-record reader: one ``from_json`` row per record, whose
    integers within the float range read as floats in ``float`` fields, a
    64-bit bound on each ``int`` field, then ``.of``."""
    if not isinstance(records, list):
        raise DataError(f"{path}: expected a list, got {records!r}")
    hints = typing.get_type_hints(cls._record)
    ints = [name for name, tp in hints.items() if tp is int]
    rows = []
    for j, record in enumerate(records):
        if isinstance(record, dict):
            record = {k: float(v) if hints.get(k) is float and type(v) is int
                      and abs(v) <= sys.float_info.max else v for k, v in record.items()}
        row = from_json(cls._record, record, f"{path}[{j}]", DataError)
        for name in ints:
            v = getattr(row, name)
            if not -(2**63) <= v < 2**63:
                raise DataError(f"{path}[{j}].{name}: expected a 64-bit integer, got {v}")
        rows.append(row)
    return cls.of(rows)


# One per mutated record: a value written into a field, a deleted or an
# unknown key, or the whole record replaced by something that is no object.
RECORD_BAD_VALUES = [True, False, math.nan, math.inf, -math.inf, "0.3", "x", None,
                     2**63, -(2**63) - 1, 2**70]
RECORD_NON_OBJECTS = [None, 3, 2.5, "peak", [], [1, 2], True]


@st.composite
def mutated_record_lists(draw):
    cls = draw(st.sampled_from([BoxColumns, ClutterColumns]))
    rows = draw(st.lists(_BOX_ROW if cls is BoxColumns else _CLUTTER_ROW, max_size=5))
    records = [dict(zip(cls._fields, row)) for row in rows]
    for record in records:
        if cls is BoxColumns and draw(st.booleans()):  # yaw and class_id take defaults
            record.pop(draw(st.sampled_from(["yaw", "class_id"])))
    hit = draw(st.sets(st.sampled_from(range(len(records))), max_size=2)) if records else ()
    for j in sorted(hit):
        kind = draw(st.sampled_from(["value", "value", "value", "delete", "unknown", "replace"]))
        if kind == "replace":
            records[j] = draw(st.sampled_from(RECORD_NON_OBJECTS))
        elif kind == "unknown":
            records[j][draw(st.sampled_from(["note", "X", "yaww", "amplitudes"]))] = 0
        else:
            key = draw(st.sampled_from(sorted(records[j])))
            if kind == "delete":
                del records[j][key]
            else:
                records[j][key] = draw(st.sampled_from(RECORD_BAD_VALUES))
    return cls, records


def read_outcome(read, cls, records):
    try:
        return "ok", read(cls, records, "scene.rows")
    except DataError as exc:
        return "error", str(exc)


class TestSceneColumns:
    @settings(max_examples=300, deadline=None)
    @given(mutated_record_lists())
    @example((ClutterColumns, [{"x": 1, "y": 2, "class_id": 0, "amplitude": 0.5},
                               {"x": 2**70, "y": 2, "class_id": 0, "amplitude": 0.5}]))
    @example((BoxColumns, [{"cx": 0.0, "cy": 0.0, "length": 1.0, "width": 1.0, "note": 0}]))
    @example((BoxColumns, [{"cx": 0.0, "cy": 0.0, "length": -(2**63) - 1, "width": 1.0}]))
    def test_column_reader_matches_per_record_oracle(self, case):
        cls, records = case
        got = read_outcome(lambda *a: typed(*a, DataError), cls, records)
        assert got == read_outcome(columns_oracle, cls, records)
        if got[0] == "ok":
            assert [getattr(got[1], f).dtype for f in cls._fields] == list(cls._dtypes)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(_BOX_ROW, st.floats(0.0, 1.0)), max_size=6),
        st.lists(_CLUTTER_ROW, max_size=8),
    )
    def test_rows_and_columns_build_one_scene(self, objects, peaks):
        boxes = [box for box, _ in objects]
        amplitudes = tuple(a for _, a in objects)
        from_rows = SyntheticScene(
            tuple(BevBox(*box) for box in boxes), amplitudes, [ClutterPeak(*p) for p in peaks]
        )
        from_columns = SyntheticScene(
            BoxColumns(*(list(col) for col in zip(*boxes)) if boxes else ([],) * 6),
            amplitudes,
            ClutterColumns(*(list(col) for col in zip(*peaks)) if peaks else ([],) * 4),
        )
        assert from_rows == from_columns
        assert json.dumps(scene_to_dict(from_rows)) == json.dumps(scene_to_dict(from_columns))
        spec, model = make_spec(), make_model(stage_gain=1.5)
        for stage in (0, 2):
            a, b = (oracle_stage_heatmap(s, stage, {0}, model, spec).values
                    for s in (from_rows, from_columns))
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "path, value, name",
        [
            (("amplitudes", 0), 1.5, "scene.amplitudes entry 0 has amplitude 1.5"),
            (("amplitudes", 1), -0.25, "scene.amplitudes entry 1 has amplitude -0.25"),
            (("clutter", 0, "amplitude"), 1.7, "scene.clutter entry 0 has amplitude 1.7"),
            (("clutter", 2, "amplitude"), -0.1, "scene.clutter entry 2 has amplitude -0.1"),
        ],
    )
    def test_amplitude_outside_unit_range_rejected(self, path, value, name):
        record = scene_to_dict(generate_scene(make_params(seed=5), make_model(clutter_peaks=3)))
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(DataError, match=re.escape(f"invalid scene record: {name}, outside")):
            scene_from_dict(record)

    @pytest.mark.parametrize("value", [2**70, -(2**70), 2**63])
    @pytest.mark.parametrize(
        "path", [("clutter", 1, "x"), ("clutter", 1, "y"), ("clutter", 1, "class_id"),
                 ("gts", 0, "class_id")],
    )
    def test_integer_beyond_64_bits_names_its_field(self, path, value):
        record = scene_to_dict(generate_scene(make_params(seed=5), make_model(clutter_peaks=3)))
        record[path[0]][path[1]][path[2]] = value
        name = f"scene.{path[0]}[{path[1]}].{path[2]}: expected a 64-bit integer, got {value}"
        with pytest.raises(DataError, match=re.escape(f"invalid scene record: {name}")):
            scene_from_dict(record)

    def test_nan_amplitude_rejected_when_built(self):
        with pytest.raises(ValueError, match="amplitudes entry 1 has amplitude nan"):
            replace(two_object_scene(), amplitudes=(1.0, math.nan))
        with pytest.raises(ValueError, match="clutter entry 0 has amplitude nan"):
            replace(two_object_scene(), clutter=(ClutterPeak(2, 3, 0, math.nan),))


class TestSceneSerialization:
    def test_json_roundtrip_exact(self):
        scene = generate_scene(make_params(seed=42), make_model())
        text = json.dumps(scene_to_dict(scene))
        back = scene_from_dict(json.loads(text))
        assert back == scene

    def test_invalid_record(self):
        with pytest.raises(DataError, match="invalid scene record"):
            scene_from_dict({"gts": [{"cx": 0.0}], "amplitudes": [], "clutter": []})
        with pytest.raises(DataError):
            scene_from_dict({})

    @pytest.mark.parametrize(
        "path, value, name",
        [
            (("gts", 0, "cx"), "1.5", "scene.gts[0].cx"),
            (("gts", 0, "class_id"), 1.0, "scene.gts[0].class_id"),
            (("amplitudes", 0), math.nan, "scene.amplitudes[0]"),
            (("clutter", 0, "amplitude"), math.nan, "scene.clutter[0].amplitude"),
            (("clutter", 0, "x"), "3", "scene.clutter[0].x"),
        ],
    )
    def test_mistyped_field_rejected(self, path, value, name):
        record = scene_to_dict(generate_scene(make_params(seed=5), make_model(clutter_peaks=3)))
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(DataError, match=re.escape(f"invalid scene record: {name}:")):
            scene_from_dict(record)


class TestExperiment:
    def test_budgets_must_match(self):
        setup = make_setup(baseline_cfg=HipConfig(1, (11,), MaskType.POINT))
        with pytest.raises(ConfigError, match="equal candidate budgets"):
            run_experiment(setup)

    def test_jobs_validated(self):
        with pytest.raises(ConfigError, match="jobs"):
            run_experiment(make_setup(), jobs=0)

    def test_shapes_and_aggregates(self):
        setup = make_setup(num_scenes=4)
        result = run_experiment(setup)
        deltas = [o.delta for o in result.scenes]
        assert len(result.scenes) == 4
        assert [o.scene_id for o in result.scenes] == [
            "scene_0000", "scene_0001", "scene_0002", "scene_0003"
        ]
        assert setup.hip_cfg.total_k == setup.baseline_cfg.total_k == 12
        assert result.mean_delta == pytest.approx(sum(deltas) / 4, abs=1e-15)
        assert result.frac_nonneg_delta == sum(1 for d in deltas if d >= 0) / 4
        for arm in (ARM_PROBE, ARM_BASELINE):
            pooled = result.arms[arm].pooled
            assert pooled.num_gt == sum(
                o.reports[arm].num_gt for o in result.scenes
            )
        for o in result.scenes:
            assert o.delta == (
                o.reports[ARM_PROBE].mean_average_recall
                - o.reports[ARM_BASELINE].mean_average_recall
            )

    def test_probing_never_loses_at_equal_budget(self):
        # Separation and clearance both exceed the largest match threshold,
        # so a baseline hit stays a hit under probing and the per-scene
        # delta cannot go negative in this setup.
        result = run_experiment(make_setup(num_scenes=6))
        assert min(o.delta for o in result.scenes) >= 0.0
        assert result.arms[ARM_PROBE].mean_mar >= result.arms[ARM_BASELINE].mean_mar

    def test_deterministic_rerun(self):
        a = run_experiment(make_setup(num_scenes=3))
        b = run_experiment(make_setup(num_scenes=3))
        assert a == b

    def test_outcomes_survive_pickling(self):
        # Pool workers ship each SceneOutcome back pickled.
        for outcome in run_experiment(make_setup(num_scenes=2)).scenes:
            back = pickle.loads(pickle.dumps(outcome))
            assert back == outcome
            assert all(type(c) is CandidateColumns for c in back.candidates.values())

    def test_jobs_do_not_change_results(self):
        # Nine scenes make two chunks of eight, so a real two-worker pool runs.
        setup = make_setup(num_scenes=9)
        serial = run_experiment(setup, jobs=1)
        parallel = run_experiment(setup, jobs=3)
        assert serial == parallel

    @pytest.mark.parametrize(
        "num_scenes, jobs, workers",
        [(3, 64, None), (8, 2, None), (9, 64, 2), (17, 2, 2), (17, 3, 3), (25, 64, 4)],
    )
    def test_pool_starts_at_most_one_worker_per_chunk(
        self, monkeypatch, num_scenes, jobs, workers
    ):
        started = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor and runs the map in process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        setup = make_setup(num_scenes=num_scenes)
        result = run_experiment(setup, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert [o.scene_id for o in result.scenes] == [f"scene_{i:04d}" for i in range(num_scenes)]

    def test_scene_seeds_deterministic(self):
        a = scene_seeds(99, 8)
        b = scene_seeds(99, 8)
        assert a == b and len(a) == 8
        assert len(set(a)) == 8
        assert scene_seeds(100, 8) != a


def minimal_config():
    return {
        "rng_seed": 11,
        "num_scenes": 2,
        "grid": {
            "size_x": 28, "size_y": 28, "num_classes": 2,
            "cell_size": 1.0, "origin_x": -14.0, "origin_y": -14.0,
        },
        "scene": {
            "num_objects_range": [3, 5],
            "class_mix": [0.6, 0.4],
            "size_table": [[4.0, 2.0, 0.1], [0.8, 0.6, 0.1]],
            "min_same_class_separation": 6.0,
        },
        "detectability": {
            "easy_fraction": 0.5,
            "hard_amplitude_range": [0.3, 0.55],
            "clutter_peaks": 30,
            "clutter_amplitude_range": [0.25, 0.9],
            "stage_gain": 1.6,
            "clutter_clearance": 6.0,
        },
        "hip": {
            "num_stages": 2, "k_per_stage": [5, 5],
            "mask_type": "pooling", "small_classes": [1],
        },
        "baseline": {"num_stages": 1, "k_per_stage": [10], "mask_type": "point"},
    }


class TestExperimentFromConfig:
    def test_minimal_config_parses(self):
        setup = experiment_from_config(minimal_config())
        assert setup.num_scenes == 2
        assert setup.params.spec.size_x == 28
        assert setup.hip_cfg.mask_type is MaskType.POOLING
        assert setup.hip_cfg.small_classes == frozenset({1})
        assert setup.baseline_cfg.total_k == 10
        assert setup.recall_cfg == RecallConfig()
        assert setup.render_cfg == GaussianRenderConfig()
        run_experiment(setup)

    def test_missing_keys_named(self):
        for key in ("rng_seed", "num_scenes", "grid", "scene", "detectability", "hip", "baseline"):
            cfg = minimal_config()
            del cfg[key]
            with pytest.raises(ConfigError, match=key):
                experiment_from_config(cfg)

    def test_bad_mask_type(self):
        cfg = minimal_config()
        cfg["hip"]["mask_type"] = "blur"
        with pytest.raises(ConfigError, match="point, pooling, box"):
            experiment_from_config(cfg)

    def test_non_object_sections(self):
        cfg = minimal_config()
        cfg["grid"] = [1, 2, 3]
        with pytest.raises(ConfigError, match="grid"):
            experiment_from_config(cfg)
        with pytest.raises(ConfigError):
            experiment_from_config("not a dict")

    def test_nested_errors_carry_path(self):
        cfg = minimal_config()
        cfg["scene"]["min_same_class_separation"] = -1.0
        with pytest.raises(ConfigError, match="scene"):
            experiment_from_config(cfg)
        cfg = minimal_config()
        cfg["detectability"]["easy_fraction"] = 2.0
        with pytest.raises(ConfigError, match="detectability"):
            experiment_from_config(cfg)

    def test_unknown_keys_rejected(self):
        cfg = minimal_config()
        cfg["hip"]["krnel"] = 3
        with pytest.raises(ConfigError, match="hip"):
            experiment_from_config(cfg)

    def test_recall_and_render_overrides(self):
        cfg = minimal_config()
        cfg["recall"] = {"thresholds": [1.0, 2.0]}
        cfg["render"] = {"min_overlap": 0.2, "min_radius_cells": 1}
        setup = experiment_from_config(cfg)
        assert setup.recall_cfg.thresholds == (1.0, 2.0)
        assert setup.render_cfg.min_overlap == 0.2

    def test_grid_at_cell_ceiling_parses(self):
        cfg = minimal_config()
        cfg["grid"].update(size_x=MAX_SCENE_CELLS // 2 // 256, size_y=256)
        assert experiment_from_config(cfg).params.spec.size_x == 32768
        cfg["grid"]["size_x"] += 1
        with pytest.raises(ConfigError, match="ceiling"):
            experiment_from_config(cfg)

    def test_readme_schema_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Experiment config schema", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        setup = experiment_from_config(json.loads(block))
        assert setup.num_scenes == 200
        assert setup.hip_cfg.mask_type is MaskType.POOLING

    def test_packaged_reference_config_parses(self):
        from importlib import resources

        text = resources.files("bevprobe").joinpath("configs/reference.json").read_text()
        setup = experiment_from_config(json.loads(text))
        assert setup.num_scenes == 200
        assert setup.hip_cfg.total_k == setup.baseline_cfg.total_k == 600
