import contextlib
import copy
import dataclasses
import functools
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevprobe import hip
from bevprobe.bev_grid import BevGridSpec, Heatmap, save_heatmap, write_grid_tensor
from bevprobe.cli import main
from bevprobe.errors import ConfigError
from bevprobe.geometry import BevBox
from bevprobe.hip import (
    HipConfig,
    MaskType,
    candidates_from_jsonl,
    load_accumulated_mask,
    run_hip,
)
from bevprobe.metrics import RecallConfig, average_recall, merge_reports, recall_report_to_dict
from bevprobe.sim import experiment_from_config, run_experiment, scene_from_dict

RNG = np.random.default_rng


def tiny_config():
    return {
        "rng_seed": 31,
        "num_scenes": 3,
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


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def digest_dir(path, exclude=("run_info.json",)):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file() and p.name not in exclude
    }


SIM_FILES = {
    "summary.json", "run_info.json", "recall_curve.svg",
    "recall_hip.csv", "recall_hip.json", "candidates_hip.jsonl",
    "recall_baseline.csv", "recall_baseline.json", "candidates_baseline.jsonl",
}


class TestSimulateCommand:
    def test_outputs_and_summary_match_library(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == SIM_FILES

        summary = json.loads((out / "summary.json").read_text())
        result = run_experiment(experiment_from_config(tiny_config()))
        assert summary["mean_delta"] == result.mean_delta
        assert summary["num_scenes"] == 3
        assert summary["total_budget"] == 10
        assert summary["frac_scenes_delta_nonneg"] == result.frac_nonneg_delta
        assert [s["delta"] for s in summary["per_scene"]] == list(result.deltas)
        for arm in ("hip", "baseline"):
            assert summary["arms"][arm]["pooled"] == recall_report_to_dict(
                result.arms[arm].pooled
            )
            lines = (out / f"candidates_{arm}.jsonl").read_text().splitlines()
            assert len(lines) == 3 * 10
            record = json.loads(lines[0])
            assert record["scene_id"] == "scene_0000"
            assert set(record) == {
                "scene_id", "stage", "x", "y", "class_id", "score", "world_x", "world_y"
            }

        svg = (out / "recall_curve.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polyline" in svg and "hip" in svg and "baseline" in svg

    def test_writes_candidates_without_building_rows(self, tmp_path, monkeypatch):
        # Candidates stay columns from top-k selection to the JSONL files.
        def no_rows(*args):
            raise AssertionError("a Candidate row was built")

        monkeypatch.setattr(hip, "Candidate", no_rows)
        cfg_path = write_config(tmp_path, tiny_config())
        assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 0

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(b)]) == 0
        assert digest_dir(a) == digest_dir(b)

    def test_jobs_flag_does_not_change_bytes(self, tmp_path):
        # Nine scenes make two chunks of eight, so --jobs 2 runs a real pool.
        cfg_path = write_config(tmp_path, {**tiny_config(), "num_scenes": 9})
        for extra in ([], ["--save-scenes"]):
            a, b = tmp_path / f"a{len(extra)}", tmp_path / f"b{len(extra)}"
            argv = ["simulate", "--config", str(cfg_path), *extra, "--output-dir"]
            assert main([*argv, str(a)]) == 0
            assert main([*argv, str(b), "--jobs", "2"]) == 0
            assert ("scenes.jsonl" in digest_dir(a)) == bool(extra)
            assert digest_dir(a) == digest_dir(b)

    def test_save_scenes(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        assert main([
            "simulate", "--config", str(cfg_path), "--output-dir", str(out), "--save-scenes",
        ]) == 0
        lines = (out / "scenes.jsonl").read_text().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            record = json.loads(line)
            assert record["scene_id"] == f"scene_{i:04d}"
            scene = scene_from_dict(record)
            assert len(scene.clutter) == 30

    def test_missing_config_is_config_error(self, tmp_path):
        code = main([
            "simulate", "--config", str(tmp_path / "nope.json"),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_malformed_config_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--output-dir", str(tmp_path / "o")]) == 2

    def test_unequal_budgets_rejected(self, tmp_path):
        cfg = tiny_config()
        cfg["baseline"]["k_per_stage"] = [9]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == 2

    def test_bad_scene_section(self, tmp_path):
        cfg = tiny_config()
        cfg["scene"]["class_mix"] = [0.6, 0.6]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("hip", "small_classes", ["a"]),
            (None, "num_scenes", "abc"),
            ("grid", "size_x", 50.5),
            (None, "rng_seed", None),
            (None, "rng_seed", -1),
            ("hip", "pooling_kernel", 2.5),
            ("detectability", "clutter_peaks", 10.5),
            ("hip", "num_stages", 2.0),
            ("baseline", "k_per_stage", [10.5]),
            ("scene", "num_objects_range", [3.5, 5]),
            ("render", "min_radius_cells", 2.5),
            ("grid", "origin_x", math.nan),
            ("grid", "cell_size", math.inf),
            ("scene", "size_table", [[math.inf, 2.0, 0.1], [0.8, 0.6, 0.1]]),
            ("grid", "cell_size", True),
            ("scene", "class_mix", [True, False]),
            ("recall", "class_agnostic", "yes"),
            ("recall", "thresholds", [1.0, math.inf]),
            ("detectability", "stage_gain", math.inf),
            (None, "unknown_section", {}),
            ("scene", "size_table", [4.0, 2.0]),
            ("hip", "k_per_stage", 5),
            ("hip", "small_classes", [7]),
            ("hip", "small_classes", [-1]),
            ("baseline", "small_classes", [2]),
            ("hip", "mask_type", "POINT"),
            ("grid", "cell_size", 1e298),
            ("detectability", "clutter_clearance", 1e200),
            ("render", "min_radius_cells", 1_000_000),
            ("scene", "size_table", [[1e7, 1e7, 0.1], [0.8, 0.6, 0.1]]),
            ("scene", "num_objects_range", [0, 10**30]),
        ],
    )
    def test_config_type_errors_name_the_key(self, tmp_path, capsys, section, key, value):
        cfg = tiny_config()
        (cfg.setdefault(section, {}) if section else cfg)[key] = value
        cfg_path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert (f"{section}.{key}" if section else key) in err
        assert "Traceback" not in err

    def test_oversized_grid_exits_2_before_allocating(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg["grid"]["size_x"] = cfg["grid"]["size_y"] = 1_000_000
        cfg_path = write_config(tmp_path, cfg)
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 1 << 20
        err = capsys.readouterr().err
        assert "grid.num_classes * grid.size_y * grid.size_x" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("arm", ["hip", "baseline"])
    def test_box_mask_rejected_at_parse_time(self, tmp_path, capsys, arm):
        cfg = tiny_config()
        cfg[arm]["mask_type"] = "box"
        with pytest.raises(ConfigError, match=f"{arm}.mask_type"):
            experiment_from_config(cfg)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{arm}.mask_type" in err and "Traceback" not in err


def stage_files(tmp_path, num_stages=2, seed=40, size=12, num_classes=2):
    spec = BevGridSpec(size, size, num_classes, 0.5, -3.0, -3.0)
    rng = RNG(seed)
    paths = []
    maps = []
    for s in range(num_stages):
        hm = Heatmap(spec, rng.random(spec.shape).astype(np.float32))
        path = tmp_path / f"stage{s}.bevgrid"
        save_heatmap(path, hm)
        paths.append(str(path))
        maps.append(hm)
    return spec, paths, maps


class TestProbeCommand:
    def test_matches_library_point_mode(self, tmp_path):
        spec, paths, maps = stage_files(tmp_path)
        out = tmp_path / "out"
        code = main([
            "probe", "--stage", paths[0], "--stage", paths[1],
            "--output-dir", str(out), "--k", "4",
        ])
        assert code == 0
        expected = run_hip(maps, HipConfig(2, (4, 4), MaskType.POINT), spec)
        got = candidates_from_jsonl((out / "candidates.jsonl").read_text())
        assert tuple(got) == expected.candidates
        acc = load_accumulated_mask(out / "mask_accumulated.bevgrid")
        np.testing.assert_array_equal(acc.bits, expected.accumulated_mask.bits)
        for trace in expected.traces:
            per_stage = load_accumulated_mask(out / f"mask_stage_{trace.stage}.bevgrid")
            np.testing.assert_array_equal(per_stage.bits, trace.positive_mask.bits)

    def test_pooling_and_small_classes(self, tmp_path):
        spec, paths, maps = stage_files(tmp_path)
        out = tmp_path / "out"
        code = main([
            "probe", "--stage", paths[0], "--stage", paths[1],
            "--output-dir", str(out), "--k-per-stage", "3,5",
            "--mask-type", "pooling", "--small-classes", "1", "--pooling-kernel", "3",
        ])
        assert code == 0
        cfg = HipConfig(2, (3, 5), MaskType.POOLING, frozenset({1}), 3)
        expected = run_hip(maps, cfg, spec)
        got = candidates_from_jsonl((out / "candidates.jsonl").read_text())
        assert tuple(got) == expected.candidates

    def test_box_mode_with_fixed_footprint(self, tmp_path):
        spec, paths, maps = stage_files(tmp_path)
        out = tmp_path / "out"
        code = main([
            "probe", "--stage", paths[0], "--stage", paths[1],
            "--output-dir", str(out), "--k", "3",
            "--mask-type", "box", "--box-length", "2.0", "--box-width", "1.0",
        ])
        assert code == 0

        def provider(cands):
            return [BevBox(c.world_x, c.world_y, 2.0, 1.0, 0.0, c.class_id) for c in cands]

        expected = run_hip(
            maps, HipConfig(2, (3, 3), MaskType.BOX), spec, box_provider=provider
        )
        got = candidates_from_jsonl((out / "candidates.jsonl").read_text())
        assert tuple(got) == expected.candidates
        acc = load_accumulated_mask(out / "mask_accumulated.bevgrid")
        np.testing.assert_array_equal(acc.bits, expected.accumulated_mask.bits)

    def test_flag_validation(self, tmp_path):
        spec, paths, _ = stage_files(tmp_path)
        out = str(tmp_path / "out")
        assert main(["probe", "--output-dir", out, "--k", "3"]) == 2
        assert main([
            "probe", "--stage", paths[0], "--output-dir", out,
        ]) == 2
        assert main([
            "probe", "--stage", paths[0], "--output-dir", out, "--k", "3",
            "--k-per-stage", "3",
        ]) == 2
        assert main([
            "probe", "--stage", paths[0], "--stage", paths[1],
            "--output-dir", out, "--k-per-stage", "3,4,5",
        ]) == 2
        assert main([
            "probe", "--stage", paths[0], "--output-dir", out, "--k", "3",
            "--mask-type", "box",
        ]) == 2
        assert main([
            "probe", "--stage", paths[0], "--output-dir", out, "--k", "0",
        ]) == 2
        assert main([
            "probe", "--stage", paths[0], "--output-dir", out, "--k", "3",
            "--mask-type", "pooling", "--pooling-kernel", "4",
        ]) == 2

    @pytest.mark.parametrize("ids,outside", [("99", "[99]"), ("-1", "[-1]"), ("1,2,-3", "[-3, 2]")])
    def test_small_classes_outside_grid_exit_2(self, tmp_path, capsys, ids, outside):
        _, paths, _ = stage_files(tmp_path, num_classes=2)
        out = tmp_path / "out"
        code = main([
            "probe", "--stage", paths[0], "--output-dir", str(out), "--k", "3",
            "--mask-type", "pooling", f"--small-classes={ids}",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--small-classes" in err and outside in err and "[0, 2)" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--box-length", "-1"),
        ("--box-length", "nan"),
        ("--box-length", "inf"),
        ("--box-width", "0"),
        ("--box-width", "-inf"),
    ])
    def test_bad_box_size_is_a_config_error(self, tmp_path, capsys, flag, value):
        _, paths, _ = stage_files(tmp_path)
        sizes = {"--box-length": "2.0", "--box-width": "1.0", flag: value}
        code = main([
            "probe", "--stage", paths[0], "--output-dir", str(tmp_path / "out"),
            "--k", "3", "--mask-type", "box",
            *(f"{name}={size}" for name, size in sizes.items()),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert flag in err
        assert "Traceback" not in err

    def test_grid_spanning_box_masks_the_whole_channel(self, tmp_path):
        spec, paths, _ = stage_files(tmp_path, num_stages=1)
        out = tmp_path / "out"
        code = main([
            "probe", "--stage", paths[0], "--output-dir", str(out), "--k", "1",
            "--mask-type", "box", "--box-length", "1e300", "--box-width", "1e300",
        ])
        assert code == 0
        (cand,) = candidates_from_jsonl((out / "candidates.jsonl").read_text())
        bits = load_accumulated_mask(out / "mask_accumulated.bevgrid").bits
        assert bits[cand.class_id].all()
        assert bits.sum() == spec.size_x * spec.size_y

    def test_nan_stage_file_is_a_data_error(self, tmp_path, capsys):
        spec = BevGridSpec(6, 6, 1, 0.5, 0.0, 0.0)
        values = np.zeros(spec.shape, dtype=np.float32)
        values[0, 2, 3] = np.nan
        bad = tmp_path / "nan.bevgrid"
        write_grid_tensor(bad, spec, values, "f32")
        code = main([
            "probe", "--stage", str(bad), "--output-dir", str(tmp_path / "out"), "--k", "3",
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert str(bad) in err
        assert "Traceback" not in err

    def test_missing_stage_file(self, tmp_path):
        code = main([
            "probe", "--stage", str(tmp_path / "missing.bevgrid"),
            "--output-dir", str(tmp_path / "out"), "--k", "3",
        ])
        assert code == 3

    def test_mismatched_stage_specs(self, tmp_path):
        _, paths_a, _ = stage_files(tmp_path, num_stages=1, size=12)
        spec_b = BevGridSpec(10, 10, 2, 0.5, -3.0, -3.0)
        other = tmp_path / "other.bevgrid"
        save_heatmap(other, Heatmap.zeros(spec_b))
        code = main([
            "probe", "--stage", paths_a[0], "--stage", str(other),
            "--output-dir", str(tmp_path / "out"), "--k", "3",
        ])
        assert code == 3

    def test_corrupt_stage_file(self, tmp_path):
        bad = tmp_path / "bad.bevgrid"
        bad.write_bytes(b"garbage, no header newline")
        code = main([
            "probe", "--stage", str(bad), "--output-dir", str(tmp_path / "out"), "--k", "3",
        ])
        assert code == 3


# Replacement values for the boundary fuzz; DELETE drops the key or entry.
DELETE = object()
FUZZ_POOL = [None, True, "x", math.nan, math.inf, -math.inf, -1, 0, 2.5, [], {}, DELETE]


# Values for each `probe` flag, valid and not; a flag may also be left out.
PROBE_FLAG_POOL = {
    "--k": ["1", "3", "100", "0", "-1", "2.5", "x", ""],
    "--k-per-stage": ["3,4", "1,100", "3", "3,4,5", "0,2", "-1,2", "a,b", ",", ""],
    "--mask-type": ["point", "pooling", "box", "POINT", "x"],
    "--small-classes": ["0", "1", "0,1", "2", "-1", "99", "x", ","],
    "--pooling-kernel": ["1", "3", "5", "13", "2", "0", "-3", "x"],
    "--box-length": ["2.0", "0.01", "1e300", "0", "-1", "nan", "inf", "x"],
    "--box-width": ["1.0", "0.01", "1e300", "0", "-inf", "nan", "x"],
}


def json_slots(node, path=()):
    """Paths to every key and list entry of a JSON tree, at any depth."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from json_slots(child, path + (key,))


def mutated(doc, slot, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in slot[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[slot[-1]]
    else:
        parent[slot[-1]] = value
    return doc


def run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestBoundaryFuzz:
    """One mutated key or entry must end in a clean exit, never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(
        slot=st.sampled_from(list(json_slots(tiny_config()))),
        value=st.sampled_from(FUZZ_POOL),
    )
    def test_mutated_config_exits_0_or_2(self, slot, value):
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "config.json"
            cfg_path.write_text(json.dumps(mutated(tiny_config(), slot, value)))
            code, err = run_quietly(
                ["simulate", "--config", str(cfg_path), "--output-dir", str(Path(tmp) / "o")]
            )
        assert code in (0, 2), err
        assert "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(
        field=st.sampled_from([f.name for f in dataclasses.fields(BevGridSpec)]),
        value=st.sampled_from(FUZZ_POOL),
    )
    def test_mutated_grid_header_exits_0_or_3(self, field, value):
        with tempfile.TemporaryDirectory() as tmp:
            _, (path,), _ = stage_files(Path(tmp), num_stages=1, size=6)
            header, blob = Path(path).read_bytes().split(b"\n", 1)
            doc = mutated(json.loads(header), ("spec", field), value)
            Path(path).write_bytes(json.dumps(doc).encode() + b"\n" + blob)
            out = Path(tmp) / "out"
            code, err = run_quietly(["probe", "--stage", path, "--output-dir", str(out), "--k", "3"])
            if code == 0:
                text = (out / "candidates.jsonl").read_text()
                assert "NaN" not in text and "Infinity" not in text
        assert code in (0, 3), err
        assert "Traceback" not in err

    @settings(max_examples=100, deadline=None)
    @given(flags=st.fixed_dictionaries({}, optional={
        flag: st.sampled_from(values) for flag, values in PROBE_FLAG_POOL.items()
    }))
    def test_random_probe_flags_exit_0_or_2(self, flags):
        with tempfile.TemporaryDirectory() as tmp:
            _, paths, _ = stage_files(Path(tmp), num_stages=2, size=6)
            argv = ["probe", "--stage", paths[0], "--stage", paths[1],
                    "--output-dir", str(Path(tmp) / "out")]
            argv += [f"{flag}={value}" for flag, value in flags.items()]
            try:
                code, err = run_quietly(argv)
            except SystemExit as exc:  # argparse rejects a bad value or choice
                code, err = exc.code, ""
        assert code in (0, 2), err
        assert "Traceback" not in err

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), value=st.sampled_from(FUZZ_POOL))
    def test_mutated_dump_exits_0_or_3(self, data, value):
        with tempfile.TemporaryDirectory() as tmp:
            path, dump = detection_dump(Path(tmp))
            slot = data.draw(st.sampled_from(list(json_slots(dump))), label="slot")
            path.write_text(json.dumps(mutated(dump, slot, value)))
            code, err = run_quietly(
                ["audit", "--dump", str(path), "--output-dir", str(Path(tmp) / "o")]
            )
        assert code in (0, 3), err
        assert "Traceback" not in err

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), value=st.sampled_from(FUZZ_POOL))
    def test_mutated_summary_exits_0_or_3(self, data, value):
        summary = simulated_summary()
        # Bias the draw toward the arms section, which is what report reads.
        root = data.draw(st.sampled_from([(), ("arms",)]), label="root")
        node = summary["arms"] if root else summary
        slot = root + data.draw(st.sampled_from(list(json_slots(node))), label="slot")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "summary.json"
            path.write_text(json.dumps(mutated(summary, slot, value)))
            code, err = run_quietly(
                ["report", "--summary", str(path), "--output-dir", str(Path(tmp) / "o")]
            )
        assert code in (0, 3), err
        assert "Traceback" not in err


@functools.cache
def _simulated_summary_text():
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = write_config(Path(tmp), tiny_config())
        assert main(["simulate", "--config", str(cfg_path), "--output-dir", tmp]) == 0
        return (Path(tmp) / "summary.json").read_text()


def simulated_summary():
    """A fresh copy of the tiny config's real simulate summary."""
    return json.loads(_simulated_summary_text())


def detection_dump(tmp_path):
    dump = {
        "scenes": [
            {
                "scene_id": "a",
                "predictions": [
                    {"cx": 0.3, "cy": 0.0, "length": 4.0, "width": 2.0,
                     "yaw": 0.0, "class_id": 0, "score": 0.9},
                    {"cx": 40.0, "cy": 0.0, "length": 4.0, "width": 2.0,
                     "yaw": 0.0, "class_id": 0, "score": 0.8},
                ],
                "ground_truth": [
                    {"cx": 0.0, "cy": 0.0, "length": 4.0, "width": 2.0,
                     "yaw": 0.0, "class_id": 0},
                    {"cx": 10.0, "cy": 0.0, "length": 4.0, "width": 2.0,
                     "yaw": 0.0, "class_id": 0},
                ],
            },
            {
                "scene_id": "b",
                "predictions": [
                    {"cx": 5.0, "cy": 1.5, "length": 0.8, "width": 0.6,
                     "yaw": 0.1, "class_id": 1, "score": 0.7},
                ],
                "ground_truth": [
                    {"cx": 5.0, "cy": 0.0, "length": 0.8, "width": 0.6,
                     "yaw": 0.1, "class_id": 1},
                ],
            },
        ]
    }
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    return path, dump


def dump_boxes(dump):
    scenes = []
    for scene in dump["scenes"]:
        preds = [BevBox(p["cx"], p["cy"], p["length"], p["width"], p["yaw"],
                        p["class_id"], score=p["score"]) for p in scene["predictions"]]
        gts = [BevBox(g["cx"], g["cy"], g["length"], g["width"], g["yaw"],
                      g["class_id"]) for g in scene["ground_truth"]]
        scenes.append((preds, gts))
    return scenes


class TestAuditCommand:
    def test_outputs_match_library(self, tmp_path):
        path, dump = detection_dump(tmp_path)
        out = tmp_path / "out"
        assert main(["audit", "--dump", str(path), "--output-dir", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {
            "recall.csv", "recall.json", "fn_inventory.json", "classwise_recall.svg",
        }
        cfg = RecallConfig()
        pooled = merge_reports(
            [average_recall(p, g, cfg) for p, g in dump_boxes(dump)], cfg
        )
        assert json.loads((out / "recall.json").read_text()) == recall_report_to_dict(pooled)
        csv_text = (out / "recall.csv").read_text()
        assert csv_text.splitlines()[0] == "scope,class,threshold,recall,num_gt,num_matched"
        assert csv_text.splitlines()[1].startswith("overall,*,0.5,")

        inventory = json.loads((out / "fn_inventory.json").read_text())
        by_key = {(r["scene_id"], r["threshold"]): r["false_negatives"] for r in inventory}
        # Scene a: gt 1 is never matched; gt 0 (0.3 m off) matches everywhere.
        assert [fn["index"] for fn in by_key[("a", 0.5)]] == [1]
        assert [fn["index"] for fn in by_key[("a", 1.0)]] == [1]
        assert [fn["index"] for fn in by_key[("a", 4.0)]] == [1]
        # Scene b: the 1.5 m offset pred matches only at 2 m and up.
        assert [fn["index"] for fn in by_key[("b", 1.0)]] == [0]
        assert by_key[("b", 2.0)] == []
        svg = (out / "classwise_recall.svg").read_text()
        assert svg.startswith("<svg") and "rect" in svg

    def test_threshold_flag(self, tmp_path):
        path, dump = detection_dump(tmp_path)
        out = tmp_path / "out"
        assert main([
            "audit", "--dump", str(path), "--output-dir", str(out),
            "--thresholds", "1,3",
        ]) == 0
        report = json.loads((out / "recall.json").read_text())
        assert sorted(report["per_threshold_recall"]) == ["1.0", "3.0"]

    def test_class_agnostic_flag(self, tmp_path):
        dump = {
            "scenes": [{
                "scene_id": "x",
                "predictions": [{"cx": 0.1, "cy": 0.0, "length": 1.0, "width": 1.0,
                                 "yaw": 0.0, "class_id": 1, "score": 0.9}],
                "ground_truth": [{"cx": 0.0, "cy": 0.0, "length": 1.0, "width": 1.0,
                                  "yaw": 0.0, "class_id": 0}],
            }]
        }
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(dump))
        strict_out, loose_out = tmp_path / "strict", tmp_path / "loose"
        assert main(["audit", "--dump", str(path), "--output-dir", str(strict_out)]) == 0
        assert main([
            "audit", "--dump", str(path), "--output-dir", str(loose_out), "--class-agnostic",
        ]) == 0
        strict = json.loads((strict_out / "recall.json").read_text())
        loose = json.loads((loose_out / "recall.json").read_text())
        assert strict["mean_average_recall"] == 0.0
        assert loose["mean_average_recall"] == 1.0

    def test_bad_threshold_flags(self, tmp_path, capsys):
        path, _ = detection_dump(tmp_path)
        out = str(tmp_path / "out")
        # 1e400 parses to infinity, which no threshold may be.
        for flag in ("abc", "2,1", "inf", "1,inf", "1e400", "", ","):
            assert main(["audit", "--dump", str(path), "--output-dir", out,
                         "--thresholds", flag]) == 2, flag
            err = capsys.readouterr().err
            assert "--thresholds" in err and "Traceback" not in err
        assert "--thresholds: at least one distance threshold is required" in err

    @pytest.mark.filterwarnings("error")
    def test_far_apart_centers_never_match_without_a_warning(self, tmp_path):
        # The centers' difference overflows to an infinite distance.
        box = {"cy": 0.0, "length": 4.0, "width": 2.0, "yaw": 0.0, "class_id": 0}
        dump = {"scenes": [{
            "scene_id": "a",
            "predictions": [{"cx": 1e308, "score": 0.9, **box}],
            "ground_truth": [{"cx": -1e308, **box}],
        }]}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(dump))
        out = tmp_path / "o"
        assert main(["audit", "--dump", str(path), "--output-dir", str(out)]) == 0
        recall = json.loads((out / "recall.json").read_text())
        assert recall["num_gt"] == 1 and set(recall["num_matched"].values()) == {0}

    def test_malformed_dumps(self, tmp_path):
        out = str(tmp_path / "out")

        def run_with(payload):
            path = tmp_path / "dump.json"
            path.write_text(json.dumps(payload))
            return main(["audit", "--dump", str(path), "--output-dir", out])

        assert run_with({"not_scenes": []}) == 3
        assert run_with({"scenes": []}) == 3
        assert run_with({"scenes": [{"scene_id": "a", "predictions": [],
                                     "ground_truth": {}}]}) == 3
        assert run_with({"scenes": [
            {"scene_id": "a", "predictions": [], "ground_truth": []},
            {"scene_id": "a", "predictions": [], "ground_truth": []},
        ]}) == 3
        # A prediction without a score is not auditable.
        assert run_with({"scenes": [{
            "scene_id": "a",
            "predictions": [{"cx": 0, "cy": 0, "length": 1, "width": 1}],
            "ground_truth": [],
        }]}) == 3
        assert run_with({"scenes": [{
            "scene_id": "a",
            "predictions": [],
            "ground_truth": [{"cx": 0, "cy": 0, "length": -1, "width": 1}],
        }]}) == 3
        assert run_with({"scenes": [{
            "scene_id": "a",
            "predictions": [],
            "ground_truth": [{"cx": 0, "cy": 0, "length": 1, "width": 1, "class_id": math.inf}],
        }]}) == 3

    @pytest.mark.parametrize(
        "role, field, value",
        [
            ("predictions", "cx", math.nan),
            ("predictions", "cy", math.inf),
            ("ground_truth", "length", math.inf),
            ("ground_truth", "yaw", math.nan),
            ("predictions", "cx", "0.3"),
            ("ground_truth", "cy", True),
            ("predictions", "score", "0.9"),
            ("ground_truth", "class_id", 2.5),
            ("ground_truth", "class_id", False),
            ("predictions", "class_id", 10**30),
        ],
    )
    def test_non_finite_fields_rejected(self, tmp_path, capsys, role, field, value):
        _, dump = detection_dump(tmp_path)
        dump["scenes"][1][role][0][field] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(dump))
        assert main(["audit", "--dump", str(path), "--output-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"scenes[1].{role}[0] (b)" in err
        assert repr(field) in err
        assert "Traceback" not in err

    def test_integer_coordinates_print_as_floats(self, tmp_path):
        _, dump = detection_dump(tmp_path)
        dump["scenes"][0]["ground_truth"][1].update(cx=10, cy=0)
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(dump))
        out = tmp_path / "o"
        assert main(["audit", "--dump", str(path), "--output-dir", str(out)]) == 0
        (fn,) = json.loads((out / "fn_inventory.json").read_text())[0]["false_negatives"]
        assert (fn["cx"], fn["cy"]) == (10.0, 0.0)
        assert type(fn["cx"]) is float and type(fn["cy"]) is float

    def test_missing_dump_file(self, tmp_path):
        assert main([
            "audit", "--dump", str(tmp_path / "nope.json"),
            "--output-dir", str(tmp_path / "out"),
        ]) == 3


class TestReportCommand:
    def test_rebuilds_same_curve(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(sim_out)]) == 0
        rep_out = tmp_path / "rep"
        assert main([
            "report", "--summary", str(sim_out / "summary.json"),
            "--output-dir", str(rep_out),
        ]) == 0
        assert (rep_out / "recall_curve.svg").read_bytes() == (
            sim_out / "recall_curve.svg"
        ).read_bytes()
        csv_lines = (rep_out / "recall_summary.csv").read_text().splitlines()
        assert csv_lines[0] == "scope,class,threshold,recall,num_gt,num_matched"
        scopes = {line.split(",")[0] for line in csv_lines[1:]}
        assert scopes == {"hip", "baseline"}

    @pytest.mark.parametrize(
        "slot, value, named",
        [
            ((), [1, 2], "expected an object"),
            (("per_threshold_recall",), [0.5], "arms.hip.pooled.per_threshold_recall"),
            (("per_threshold_recall", "x"), 0.5, "arms.hip.pooled.per_threshold_recall: key 'x'"),
            (("per_threshold_recall", "inf"), 0.5, "arms.hip.pooled.per_threshold_recall: key"),
            (("per_threshold_recall", "1.0"), "a", "arms.hip.pooled.per_threshold_recall.1.0"),
            (("per_threshold_recall", "2.0"), math.nan, "arms.hip.pooled.per_threshold_recall.2.0"),
            (("per_threshold_recall", "4.0"), 10**400, "arms.hip.pooled.per_threshold_recall.4.0"),
            (("num_matched",), [8], "arms.hip.pooled.num_matched"),
            (("num_matched", "4.0"), 2.5, "arms.hip.pooled.num_matched.4.0"),
            (("num_gt",), "11", "arms.hip.pooled.num_gt"),
            (("num_gt",), True, "arms.hip.pooled.num_gt"),
            (("num_matched", "4.0"), DELETE, "arms.hip.pooled.num_matched.4.0"),
            (("num_matched", "8.0"), 3, "arms.hip.pooled.num_matched.8.0"),
            (("per_threshold_recall",), {}, "arms.hip.pooled.per_threshold_recall"),
        ],
    )
    def test_malformed_summary_exits_3(self, tmp_path, capsys, slot, value, named):
        summary = simulated_summary()
        if slot:
            summary = mutated(summary, ("arms", "hip", "pooled") + slot, value)
        else:
            summary = value
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(summary))
        assert main(["report", "--summary", str(path), "--output-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "matched, code, expect",
        [
            ({"num_matched": {"1": 3}}, 0, "hip,*,1.0,0.5,6,3"),
            ({}, 0, "hip,*,1.0,0.5,6,0"),
            ({"num_matched": {"1.0": 3}}, 3, "arms.hip.pooled.num_matched.1:"),
            ({"num_matched": {}}, 3, "arms.hip.pooled.num_matched.1:"),
            ({"per_threshold_recall": {}}, 3,
             "arms.hip.pooled.per_threshold_recall: expected at least one threshold"),
        ],
    )
    def test_num_matched_read_by_recall_key(self, tmp_path, capsys, matched, code, expect):
        pooled = {"per_threshold_recall": {"1": 0.5}, "num_gt": 6, **matched}
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"arms": {"hip": {"pooled": pooled}}}))
        assert main(["report", "--summary", str(path), "--output-dir", str(tmp_path / "o")]) == code
        if code == 0:
            rows = (tmp_path / "o" / "recall_summary.csv").read_text().splitlines()
            assert rows[1:] == [expect]
        else:
            err = capsys.readouterr().err
            assert expect in err and "Traceback" not in err

    def test_summary_without_arms(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"mean_delta": 0.5}))
        assert main(["report", "--summary", str(path), "--output-dir", str(tmp_path / "o")]) == 3

    def test_missing_summary(self, tmp_path):
        assert main([
            "report", "--summary", str(tmp_path / "nope.json"),
            "--output-dir", str(tmp_path / "o"),
        ]) == 3


class TestEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bevprobe.cli", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "audit" in proc.stdout

    @pytest.mark.parametrize("run", [False, True])
    def test_cli_does_not_import_scipy(self, tmp_path, run):
        # In a fresh interpreter: this process has scipy loaded already.
        argv = ["simulate", "--help"]
        if run:
            cfg_path = write_config(tmp_path, tiny_config())
            argv = ["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")]
        code = (
            "import sys\n"
            "from bevprobe.cli import main\n"
            "try:\n"
            f"    code = main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "assert code == 0, code\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_console_script_help(self):
        import shutil

        exe = shutil.which("bevprobe")
        if exe is None:
            pytest.skip("console script not on PATH in this environment")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "probe" in proc.stdout
