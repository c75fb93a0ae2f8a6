"""Property tests for the columnar audit path.

``load_detection_dump`` reads each list of box records into ``BoxColumns``
at once. It is compared with a per-record loader, kept here as an oracle:
on a valid dump with one record mutated, both must give the same boxes or
the same ``DataError`` text. The metrics must give equal
results on ``BoxColumns`` and on their ``BevBox`` rows.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bevprobe.cli import load_detection_dump, main
from bevprobe.errors import DataError
from bevprobe.geometry import BevBox, BoxColumns
from bevprobe.metrics import (
    RecallConfig,
    ap_center_distance,
    average_recall,
    classwise_recall,
    false_negative_indices,
)

_FLOAT_MAX = sys.float_info.max


FIELDS = ("cx", "cy", "length", "width", "yaw", "class_id", "score")
REQUIRED = FIELDS[:4]


def box_from_record_oracle(record, where):
    """The per-record reader: one ``BevBox`` per record, checked key by key."""
    if not isinstance(record, dict):
        raise DataError(f"{where}: expected an object, got {record!r}")
    for key in record:
        if key not in FIELDS:
            raise DataError(f"{where}.{key}: unknown key")
    kwargs = {}
    for name in FIELDS:
        if name not in record:
            if name in REQUIRED:
                raise DataError(f"{where}.{name}: required key is missing")
            continue
        value = record[name]
        if name == "class_id":
            if type(value) is not int:
                raise DataError(f"{where}.class_id: expected an integer, got {value!r}")
            if not -(2**63) <= value < 2**63:
                raise DataError(f"{where}.class_id: expected a 64-bit integer, got {value!r}")
        elif not (name == "score" and value is None):
            if type(value) not in (int, float) or not abs(value) <= _FLOAT_MAX:
                raise DataError(f"{where}.{name}: expected a finite number, got {value!r}")
            value = float(value)
        kwargs[name] = value
    try:
        return BevBox(**kwargs)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from exc


def load_detection_dump_oracle(path):
    """The per-record loader: lists of ``BevBox`` per scene, and then a
    score on every prediction."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not isinstance(raw.get("scenes"), list):
        raise DataError(f"{path}: expected an object with a 'scenes' list")
    scenes = []
    seen_ids = set()
    for i, scene in enumerate(raw["scenes"]):
        where = f"{path}: scenes[{i}]"
        if not isinstance(scene, dict):
            raise DataError(f"{where}: expected an object")
        scene_id = scene.get("scene_id")
        if not isinstance(scene_id, str) or not scene_id:
            raise DataError(f"{where}: missing or empty scene_id")
        if scene_id in seen_ids:
            raise DataError(f"{where}: duplicate scene_id {scene_id!r}")
        seen_ids.add(scene_id)
        preds_raw = scene.get("predictions")
        gts_raw = scene.get("ground_truth")
        if not isinstance(preds_raw, list) or not isinstance(gts_raw, list):
            raise DataError(f"{where} ({scene_id}): predictions and ground_truth must be lists")
        preds = [
            box_from_record_oracle(r, f"{where}.predictions[{j}]") for j, r in enumerate(preds_raw)
        ]
        gts = [
            box_from_record_oracle(r, f"{where}.ground_truth[{j}]") for j, r in enumerate(gts_raw)
        ]
        for j, box in enumerate(preds):
            if box.score is None:
                raise DataError(f"{where}.predictions[{j}].score: a prediction needs a score")
        scenes.append((scene_id, preds, gts))
    return scenes


# Valid field values: ints and floats, yaws far outside (-pi, pi], a yaw
# and a class id left out to take their defaults.
coords = st.one_of(st.integers(-50, 50), st.floats(-60.0, 60.0))
sizes = st.one_of(st.integers(1, 8), st.floats(0.05, 9.0))
valid_yaws = st.one_of(
    st.sampled_from([0, math.pi, -math.pi, 3 * math.pi, -0.0]), st.floats(-40.0, 40.0)
)


@st.composite
def box_records(draw, scored):
    record = {"cx": draw(coords), "cy": draw(coords), "length": draw(sizes), "width": draw(sizes)}
    if draw(st.booleans()):
        record["yaw"] = draw(valid_yaws)
    if draw(st.booleans()):
        record["class_id"] = draw(st.integers(-3, 9))
    if scored:
        record["score"] = draw(st.one_of(st.sampled_from([0, 1]), st.floats(0.0, 1.0)))
    return record


@st.composite
def dumps(draw):
    return {
        "scenes": [
            {
                "scene_id": f"s{i}",
                "predictions": draw(st.lists(box_records(True), max_size=4)),
                "ground_truth": draw(st.lists(box_records(False), max_size=4)),
            }
            for i in range(draw(st.integers(1, 3)))
        ]
    }


# Written into one field of one record, one group drawn first so each is
# hit often; NaN and the infinities reach the file as JSON NaN / Infinity,
# 10**309 as an integer past the float range.
BAD_VALUES = [
    ["0.3", "x", True, False, None, [], {}],
    [math.nan, math.inf, -math.inf],
    [2**53 + 1, 10**308, 10**309, -(10**309), 2**1024 - 2**970 - 1],
    [0, 0.0, -0.0, -1, -2.5, 1e-300],
    [1.5, -0.1, 1.0000001],
    [1e6, -1e6, 1e300, 7 * math.pi],
    [2.5, 2**63, -(2**63), 2**63 - 1, -(2**63) - 1],
]
NON_RECORDS = [None, 3, 2.5, "box", [], [1, 2], True]
UNKNOWN_KEYS = ["yaww", "note", "Score", ""]


@st.composite
def mutated_dumps(draw):
    dump = draw(dumps())
    slots = [
        (scene, role, j)
        for scene in dump["scenes"]
        for role in ("predictions", "ground_truth")
        for j in range(len(scene[role]))
    ]
    if not slots or not draw(st.integers(0, 9)):
        return dump
    scene, role, j = draw(st.sampled_from(slots))
    kind = draw(st.sampled_from(["value", "value", "value", "delete", "replace", "unknown"]))
    if kind == "replace":
        scene[role][j] = draw(st.sampled_from(NON_RECORDS))
    elif kind == "delete":
        scene[role][j].pop(draw(st.sampled_from(FIELDS)), None)
    elif kind == "unknown":
        scene[role][j][draw(st.sampled_from(UNKNOWN_KEYS))] = 0.0
    else:
        group = draw(st.sampled_from(BAD_VALUES))
        scene[role][j][draw(st.sampled_from(FIELDS))] = draw(st.sampled_from(group))
    return dump


RECORD = {"cx": 1.0, "cy": 2.0, "length": 4.0, "width": 2.0, "score": 0.5}


def one_record_dump(**fields):
    return {"scenes": [{"scene_id": "a", "ground_truth": [], "predictions": [{**RECORD, **fields}]}]}


def outcome(load, path):
    """repr of each scene's boxes, or the DataError text."""
    try:
        scenes = load(path)
    except DataError as exc:
        return "error", str(exc)
    return "ok", [(sid, repr(list(preds)), repr(list(gts))) for sid, preds, gts in scenes]


class TestColumnarLoader:
    @settings(max_examples=400, deadline=None)
    @given(dump=mutated_dumps())
    @example(dump=one_record_dump(cx=math.nan))
    @example(dump=one_record_dump(yaw=-math.inf))
    @example(dump=one_record_dump(cy=2**1024 - 2**970 - 1))
    @example(dump=one_record_dump(width=True))
    @example(dump=one_record_dump(class_id=2**63))
    @example(dump=one_record_dump(yaww=0.0))
    @example(dump={"scenes": [{"scene_id": "a", "predictions": [],
                               "ground_truth": [{**RECORD, "score": 1.5}]}]})
    @example(dump={"scenes": [{"scene_id": "a", "ground_truth": [], "predictions": [
        {k: v for k, v in RECORD.items() if k != "score"}, {**RECORD, "cx": "0.3"}]}]})
    def test_matches_per_record_oracle(self, tmp_path_factory, dump):
        path = Path(tmp_path_factory.mktemp("dump")) / "dump.json"
        path.write_text(json.dumps(dump))

        got = outcome(load_detection_dump, path)

        assert got == outcome(load_detection_dump_oracle, path)
        if got[0] == "ok":
            for (_, preds, gts), (_, want_p, want_g), scene in zip(
                load_detection_dump(path), load_detection_dump_oracle(path), dump["scenes"]
            ):
                assert isinstance(preds, BoxColumns) and isinstance(gts, BoxColumns)
                assert preds == BoxColumns.of(want_p) and gts == BoxColumns.of(want_g)
                unscored = [r.get("score") is None for r in scene["ground_truth"]]
                assert np.isnan(gts.score).tolist() == unscored

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("yaw", 10**309, "expected a finite number, got 1000"),
            ("cx", 2**1024 - 2**970 - 1, "expected a finite number"),
            ("class_id", 2**63, "expected a 64-bit integer, got 9223372036854775808"),
            ("class_id", 2.5, "expected an integer, got 2.5"),
            ("length", 0, "box footprint must be positive, got 0.0 x 2.0"),
            ("score", 1.5, "score must lie in [0, 1], got 1.5"),
        ],
    )
    def test_second_record_error_names_it(self, tmp_path, field, value, message):
        record = {"cx": 1.0, "cy": 2.0, "length": 4.0, "width": 2.0, "class_id": 1, "score": 0.5}
        dump = {"scenes": [{"scene_id": "a", "ground_truth": [],
                            "predictions": [dict(record), {**record, field: value}]}]}
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(dump))
        with pytest.raises(DataError) as exc_info:
            load_detection_dump(path)
        # A value of the wrong type names its field's key; a box rule, the record.
        key = f".{field}" if message.startswith("expected") else ""
        assert f"scenes[0].predictions[1]{key}: {message}" in str(exc_info.value)


@st.composite
def scenes_of_boxes(draw):
    """Predictions and ground truth on a half-meter lattice over 1-3
    classes, so thresholds and greedy ties are hit exactly."""
    num_classes = draw(st.integers(1, 3))
    coord = st.integers(-8, 8).map(lambda v: v * 0.5)

    def boxes(scored, max_size):
        return st.lists(
            st.builds(
                lambda cx, cy, c, s, yaw: BevBox(cx, cy, 4.0, 2.0, yaw, c, score=s),
                coord, coord, st.integers(0, num_classes - 1),
                st.floats(0.0, 1.0) if scored else st.none(), st.floats(-7.0, 7.0),
            ),
            max_size=max_size,
        )

    return draw(boxes(True, 14)), draw(boxes(False, 10))


class TestMetricsOnColumns:
    @settings(max_examples=300, deadline=None)
    @given(scene=scenes_of_boxes(), class_agnostic=st.booleans(),
           threshold=st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    def test_columns_and_rows_give_equal_results(self, scene, class_agnostic, threshold):
        pred_rows, gt_rows = scene
        preds, gts = BoxColumns.of(pred_rows), BoxColumns.of(gt_rows)
        cfg = RecallConfig(class_agnostic=class_agnostic)

        assert list(preds) == pred_rows and list(gts) == gt_rows
        for p, g in ((preds, gts), (preds, gt_rows), (pred_rows, gts)):
            assert average_recall(p, g, cfg) == average_recall(pred_rows, gt_rows, cfg)
            assert false_negative_indices(p, g, cfg) == false_negative_indices(
                pred_rows, gt_rows, cfg
            )
            assert classwise_recall(p, g, cfg) == classwise_recall(pred_rows, gt_rows, cfg)
            got = ap_center_distance(p, g, threshold, class_consistent=not class_agnostic)
            want = ap_center_distance(
                pred_rows, gt_rows, threshold, class_consistent=not class_agnostic
            )
            assert repr(got) == repr(want)


def fn_inventory_oracle(path, cfg):
    """fn_inventory.json's content built one record per false negative and
    threshold, from the loaded dump and ``false_negative_indices``."""
    inventory = []
    for scene_id, preds, gts in load_detection_dump(path):
        fns = false_negative_indices(preds, gts, cfg)
        for t in cfg.thresholds:
            records = []
            for j in fns[t]:
                g = gts[j]
                records.append({"index": j, "cx": g.cx, "cy": g.cy, "length": g.length,
                                "width": g.width, "yaw": g.yaw, "class_id": g.class_id})
            inventory.append({"scene_id": scene_id, "threshold": t, "false_negatives": records})
    return inventory


@st.composite
def near_miss_dumps(draw):
    """Dumps whose predictions sit at lattice offsets from some ground
    truths, so every threshold leaves a different set unmatched."""
    scenes = []
    for i in range(draw(st.integers(1, 3))):
        gts = draw(st.lists(box_records(False), max_size=8))
        preds = [
            {**g, "cx": g["cx"] + draw(st.sampled_from([0, 0.3, 0.8, 1.5, 3.0, 9.0])),
             "class_id": draw(st.sampled_from([g.get("class_id", 0), 0])),
             "score": draw(st.floats(0.0, 1.0))}
            for g in gts if draw(st.booleans())
        ]
        preds += draw(st.lists(box_records(True), max_size=3))
        scenes.append({"scene_id": f"s{i}", "predictions": preds, "ground_truth": gts})
    return {"scenes": scenes}


class TestFalseNegativeInventory:
    @settings(max_examples=150, deadline=None)
    @given(dump=near_miss_dumps(), class_agnostic=st.booleans(),
           thresholds=st.sampled_from(["0.5,1,2,4", "0.1,0.3,2", "1"]))
    def test_file_equals_per_record_oracle(self, tmp_path_factory, dump, class_agnostic,
                                           thresholds):
        tmp = Path(tmp_path_factory.mktemp("audit"))
        path = tmp / "dump.json"
        path.write_text(json.dumps(dump))
        argv = ["audit", "--dump", str(path), "--output-dir", str(tmp / "o"),
                "--thresholds", thresholds] + ["--class-agnostic"] * class_agnostic

        assert main(argv) == 0

        cfg = RecallConfig([float(t) for t in thresholds.split(",")], class_agnostic)
        want = json.dumps(fn_inventory_oracle(path, cfg), indent=2, sort_keys=True) + "\n"
        assert (tmp / "o" / "fn_inventory.json").read_text(encoding="utf-8") == want
