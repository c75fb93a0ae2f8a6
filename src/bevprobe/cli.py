"""Command-line interface: simulate, probe, audit, report.

Every command writes deterministic artifacts: rerunning with the same
inputs reproduces every output byte for byte (the run_info.json sidecar
records tool versions and is exempt). Exit codes: 0 success, 2 for
configuration problems, 3 for bad input data.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .bev_grid import load_heatmap
from .errors import BevProbeError, ConfigError, DataError, typed
from .geometry import BevBox
from .hip import HipConfig, MaskType, encode_compact_json, run_hip, save_mask
from .metrics import (
    RecallConfig,
    average_recall,
    false_negative_indices,
    merge_reports,
    recall_report_rows,
    recall_report_to_dict,
    write_recall_csv,
    write_recall_json,
)
from .sim import (
    ARM_BASELINE, ARM_PROBE, experiment_from_config, run_experiment, scene_for_seed, scene_to_dict,
)
from .svg import grouped_bar_chart, line_chart


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_json(path: Path, obj) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: Path, what: str, err=DataError) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise err(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise err(f"{path}: malformed JSON: {exc}") from exc


def _run_info() -> dict:
    from importlib.metadata import version

    import numpy

    return {
        "tool": "bevprobe",
        "version": __version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
    }


def _parse_list(text: str, flag: str, kind: type, noun: str) -> list:
    """The non-blank comma-separated entries of ``text`` read by ``kind``."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: expected comma-separated {noun}, got {text!r}") from exc


def _recall_curve_points(pooled: dict, where: str) -> list[tuple[float, float, str]]:
    """Sorted (threshold, recall, key) points of a pooled report read from
    JSON; no threshold at all, a key that is not a finite number or a
    recall that is not one raises DataError naming it under ``where``."""
    where = f"{where}.per_threshold_recall"
    per_thr = typed(dict, pooled["per_threshold_recall"], where, DataError)
    if not per_thr:
        raise DataError(f"{where}: expected at least one threshold")
    pts = []
    for key, recall in per_thr.items():
        try:
            t = float(key)
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise DataError(f"{where}: key {key!r} is not a finite number")
        pts.append((t, float(typed(float, recall, f"{where}.{key}", DataError)), key))
    return sorted(pts)


def _write_recall_curve(out: Path, series: dict[str, list[tuple[float, float]]]) -> None:
    """Draw recall_curve.svg; `simulate` and `report` both write it here."""
    _write_text(
        out / "recall_curve.svg",
        line_chart(
            series,
            title="Pooled recall vs match distance",
            x_label="match distance threshold (m)",
            y_label="recall",
        ),
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _read_json(Path(args.config), "experiment config", err=ConfigError)
    setup = experiment_from_config(cfg)
    result = run_experiment(setup, jobs=args.jobs)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    per_scene = []
    for outcome in result.scenes:
        per_scene.append(
            {
                "scene_id": outcome.scene_id,
                "seed": outcome.seed,
                "delta": outcome.delta,
                "hip_mar": outcome.reports[ARM_PROBE].mean_average_recall,
                "baseline_mar": outcome.reports[ARM_BASELINE].mean_average_recall,
                "degenerate": dict(sorted(outcome.degenerate.items())),
            }
        )
    summary = {
        "arms": {
            arm: {
                "mean_mar": result.arms[arm].mean_mar,
                "pooled": recall_report_to_dict(result.arms[arm].pooled),
            }
            for arm in (ARM_PROBE, ARM_BASELINE)
        },
        "mean_delta": result.mean_delta,
        "frac_scenes_delta_nonneg": result.frac_nonneg_delta,
        "num_scenes": result.num_scenes,
        "total_budget": result.total_budget,
        "thresholds": list(setup.recall_cfg.thresholds),
        "per_scene": per_scene,
    }
    _write_json(out / "summary.json", summary)
    _write_json(out / "run_info.json", _run_info())

    for arm in (ARM_PROBE, ARM_BASELINE):
        pooled = result.arms[arm].pooled
        write_recall_csv(out / f"recall_{arm}.csv", recall_report_rows(pooled, scope=arm))
        write_recall_json(out / f"recall_{arm}.json", pooled)
        _write_text(
            out / f"candidates_{arm}.jsonl",
            "".join(o.candidates[arm].to_jsonl(o.scene_id) for o in result.scenes),
        )

    # Sorted arm order keeps the chart byte-identical with `report`.
    series = {}
    for arm in sorted((ARM_PROBE, ARM_BASELINE)):
        pts = _recall_curve_points(summary["arms"][arm]["pooled"], f"arms.{arm}.pooled")
        series[arm] = [(t, r) for t, r, _key in pts]
    _write_recall_curve(out, series)
    if args.save_scenes:
        scene_lines = []
        for outcome in result.scenes:
            scene = scene_for_seed(setup, outcome.seed)
            record = {"scene_id": outcome.scene_id, "seed": outcome.seed, **scene_to_dict(scene)}
            scene_lines.append(encode_compact_json(record))
        _write_text(out / "scenes.jsonl", "".join(l + "\n" for l in scene_lines))
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    stage_paths = args.stage
    if not stage_paths:
        raise ConfigError("at least one --stage heatmap is required")
    num_stages = len(stage_paths)
    if args.k is not None and args.k_per_stage is not None:
        raise ConfigError("--k and --k-per-stage are mutually exclusive")
    if args.k is not None:
        budgets = [args.k] * num_stages
    elif args.k_per_stage is not None:
        budgets = _parse_list(args.k_per_stage, "--k-per-stage", int, "integers")
        if len(budgets) != num_stages:
            raise ConfigError(
                f"--k-per-stage lists {len(budgets)} budgets for {num_stages} stage files"
            )
    else:
        raise ConfigError("one of --k or --k-per-stage is required")
    mtype = MaskType(args.mask_type)
    small = frozenset(_parse_list(args.small_classes or "", "--small-classes", int, "integers"))
    if mtype is MaskType.BOX:
        if args.box_length is None or args.box_width is None:
            raise ConfigError("box masking requires --box-length and --box-width")
        for flag, size in (("--box-length", args.box_length), ("--box-width", args.box_width)):
            if not (math.isfinite(size) and size > 0.0):
                raise ConfigError(f"{flag} must be a finite positive number, got {size}")
    try:
        cfg = HipConfig(
            num_stages=num_stages,
            k_per_stage=tuple(budgets),
            mask_type=mtype,
            small_classes=small,
            pooling_kernel=args.pooling_kernel,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    heatmaps = [load_heatmap(p) for p in stage_paths]
    spec = heatmaps[0].spec
    for path, hm in zip(stage_paths, heatmaps):
        if hm.spec != spec:
            raise DataError(f"{path}: grid spec differs from {stage_paths[0]}")
    outside = sorted(c for c in small if not 0 <= c < spec.num_classes)
    if outside:
        raise ConfigError(
            f"--small-classes: ids must lie in [0, {spec.num_classes}) of the loaded grid, "
            f"got {outside}"
        )

    box_provider = None
    if mtype is MaskType.BOX:
        def box_provider(cands):
            return [
                BevBox(c.world_x, c.world_y, args.box_length, args.box_width, 0.0, c.class_id)
                for c in cands
            ]

    result = run_hip(heatmaps, cfg, spec, box_provider=box_provider)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "candidates.jsonl", result.columns.to_jsonl())
    for trace in result.traces:
        save_mask(out / f"mask_stage_{trace.stage}.bevgrid", trace.positive_mask)
    save_mask(out / "mask_accumulated.bevgrid", result.accumulated_mask)
    return 0


_FLOAT_MAX = sys.float_info.max


def _box_from_record(record, where: str, scored: bool) -> BevBox:
    if not isinstance(record, dict):
        raise DataError(f"{where}: expected an object, got {type(record).__name__}")
    try:
        kwargs = {
            "cx": record["cx"],
            "cy": record["cy"],
            "length": record["length"],
            "width": record["width"],
            "yaw": record.get("yaw", 0.0),
        }
        if scored:
            kwargs["score"] = record["score"]
    except KeyError as exc:
        raise DataError(f"{where}: missing field {exc.args[0]!r}") from exc
    for name, value in kwargs.items():
        # Exact types: JSON true/false parse as bool, a subclass of int.
        if type(value) not in (int, float) or not abs(value) <= _FLOAT_MAX:
            raise DataError(f"{where}: field {name!r} must be a finite number, got {value!r}")
        kwargs[name] = float(value)
    class_id = record.get("class_id", 0)
    if type(class_id) is not int or not -(2**63) <= class_id < 2**63:
        raise DataError(f"{where}: field 'class_id' must be a 64-bit integer, got {class_id!r}")
    try:
        return BevBox(**kwargs, class_id=class_id)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from exc


def load_detection_dump(path: Path) -> list[tuple[str, list[BevBox], list[BevBox]]]:
    """Parse and validate a detection dump file.

    Format: {"scenes": [{"scene_id", "predictions", "ground_truth"}]} with
    box records carrying cx, cy, length, width, yaw, class_id and (for
    predictions) score. Problems raise DataError naming the scene and
    record.
    """
    raw = _read_json(path, "detection dump")
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
            _box_from_record(r, f"{where}.predictions[{j}] ({scene_id})", scored=True)
            for j, r in enumerate(preds_raw)
        ]
        gts = [
            _box_from_record(r, f"{where}.ground_truth[{j}] ({scene_id})", scored=False)
            for j, r in enumerate(gts_raw)
        ]
        scenes.append((scene_id, preds, gts))
    return scenes


def cmd_audit(args: argparse.Namespace) -> int:
    try:
        recall_cfg = RecallConfig(
            _parse_list(args.thresholds, "--thresholds", float, "numbers"),
            class_agnostic=args.class_agnostic,
        )
    except ValueError as exc:
        raise ConfigError(f"--thresholds: {exc}") from exc
    scenes = load_detection_dump(Path(args.dump))
    if not scenes:
        raise DataError(f"{args.dump}: dump contains no scenes")

    reports = []
    inventory = []
    for scene_id, preds, gts in scenes:
        reports.append(average_recall(preds, gts, recall_cfg))
        fn_by_thr = false_negative_indices(preds, gts, recall_cfg)
        for t in recall_cfg.thresholds:
            inventory.append(
                {
                    "scene_id": scene_id,
                    "threshold": t,
                    "false_negatives": [
                        {
                            "index": j,
                            "cx": gts[j].cx,
                            "cy": gts[j].cy,
                            "length": gts[j].length,
                            "width": gts[j].width,
                            "yaw": gts[j].yaw,
                            "class_id": gts[j].class_id,
                        }
                        for j in fn_by_thr[t]
                    ],
                }
            )
    pooled = merge_reports(reports, recall_cfg)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_recall_csv(out / "recall.csv", recall_report_rows(pooled, scope="overall"))
    write_recall_json(out / "recall.json", pooled)
    _write_json(out / "fn_inventory.json", inventory)

    classes = sorted(pooled.per_class_recall)
    if classes:
        series = {
            f"d={t:g}m": [pooled.per_class_recall[c][t] for c in classes]
            for t in recall_cfg.thresholds
        }
        chart = grouped_bar_chart(
            [str(c) for c in classes],
            series,
            title="Per-class recall by match distance",
            x_label="class id",
            y_label="recall",
        )
        _write_text(out / "classwise_recall.svg", chart)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    summary_path = args.summary
    summary = _read_json(Path(summary_path), "experiment summary")
    if not isinstance(summary, dict):
        raise DataError(f"{summary_path}: expected an object, got {type(summary).__name__}")
    arms = summary.get("arms")
    if not isinstance(arms, dict) or not arms:
        raise DataError(f"{summary_path}: missing 'arms' section")
    series = {}
    rows = []
    for arm in sorted(arms):
        pooled = arms[arm].get("pooled") if isinstance(arms[arm], dict) else None
        if not isinstance(pooled, dict) or "per_threshold_recall" not in pooled:
            raise DataError(f"{summary_path}: arms.{arm} lacks pooled recall data")
        where = f"{summary_path}: arms.{arm}.pooled"
        pts = _recall_curve_points(pooled, where)
        series[arm] = [(t, r) for t, r, _key in pts]
        num_gt = typed(int, pooled.get("num_gt", 0), f"{where}.num_gt", DataError)
        matched = typed(dict, pooled.get("num_matched", {}), f"{where}.num_matched", DataError)
        # An absent num_matched reads as 0 everywhere; a present one must
        # spell its thresholds exactly as per_threshold_recall does.
        if "num_matched" in pooled:
            recall_keys = pooled["per_threshold_recall"]
            for key in [*recall_keys, *matched]:
                if (key in recall_keys) != (key in matched):
                    raise DataError(
                        f"{where}.num_matched.{key}: num_matched and per_threshold_recall "
                        "must have the same keys"
                    )
        for t, r, key in pts:
            num_matched = typed(int, matched.get(key, 0), f"{where}.num_matched.{key}", DataError)
            rows.append(
                {
                    "scope": arm,
                    "class": "*",
                    "threshold": repr(t),
                    "recall": repr(r),
                    "num_gt": num_gt,
                    "num_matched": num_matched,
                }
            )
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_recall_curve(out, series)
    write_recall_csv(out / "recall_summary.csv", rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bevprobe",
        description="Staged BEV heatmap probing: simulation, probing, and recall audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the paired probing-vs-baseline experiment")
    p_sim.add_argument("--config", required=True, help="experiment config JSON")
    p_sim.add_argument("--output-dir", required=True)
    p_sim.add_argument("--jobs", type=int, default=1, help="worker processes (results are identical for any value)")
    p_sim.add_argument("--save-scenes", action="store_true", help="also dump generated scenes as JSONL")
    p_sim.set_defaults(run=cmd_simulate)

    p_probe = sub.add_parser("probe", help="run staged top-k probing over heatmap files")
    p_probe.add_argument("--stage", action="append", default=[], metavar="FILE",
                         help="stage heatmap file; repeat once per stage, in order")
    p_probe.add_argument("--output-dir", required=True)
    p_probe.add_argument("--k", type=int, default=None, help="candidate budget applied to every stage")
    p_probe.add_argument("--k-per-stage", default=None, help="comma-separated per-stage budgets")
    p_probe.add_argument("--mask-type", default="point", choices=[m.value for m in MaskType])
    p_probe.add_argument("--small-classes", default=None, help="comma-separated class ids kept at single-cell masks")
    p_probe.add_argument("--pooling-kernel", type=int, default=3)
    p_probe.add_argument("--box-length", type=float, default=None, help="box mask length in meters")
    p_probe.add_argument("--box-width", type=float, default=None, help="box mask width in meters")
    p_probe.set_defaults(run=cmd_probe)

    p_audit = sub.add_parser("audit", help="recall and false-negative audit of a detection dump")
    p_audit.add_argument("--dump", required=True, help="detection dump JSON")
    p_audit.add_argument("--output-dir", required=True)
    p_audit.add_argument("--thresholds", default="0.5,1,2,4")
    p_audit.add_argument("--class-agnostic", action="store_true")
    p_audit.set_defaults(run=cmd_audit)

    p_report = sub.add_parser("report", help="regenerate tables and charts from a summary.json")
    p_report.add_argument("--summary", required=True)
    p_report.add_argument("--output-dir", required=True)
    p_report.set_defaults(run=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Built per call, so each subparser runs whatever cmd_* is bound now.
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"bevprobe: config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"bevprobe: data error: {exc}", file=sys.stderr)
        return 3
    except BevProbeError as exc:
        print(f"bevprobe: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
