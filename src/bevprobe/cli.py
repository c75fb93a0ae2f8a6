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
import re
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .bev_grid import load_heatmap
from .errors import BevProbeError, ConfigError, DataError, decode_json, read_columns, typed
from .geometry import BoxColumns
from .hip import HipConfig, MaskType, encode_compact_json, run_hip, save_mask
from .metrics import (
    RecallConfig,
    average_recall,
    false_negative_indices,
    merge_reports,
    recall_report_rows,
    recall_report_to_dict,
    recall_rows,
    write_recall_csv,
)
from .sim import (
    ARM_BASELINE, ARM_PROBE, experiment_from_config, run_experiment, scene_for_seed, scene_to_dict,
)
from .svg import grouped_bar_chart, line_chart


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _output_dir(args: argparse.Namespace) -> Path:
    """Create ``--output-dir``; a path that cannot be a directory is a config error."""
    out = Path(args.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--output-dir: cannot create {out}: {exc}") from exc
    return out


def _read_json(path: Path, what: str, err=DataError) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return decode_json(fh, f"{path}: malformed JSON", err)
    except OSError as exc:
        raise err(f"cannot read {what} {path}: {exc}") from exc


def _run_info() -> dict:
    from importlib.metadata import version

    return {
        "tool": "bevprobe",
        "version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
    }


def _parse_list(text: str, flag: str, kind: type, noun: str) -> list:
    """The non-blank comma-separated entries of ``text`` read by ``kind``."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: expected comma-separated {noun}, got {text!r}") from exc


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
    out = _output_dir(args)

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
        "num_scenes": len(result.scenes),
        "total_budget": setup.hip_cfg.total_k,
        "thresholds": list(setup.recall_cfg.thresholds),
        "per_scene": per_scene,
    }
    _write_json(out / "summary.json", summary)
    _write_json(out / "run_info.json", _run_info())

    for arm in (ARM_PROBE, ARM_BASELINE):
        pooled = result.arms[arm].pooled
        write_recall_csv(out / f"recall_{arm}.csv", recall_report_rows(pooled, scope=arm))
        _write_json(out / f"recall_{arm}.json", summary["arms"][arm]["pooled"])
        _write_text(
            out / f"candidates_{arm}.jsonl",
            "".join(o.candidates[arm].to_jsonl(o.scene_id) for o in result.scenes),
        )

    # Sorted arm order keeps the chart byte-identical with `report`.
    _write_recall_curve(out, {
        arm: sorted(result.arms[arm].pooled.per_threshold_recall.items())
        for arm in sorted((ARM_PROBE, ARM_BASELINE))
    })
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
    if args.k is None:
        raise ConfigError("--k is required")
    budgets = _parse_list(args.k, "--k", int, "integers")
    if len(budgets) == 1:
        budgets *= num_stages
    if len(budgets) != num_stages:
        raise ConfigError(f"--k lists {len(budgets)} budgets for {num_stages} stage files")
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

    # Stage 0 is read now, for its grid, and popped when run_hip takes it; each
    # later stage file is read when its stage starts.
    first = [load_heatmap(stage_paths[0])]
    spec = first[0].spec
    outside = sorted(c for c in small if not 0 <= c < spec.num_classes)
    if outside:
        raise ConfigError(
            f"--small-classes: ids must lie in [0, {spec.num_classes}) of the loaded grid, "
            f"got {outside}"
        )

    box_provider = None
    if mtype is MaskType.BOX:
        def box_provider(cands):
            n = len(cands)
            size = np.full(n, args.box_length), np.full(n, args.box_width)
            return BoxColumns(cands.world_x, cands.world_y, *size, np.zeros(n), cands.class_id)

    def stage_heatmap(stage, _collected):
        hm = first.pop() if stage == 0 else load_heatmap(stage_paths[stage])
        if hm.spec != spec:
            raise DataError(f"{stage_paths[stage]}: grid spec differs from {stage_paths[0]}")
        return hm

    result = run_hip(stage_heatmap, cfg, spec, box_provider=box_provider)
    out = _output_dir(args)
    _write_text(out / "candidates.jsonl", result.columns.to_jsonl())
    for trace in result.traces:
        save_mask(out / f"mask_stage_{trace.stage}.bevgrid", trace.positive_mask)
    save_mask(out / "mask_accumulated.bevgrid", result.accumulated_mask)
    return 0


def load_detection_dump(path: Path) -> list[tuple[str, BoxColumns, BoxColumns]]:
    """Parse and validate a detection dump file.

    Format: {"scenes": [{"scene_id", "predictions", "ground_truth"}]} with
    box records carrying cx, cy, length, width, yaw, class_id and score (which
    a prediction needs). Each list is read into ``BoxColumns`` by
    ``read_columns``; problems raise DataError naming the key path.
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
        preds, gts = (read_columns(BoxColumns, scene[role], f"{where}.{role}", DataError)
                      for role in ("predictions", "ground_truth"))
        unscored = np.flatnonzero(np.isnan(preds.score))
        if unscored.size:
            raise DataError(f"{where}.predictions[{unscored[0]}].score: a prediction needs a score")
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
        rows = gts.records(BoxColumns._fields[:-1])  # ground truth has no score
        records = {j: {"index": j, **rows[j]} for j in set().union(*fn_by_thr.values())}
        inventory += [
            {"scene_id": scene_id, "threshold": t,
             "false_negatives": [records[j] for j in fn_by_thr[t]]}
            for t in recall_cfg.thresholds
        ]
    pooled = merge_reports(reports, recall_cfg)
    out = _output_dir(args)
    write_recall_csv(out / "recall.csv", recall_report_rows(pooled, scope="overall"))
    _write_json(out / "recall.json", recall_report_to_dict(pooled))
    _write_json(out / "fn_inventory.json", inventory)

    per_class = pooled.per_class_recall  # a property that builds the table on each read
    classes = sorted(per_class)
    if classes:
        series = {}
        for t in recall_cfg.thresholds:  # %g may print two thresholds alike; repr does not
            label = f"{t:g}" if float(f"{t:g}") == t else repr(t)
            series[f"d={label}m"] = [per_class[c][t] for c in classes]
        chart = grouped_bar_chart(
            [str(c) for c in classes],
            series,
            title="Per-class recall by match distance",
            x_label="class id",
            y_label="recall",
        )
        _write_text(out / "classwise_recall.svg", chart)
    return 0


# What XML 1.0 cannot hold, even escaped; JSON may spell each of these,
# and a lone surrogate cannot be written as UTF-8 either.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


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
        bad = _NOT_XML_CHAR.search(arm)
        if bad:
            raise DataError(f"{summary_path}: arm {arm!r} holds {bad[0]!r}, which SVG cannot hold")
        pooled = arms[arm].get("pooled") if isinstance(arms[arm], dict) else None
        if not isinstance(pooled, dict) or "per_threshold_recall" not in pooled:
            raise DataError(f"{summary_path}: arms.{arm} lacks pooled recall data")
        where = f"{summary_path}: arms.{arm}.pooled"
        thr_where = f"{where}.per_threshold_recall"
        recall = typed(dict[str, float], pooled["per_threshold_recall"], thr_where, DataError)
        if not recall:
            raise DataError(f"{thr_where}: expected at least one threshold")
        pts, seen = [], {}
        for key, r in recall.items():
            try:
                t = float(key)
            except ValueError:
                t = math.nan
            if not math.isfinite(t):
                raise DataError(f"{thr_where}: key {key!r} is not a finite number")
            if seen.setdefault(t, key) != key:
                raise DataError(f"{thr_where}: keys {seen[t]!r} and {key!r} name one threshold")
            pts.append((t, float(r), key))  # float(): a JSON integer 1 prints as 1.0
        pts.sort()
        num_gt = typed(int, pooled.get("num_gt", 0), f"{where}.num_gt", DataError)
        # Absent, num_matched reads as 0; present, it must spell per_threshold_recall's keys.
        matched = pooled.get("num_matched", dict.fromkeys(recall, 0))
        matched = typed(dict[str, int], matched, f"{where}.num_matched", DataError)
        for key in [*recall, *matched]:
            if (key in recall) != (key in matched):
                raise DataError(
                    f"{where}.num_matched.{key}: num_matched and per_threshold_recall "
                    "must have the same keys"
                )
        series[arm] = [(t, r) for t, r, _key in pts]
        rows += recall_rows(arm, "*", num_gt, [(t, r, matched[key]) for t, r, key in pts])
    out = _output_dir(args)
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
    p_probe.add_argument("--k", help="candidate budget: N for every stage, or N1,N2,... per stage")
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
