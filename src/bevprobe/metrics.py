"""Recall and average-precision metrics over center-distance matching.

Matching follows the greedy convention from :mod:`bevprobe.assignment`:
predictions in descending score order, each taking its nearest unmatched
same-class ground truth within the distance threshold. Recall is averaged
over a threshold sweep; AP uses all-point interpolation of the
precision-recall curve.
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .assignment import match_thresholds, prediction_columns
from .geometry import BevBox, BoxColumns


@dataclass(frozen=True)
class RecallConfig:
    """Distance threshold sweep (meters) for recall evaluation."""

    thresholds: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    class_agnostic: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "thresholds", tuple(float(t) for t in self.thresholds)
        )
        if not self.thresholds:
            raise ValueError("at least one distance threshold is required")
        if any(not 0.0 < t < math.inf for t in self.thresholds):
            raise ValueError("distance thresholds must be finite and positive")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("distance thresholds must be strictly increasing")


@dataclass(frozen=True)
class RecallReport:
    """Ground-truth and match counts, overall and per ground-truth class id.

    Match counts are keyed by threshold in sweep order. The recall
    properties are derived from these counts alone.
    """

    num_gt: int
    num_pred: int
    num_matched: dict[float, int]
    per_class_gt: dict[int, int] = field(default_factory=dict)
    per_class_matched: dict[int, dict[float, int]] = field(default_factory=dict)

    @property
    def empty_gt(self) -> bool:
        return self.num_gt == 0

    @property
    def per_threshold_recall(self) -> dict[float, float]:
        """Matched over ground truth; 1.0 everywhere for zero ground truth."""
        if self.empty_gt:
            return {t: 1.0 for t in self.num_matched}
        return {t: m / self.num_gt for t, m in self.num_matched.items()}

    @property
    def mean_average_recall(self) -> float:
        """Plain mean of the per-threshold recalls, summed in sweep order."""
        recalls = self.per_threshold_recall
        return sum(recalls.values()) / len(recalls)

    @property
    def per_class_recall(self) -> dict[int, dict[float, float]]:
        return {
            c: {t: m / self.per_class_gt[c] for t, m in matched.items()}
            for c, matched in self.per_class_matched.items()
        }


def average_recall(
    preds: Sequence,
    gts: Sequence[BevBox],
    cfg: RecallConfig = RecallConfig(),
) -> RecallReport:
    """Recall of scored predictions against ground truth per threshold.

    Predictions may be heatmap candidates or scored boxes. The mean
    average recall is the plain mean of the per-threshold recalls.
    """
    if len(gts) == 0:
        return RecallReport(0, len(preds), {t: 0 for t in cfg.thresholds})
    gts = BoxColumns.of(gts)
    gt_cls = gts.class_id.tolist()
    class_gt = dict(sorted(Counter(gt_cls).items()))
    _, per_threshold_pairs = match_thresholds(
        preds, gts, cfg.thresholds, class_consistent=not cfg.class_agnostic
    )
    hits = [Counter(gt_cls[j] for j, _i, _s in pairs) for pairs in per_threshold_pairs]
    return RecallReport(
        num_gt=len(gts),
        num_pred=len(preds),
        num_matched={t: len(pairs) for t, pairs in zip(cfg.thresholds, per_threshold_pairs)},
        per_class_gt=class_gt,
        per_class_matched={c: {t: h[c] for t, h in zip(cfg.thresholds, hits)} for c in class_gt},
    )


def classwise_recall(
    preds: Sequence,
    gts: Sequence[BevBox],
    cfg: RecallConfig = RecallConfig(),
) -> dict[int, RecallReport]:
    """Independent recall report per ground-truth class. Same-class matching
    never pairs across classes, so one class-consistent matching holds every
    class's counts, whatever ``cfg.class_agnostic`` says."""
    preds, gts = prediction_columns(preds), BoxColumns.of(gts)
    num_pred = Counter(preds.class_id.tolist())
    preds = preds[np.flatnonzero(np.isin(preds.class_id, gts.class_id))]
    table = average_recall(preds, gts, replace(cfg, class_agnostic=False))
    matched = table.per_class_matched
    return {
        c: RecallReport(n, num_pred[c], dict(matched[c]), {c: n}, {c: matched[c]})
        for c, n in table.per_class_gt.items()
    }


def merge_reports(
    reports: Sequence[RecallReport], cfg: RecallConfig = RecallConfig()
) -> RecallReport:
    """Pool reports by summing matched/ground-truth counts.

    Pooled recall is sum(matched) / sum(gt) per threshold, so merging is
    associative and order-independent. Note the pooled mean average recall
    weights scenes by ground-truth count, unlike a mean of per-scene means.
    """
    class_gt: Counter[int] = Counter()
    class_matched: defaultdict[int, Counter[float]] = defaultdict(Counter)
    for r in reports:
        class_gt.update(r.per_class_gt)
        for c in r.per_class_gt:
            class_matched[c].update(r.per_class_matched.get(c, {}))
    classes = sorted(class_gt)
    return RecallReport(
        num_gt=sum(r.num_gt for r in reports),
        num_pred=sum(r.num_pred for r in reports),
        num_matched={t: sum(r.num_matched.get(t, 0) for r in reports) for t in cfg.thresholds},
        per_class_gt={c: class_gt[c] for c in classes},
        per_class_matched={c: {t: class_matched[c][t] for t in cfg.thresholds} for c in classes},
    )


def false_negative_indices(
    preds: Sequence,
    gts: Sequence[BevBox],
    cfg: RecallConfig = RecallConfig(),
) -> dict[float, list[int]]:
    """Ground-truth indices left unmatched at each threshold.

    Uses the same greedy matching as :func:`average_recall`, so counts
    agree with the recall report exactly.
    """
    _, per_threshold_pairs = match_thresholds(
        preds, gts, cfg.thresholds, class_consistent=not cfg.class_agnostic
    )
    out: dict[float, list[int]] = {}
    for t, pairs in zip(cfg.thresholds, per_threshold_pairs):
        matched = {j for j, _i, _s in pairs}
        out[t] = [j for j in range(len(gts)) if j not in matched]
    return out


@dataclass(frozen=True)
class ApResult:
    value: float
    num_gt: int
    num_pred: int
    no_predictions: bool = False
    no_gt: bool = False


def ap_center_distance(
    preds: Sequence, gts: Sequence[BevBox], threshold: float, *,
    class_consistent: bool = True,
) -> ApResult:
    """All-point interpolated average precision at one distance threshold.

    Predictions are ranked by score; each is a TP if the greedy matcher
    pairs it with a ground truth within the threshold, an FP otherwise.
    AP integrates the upper precision envelope over recall. Zero ground
    truth yields NaN (flagged); zero predictions yield 0 (flagged).
    """
    if not 0.0 < threshold < math.inf:
        raise ValueError(f"distance threshold must be finite and positive, got {threshold}")
    if len(gts) == 0:
        return ApResult(math.nan, 0, len(preds), no_gt=True)
    if len(preds) == 0:
        return ApResult(0.0, len(gts), 0, no_predictions=True)
    scores, (pairs,) = match_thresholds(
        preds, gts, (threshold,), class_consistent=class_consistent
    )
    is_tp = np.zeros(len(preds), dtype=bool)
    is_tp[[i for _j, i, _s in pairs]] = True
    order = np.argsort(-scores, kind="stable")
    tp = np.cumsum(is_tp[order])
    fp = np.cumsum(~is_tp[order])
    recall = tp / len(gts)
    precision = tp / (tp + fp)
    # Upper envelope of precision, integrated over recall increments.
    mrec = np.concatenate(([0.0], recall))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision))[::-1])[::-1]
    # Summed left to right, as a loop would; a zero recall step adds 0.0.
    ap = np.add.accumulate(np.diff(mrec) * mpre[1:])[-1]
    return ApResult(float(ap), len(gts), len(preds))


_CSV_COLUMNS = ("scope", "class", "threshold", "recall", "num_gt", "num_matched")


def recall_rows(scope: str, cls: int | str, num_gt: int, points: Sequence[tuple]) -> list[dict]:
    """CSV rows of one scope and class, one per (threshold, recall,
    num_matched) point; floats are written by ``repr``."""
    return [
        dict(zip(_CSV_COLUMNS, (scope, cls, repr(t), repr(r), num_gt, m))) for t, r, m in points
    ]


def recall_report_rows(report: RecallReport, scope: str = "overall") -> list[dict]:
    """Flatten a report into CSV-ready rows.

    Overall rows use "*" for the class column; per-class rows follow,
    ordered by class id then threshold.
    """
    recall = report.per_threshold_recall
    thresholds = sorted(recall)
    rows = recall_rows(
        scope, "*", report.num_gt, [(t, recall[t], report.num_matched[t]) for t in thresholds]
    )
    for c, by_t in sorted(report.per_class_recall.items()):
        matched = report.per_class_matched[c]
        rows += recall_rows(
            scope, c, report.per_class_gt[c], [(t, by_t[t], matched[t]) for t in thresholds]
        )
    return rows


def write_recall_csv(path: str | os.PathLike, rows: Sequence[dict]) -> None:
    """Write recall rows with a fixed column order and '\n' line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def recall_report_to_dict(report: RecallReport) -> dict:
    """JSON mirror of the CSV rows, with threshold keys stringified."""
    # Both are properties that rebuild their table on every read.
    recall, per_class = report.per_threshold_recall, report.per_class_recall
    thresholds = sorted(recall)
    return {
        "per_threshold_recall": {repr(t): recall[t] for t in thresholds},
        "mean_average_recall": report.mean_average_recall,
        "per_class_recall": {
            str(c): {repr(t): per_class[c][t] for t in thresholds} for c in sorted(per_class)
        },
        "num_gt": report.num_gt,
        "num_pred": report.num_pred,
        "num_matched": {repr(t): report.num_matched.get(t, 0) for t in thresholds},
        "per_class_gt": {str(c): report.per_class_gt[c] for c in sorted(report.per_class_gt)},
        "per_class_matched": {
            str(c): {repr(t): report.per_class_matched[c].get(t, 0) for t in thresholds}
            for c in sorted(report.per_class_matched)
        },
        "empty_gt": report.empty_gt,
    }
