"""Matching predictions to ground truth: greedy TP/FN bookkeeping per
probing stage, and optimal (Hungarian) assignment with a distance gate.

The greedy matcher walks predictions in descending score order and pairs
each with its best same-class unmatched ground truth under the chosen
similarity, keeping only pairs that pass the threshold. That mirrors the
usual detection-evaluation convention and is what the stage classifier and
the recall metrics share, through :func:`match_thresholds`. The walk sorts
the feasible (prediction, ground truth) pairs once by (score rank, sigma,
ground-truth index) and keeps each pair whose two ends are both still
open, so every prediction gets its first open pair, i.e. its best one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import BevBox, BoxColumns, corners_iou
from .hip import Candidate, CandidateColumns


class MatchMetric(enum.Enum):
    CENTER_DISTANCE = "center_distance"
    ROTATED_IOU = "rotated_iou"


@dataclass(frozen=True)
class MatchConfig:
    """Similarity metric and its pass threshold.

    CENTER_DISTANCE passes when sigma < eta (meters); ROTATED_IOU passes
    when sigma > eta (IoU in (0, 1)).
    """

    metric: MatchMetric = MatchMetric.CENTER_DISTANCE
    eta: float = 2.0

    def __post_init__(self) -> None:
        if self.metric is MatchMetric.CENTER_DISTANCE and not 0.0 < self.eta < np.inf:
            raise ValueError(f"distance threshold must be finite and positive, got {self.eta}")
        if self.metric is MatchMetric.ROTATED_IOU and not 0.0 < self.eta < 1.0:
            raise ValueError(f"IoU threshold must lie in (0, 1), got {self.eta}")


@dataclass(frozen=True)
class AssignmentConfig:
    """Feasibility gate for optimal assignment costs."""

    gate_distance: float = 7.0

    def __post_init__(self) -> None:
        if not self.gate_distance > 0.0:
            raise ValueError(f"gate_distance must be positive, got {self.gate_distance}")


@dataclass(frozen=True)
class StageAssignment:
    """Matching outcome of one stage.

    ``matched_pairs`` holds (gt index, prediction index, sigma) for this
    stage's new matches; ``tp_gt`` are their ground-truth indices and
    ``fn_gt`` the still-unmatched remainder of the ground truth this stage
    was allowed to claim.
    """

    stage: int
    matched_pairs: tuple[tuple[int, int, float], ...]
    tp_gt: frozenset[int]
    fn_gt: frozenset[int]


def greedy_match_matrix(
    sigma: np.ndarray,
    pred_scores: np.ndarray,
    pred_classes: np.ndarray,
    gt_classes: np.ndarray,
    *,
    eta: float,
    larger_is_better: bool,
    class_consistent: bool = True,
) -> list[tuple[int, int, float]]:
    """Greedy one-to-one matching on a precomputed similarity matrix.

    Predictions are visited in descending score order (ties by ascending
    index); each takes its best-sigma unmatched ground truth of the same
    class (sigma ties by ascending ground-truth index) provided the pair
    passes the threshold. Returns (gt index, pred index, sigma) tuples in
    visit order.
    """
    n_pred, n_gt = sigma.shape
    feasible = sigma > eta if larger_is_better else sigma < eta
    if class_consistent:
        feasible &= np.asarray(pred_classes)[:, None] == np.asarray(gt_classes)[None, :]
    rows, cols = np.nonzero(feasible)
    vals = sigma[rows, cols]
    rank = np.empty(n_pred, dtype=np.int64)
    rank[np.argsort(-np.asarray(pred_scores, dtype=np.float64), kind="stable")] = np.arange(n_pred)
    order = np.lexsort((cols, -vals if larger_is_better else vals, rank[rows]))
    pred_open = [True] * n_pred
    gt_open = [True] * n_gt
    pairs: list[tuple[int, int, float]] = []
    for i, j, v in zip(rows[order].tolist(), cols[order].tolist(), vals[order].tolist()):
        if pred_open[i] and gt_open[j]:
            pred_open[i] = gt_open[j] = False
            pairs.append((j, i, v))
    return pairs


def prediction_columns(preds: Sequence) -> CandidateColumns | BoxColumns:
    """Predictions as columns. Column types pass through; a row sequence
    is read once, into ``CandidateColumns`` if it holds ``Candidate`` rows
    and into ``BoxColumns`` otherwise. A mix of the two raises ValueError."""
    if isinstance(preds, (CandidateColumns, BoxColumns)):
        return preds
    candidate = [isinstance(p, Candidate) for p in preds]
    if any(candidate):
        if not all(candidate):
            raise ValueError("predictions must all be Candidates or all BevBoxes")
        return CandidateColumns.of(preds)
    return BoxColumns.of(preds)


def sigma_matrix(preds: Sequence, gts: Sequence[BevBox], metric: MatchMetric) -> np.ndarray:
    """Pairwise similarity between predictions (rows) and ground truth."""
    if metric is MatchMetric.ROTATED_IOU:
        if not isinstance(preds, BoxColumns) and not all(isinstance(p, BevBox) for p in preds):
            raise ValueError("IoU matching requires box predictions")
        pred_corners, gt_corners = (BoxColumns.of(b).corners() for b in (preds, gts))
        iou = [[corners_iou(p, g) for g in gt_corners] for p in pred_corners]
        return np.array(iou, dtype=np.float64).reshape(len(pred_corners), len(gt_corners))
    preds, gts = prediction_columns(preds), BoxColumns.of(gts)
    if isinstance(preds, CandidateColumns):
        px, py = preds.world_x, preds.world_y
    else:
        px, py = preds.cx, preds.cy
    px = px.astype(np.float64, copy=False)[:, None]
    py = py.astype(np.float64, copy=False)[:, None]
    # Centers far apart may overflow to an infinite distance, which never
    # matches: the right answer, so no warning.
    with np.errstate(over="ignore"):
        return np.hypot(px - gts.cx, py - gts.cy)


def match_thresholds(
    preds: Sequence,
    gts: Sequence[BevBox],
    thresholds: Sequence[float],
    metric: MatchMetric = MatchMetric.CENTER_DISTANCE,
    *,
    class_consistent: bool = True,
) -> tuple[np.ndarray, list[list[tuple[int, int, float]]]]:
    """Greedy matching of scored predictions at each threshold.

    Reads the predictions and ground truth into columns once, then builds
    the similarity matrix, scores and classes and runs
    :func:`greedy_match_matrix` per threshold. Returns the prediction
    scores and, per threshold, the (gt index, pred index, sigma) pairs.
    """
    preds, gts = prediction_columns(preds), BoxColumns.of(gts)
    sigma = sigma_matrix(preds, gts, metric)
    scores = preds.score.astype(np.float64)
    if isinstance(preds, BoxColumns) and np.isnan(scores).any():
        raise ValueError("matching requires scored predictions")
    pred_cls = preds.class_id.astype(np.int64)
    per_threshold = [
        greedy_match_matrix(
            sigma, scores, pred_cls, gts.class_id,
            eta=t,
            larger_is_better=metric is MatchMetric.ROTATED_IOU,
            class_consistent=class_consistent,
        )
        for t in thresholds
    ]
    return scores, per_threshold


def classify_stage(
    candidates: Sequence,
    gts: Sequence[BevBox],
    cfg: MatchConfig = MatchConfig(),
    remaining: Sequence[int] | None = None,
    stage: int = 0,
) -> StageAssignment:
    """Split one stage's claimable ground truth into matched and missed.

    ``remaining`` restricts which ground-truth indices the stage may claim
    (defaults to all); indices matched by earlier stages should be excluded
    by the caller. Class-consistent, one-to-one, score-greedy.
    """
    remaining = list(range(len(gts)) if remaining is None else remaining)
    for i in remaining:  # int() would read True as 1 and 1.7 as 1
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ValueError(f"remaining entry {i!r} is not an integer index")
    claimable = sorted(set(map(int, remaining)))
    for j in claimable:
        if not 0 <= j < len(gts):
            raise ValueError(f"remaining index {j} outside the ground-truth list")
    sub_gts = BoxColumns.of(gts)[np.array(claimable, dtype=np.intp)]
    _, (pairs,) = match_thresholds(candidates, sub_gts, (cfg.eta,), cfg.metric)
    matched = tuple((claimable[j], i, s) for j, i, s in pairs)
    tp = frozenset(p[0] for p in matched)
    return StageAssignment(stage, matched, tp, frozenset(claimable) - tp)


def hard_instance_targets(
    gts: Sequence[BevBox], assignments: Sequence[StageAssignment]
) -> frozenset[int]:
    """Ground-truth indices no stage matched: the hard-instance target set."""
    return frozenset(range(len(gts))).difference(*(a.tp_gt for a in assignments))


def hungarian_assign(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment on a rectangular cost matrix.

    Returns (row, column) pairs sorted by row; min(n_rows, n_cols) pairs.
    Costs must be finite. scipy is imported here rather than at module
    level because it dominates start-up time and nothing else needs it.
    """
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2D, got shape {cost.shape}")
    if cost.size == 0:
        return []
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist()))


def gated_cost_matrix(
    preds: Sequence,
    gts: Sequence[BevBox],
    cfg: AssignmentConfig = AssignmentConfig(),
    base_cost: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Assignment costs with out-of-gate pairs pushed to a large sentinel.

    ``base_cost`` defaults to the center-distance matrix. Pairs whose
    center distance exceeds the gate get cost 1e6 * max(1, max finite
    |base cost|), so any all-feasible assignment beats any gated one.
    Returns (costs, gated) where ``gated`` is the boolean infeasibility
    mask.
    """
    return _gated_costs(preds, gts, cfg, base_cost)[:2]


def _gated_costs(preds, gts, cfg: AssignmentConfig, base_cost) -> tuple[np.ndarray, ...]:
    """:func:`gated_cost_matrix`'s (costs, gated), then the distances behind them."""
    dist = sigma_matrix(preds, gts, MatchMetric.CENTER_DISTANCE)
    if base_cost is None:
        base = dist.copy()
    else:
        base = np.asarray(base_cost, dtype=np.float64).copy()
        if base.shape != dist.shape:
            raise ValueError(f"base_cost shape {base.shape} does not match {dist.shape}")
        if not np.isfinite(base).all():
            raise ValueError("base_cost must be finite")
    gated = dist > cfg.gate_distance
    scale = float(np.abs(base).max()) if base.size else 0.0
    sentinel = 1e6 * max(1.0, scale)
    base[gated] = sentinel
    return base, gated, dist


def assign_with_gate(
    preds: Sequence,
    gts: Sequence[BevBox],
    cfg: AssignmentConfig = AssignmentConfig(),
    base_cost: np.ndarray | None = None,
) -> list[tuple[int, int, float]]:
    """Optimal assignment keeping only in-gate pairs.

    Returns (pred index, gt index, center distance) for every assigned pair
    whose center distance is within the gate.
    """
    costs, gated, dist = _gated_costs(preds, gts, cfg, base_cost)
    return [(r, c, float(dist[r, c])) for r, c in hungarian_assign(costs) if not gated[r, c]]
