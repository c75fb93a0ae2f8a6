"""bevprobe: staged top-k probing over BEV center heatmaps.

The package covers the full loop around a center-heatmap detector head:
rendering Gaussian targets, selecting candidates stage by stage while
masking out what earlier stages already claimed, matching candidates to
ground truth, scoring recall and average precision, and a synthetic
oracle-detector testbed comparing staged probing against a single-pass
baseline at equal candidate budget.
"""

__version__ = "0.1.0"

from .assignment import (
    AssignmentConfig,
    MatchConfig,
    MatchMetric,
    StageAssignment,
    assign_with_gate,
    classify_stage,
    gated_cost_matrix,
    hard_instance_targets,
    hungarian_assign,
)
from .bev_grid import (
    BevGridSpec,
    GaussianRenderConfig,
    Heatmap,
    PositiveMask,
    gaussian_radius,
    load_heatmap,
    render_gaussian_heatmap,
    save_grid,
)
from .errors import BevProbeError, ConfigError, DataError
from .geometry import (
    BevBox,
    BoxColumns,
    BoxPoolConfig,
    DeformSamplingConfig,
    bilinear_sample,
    box_pool,
    box_pool_points,
    center_distance,
    deform_sample,
    rotated_iou_bev,
)
from .hip import (
    Candidate,
    CandidateColumns,
    HipConfig,
    HipResult,
    MaskType,
    TopKResult,
    accumulate_mask,
    apply_mask,
    build_positive_mask,
    run_hip,
    topk_select,
)
from .losses import LossConfig, gaussian_focal_loss, multi_stage_loss
from .metrics import (
    ApResult,
    RecallConfig,
    RecallReport,
    ap_center_distance,
    average_recall,
    classwise_recall,
    false_negative_indices,
    merge_reports,
)
from .sim import (
    DetectabilityModel,
    ExperimentSetup,
    SceneParams,
    SyntheticScene,
    experiment_from_config,
    generate_scene,
    oracle_stage_heatmap,
    run_experiment,
)

__all__ = [
    "ApResult",
    "AssignmentConfig",
    "BevBox",
    "BevGridSpec",
    "BevProbeError",
    "BoxColumns",
    "BoxPoolConfig",
    "Candidate",
    "CandidateColumns",
    "ConfigError",
    "DataError",
    "DeformSamplingConfig",
    "DetectabilityModel",
    "ExperimentSetup",
    "GaussianRenderConfig",
    "Heatmap",
    "HipConfig",
    "HipResult",
    "LossConfig",
    "MaskType",
    "MatchConfig",
    "MatchMetric",
    "PositiveMask",
    "RecallConfig",
    "RecallReport",
    "SceneParams",
    "StageAssignment",
    "SyntheticScene",
    "TopKResult",
    "accumulate_mask",
    "ap_center_distance",
    "apply_mask",
    "assign_with_gate",
    "average_recall",
    "bilinear_sample",
    "box_pool",
    "box_pool_points",
    "build_positive_mask",
    "center_distance",
    "classify_stage",
    "classwise_recall",
    "deform_sample",
    "experiment_from_config",
    "false_negative_indices",
    "gated_cost_matrix",
    "gaussian_focal_loss",
    "gaussian_radius",
    "generate_scene",
    "hard_instance_targets",
    "hungarian_assign",
    "load_heatmap",
    "merge_reports",
    "multi_stage_loss",
    "oracle_stage_heatmap",
    "render_gaussian_heatmap",
    "rotated_iou_bev",
    "run_experiment",
    "run_hip",
    "save_grid",
    "topk_select",
]
