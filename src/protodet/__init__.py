"""Training-free few-shot detection post-processing.

Masked prototype matching, per-class graph-diffusion score reweighting,
classical NMS-family baselines, and COCO-convention evaluation, all operating
on precomputed or synthetically generated proposal/feature data.
"""

from .diffusion import (
    ClassGraph,
    DiffusionParams,
    DiffusionResult,
    Proposal,
    build_class_graph,
    build_class_graphs,
    diffuse,
    diffuse_all_classes,
    refine_scores,
)
from .errors import DataFormatError, GenerationError, PipelineError
from .evaluation import EvalReport, GroundTruthBox, ap_101, evaluate, match_detections
from .features import (
    ClassPrototype,
    FeatureMap,
    SupportAnnotation,
    build_prototypes,
    cosine,
    l2_normalize,
    map_box_to_grid,
    masked_roi_pool,
    match_proposal,
)
from .generator import GeneratorConfig, generate_dataset, planted_prototypes
from .geometry import (
    BinaryMask,
    BoundingBox,
    box_area,
    box_iou,
    box_iou_matrix,
    box_iou_pairs,
    box_to_full_mask,
    coverage_matrix,
    mask_coverage,
    mask_downsample,
)
from .interchange import (
    Dataset,
    ProposalRecord,
    export_run,
    load_dataset,
    load_detections,
    write_dataset,
)
from .pipeline import (
    METHODS,
    PipelineConfig,
    QueryImage,
    run_end_to_end,
    run_query_stage,
    run_refine_stage,
    run_support_stage,
)
from .postproc import ScoredDetection, nms, soft_merge, soft_nms, topk_by_score, wbf

__version__ = "0.1.0"
