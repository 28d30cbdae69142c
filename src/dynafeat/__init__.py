"""dynafeat: real-time feature matching for video via local feature groups.

Features are clustered into local groups by seeded region growing;
group pairs between consecutive frames are accepted when their mutual
nearest-neighbor support count beats a binomial-statistics threshold, and
accepted group motion narrows the search space of the next frame.
"""

from ._kernels import active_backend
from .config import PipelineConfig
from .frontend import (FrameFeatures, GrayImage, describe, detect_corners,
                       extract_frame, load_features, save_features)
from .geometry import (CameraIntrinsics, PoseEstimate, estimate_essential_ransac,
                       pose_error, pose_success_ratio, reprojection_repeatability)
from .grouping import FeatureGroup, GroupingResult, group_features
from .matching import GroupMatch, mutual_nn_match
from .stats import (BinomialMoments, binomial_moments, p_false, p_false_crosscheck,
                    p_true, p_true_crosscheck, support_threshold)
from .synthetic import SyntheticScene, generate_sequence, make_cluster_scene
from .tracking import TrackState, advance, bootstrap, intersect_candidates

__version__ = "0.1.0"

__all__ = [
    "FrameFeatures", "GrayImage", "detect_corners", "describe",
    "extract_frame", "load_features", "save_features",
    "FeatureGroup", "GroupingResult", "group_features",
    "BinomialMoments", "p_true", "p_false", "p_true_crosscheck",
    "p_false_crosscheck", "binomial_moments", "support_threshold",
    "GroupMatch", "mutual_nn_match",
    "TrackState", "intersect_candidates", "advance", "bootstrap",
    "CameraIntrinsics", "PoseEstimate", "estimate_essential_ransac", "pose_error",
    "pose_success_ratio", "reprojection_repeatability",
    "SyntheticScene", "make_cluster_scene", "generate_sequence",
    "PipelineConfig",
    "active_backend",
    "__version__",
]
