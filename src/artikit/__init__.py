"""Articulation estimation from hand-interaction point tracks.

The package turns a recording of 2D point tracks with depth, camera poses
and a hand-detection signal into 1-DoF joint models: interaction segments
are extracted, background and unreliable tracks dropped, trajectories
smoothed and registered, and each segment's motion fit with a single screw
axis that is then classified as revolute or prismatic.
"""

from .artmodel import (
    ArticulationEstimate,
    ClassifierConfig,
    PoseTwistFit,
    build_articulation_estimate,
    classify_joint,
    extract_axis,
    fit_twist_to_poses,
)
from .errors import (
    ArtikitError,
    BranchAmbiguityError,
    DegenerateGeometryError,
    DegenerateStepError,
    IllPosedError,
    InsufficientMotionError,
    InsufficientTracksError,
    TrackFileError,
)
from .evalkit import EvalReport, angular_error, axis_distance, evaluate, render_report
from .lie import (
    Twist,
    apply,
    exp_map,
    inverse,
    log_map,
    normalize_twist,
    pose_stack,
    rotation_angle,
    se3_adjoint,
    se3_left_jacobian,
    transform_twist,
)
from .pipeline import PipelineConfig, run_pipeline, save_results
from .segmenter import Segment, SegmenterConfig, extract_segments, match_segments, segment_iou
from .smoother import SmootherConfig, smooth_track, smoothing_energy
from .synth import GroundTruthJoint, JointSpec, SynthConfig, fibonacci_sphere, generate
from .trackfilter import FilterConfig, filter_outliers, filter_static, filter_unreliable
from .trackio import (
    CameraIntrinsics,
    Track,
    Track3D,
    TrackSet,
    lift_track,
    load_trackset,
    save_trackset,
    to_world,
)
from .trajest import (
    CorrespondenceSet,
    TrajectoryEstimate,
    build_correspondences,
    fit_independent,
    fit_regularized,
    register_rigid,
)

__version__ = "0.1.0"
