"""Walk one recording through the pipeline a stage at a time.

Same computation `artikit run` performs, but calling each stage directly
so the intermediate shapes are visible: hand segments, surviving tracks
after filtering, smoothed trajectories, and finally the fitted joint.
"""

import numpy as np

from artikit import synth
from artikit.artmodel import ClassifierConfig
from artikit.evalkit import angular_error, axis_distance
from artikit.pipeline import (
    PipelineConfig,
    extract_hand_segments,
    segment_record,
    stage_estimate,
    stage_filter,
    stage_smooth,
)

scene = {
    "seed": 17,
    "frames": 70,
    "joint": {
        "type": "revolute",
        "axis_dir": [0.2, -0.3, 0.93],
        "axis_point": [0.4, -0.2, 1.0],
        "motion": {"kind": "ramp", "magnitude": 0.7},
    },
    "hand_window": [10, 55],
    "camera": {"kind": "arc"},
    "noise_sigma": 0.004,
    "occlusion_rate": 0.15,
}
ts, gt = synth.generate(synth.config_from_dict(scene))

cfg = PipelineConfig(
    classifier=ClassifierConfig(theta_rot_min=0.05),
    jobs=1,
)

segments = extract_hand_segments(ts, cfg.segmenter)
print("hand segments:", [(s.start, s.end) for s in segments])

seg = segments[0]
tracks, counts = stage_filter(ts, seg, cfg)
print(f"filter kept {len(tracks)} tracks "
      f"(dropped {counts['static']} static, {counts['unreliable']} unreliable)")

tracks = stage_smooth(tracks, cfg, counts)
print(f"smoothed {len(tracks)} tracks ({counts['unsmoothable']} unsmoothable)")

fitted = stage_estimate(tracks, cfg, counts)
rec = segment_record(seg, fitted, counts)
print(f"estimate: {rec['type']}, {counts['outliers']} residual outliers dropped, "
      f"trajectory rms residual {rec['trajectory']['rms_residual']:.2e} m")

true = gt[0]
theta_err = angular_error(rec["axis_dir"], true.axis_dir)
d = axis_distance(rec["axis_point"], rec["axis_dir"], true.axis_point, true.axis_dir)
print(f"axis angular error {theta_err:.3f} deg, axis distance {d * 1000:.2f} mm")
print("per-step magnitudes (rad):", np.round(rec["thetas"], 4))
