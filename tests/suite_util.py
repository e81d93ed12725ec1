"""Seeded scene suites shared by the oracle-closure tests.

Fifty scenes: 25 revolute sweeping 5 to 60 degrees and 25 prismatic
sweeping 2 to 40 cm, axis directions spread over the unit sphere, a moving
arc camera per scene, and roughly 30% static background points. The noisy
variant adds 5 mm 3D noise, 20% occlusion and 5% invalid depth on the same
geometry.
"""

from __future__ import annotations

import math

import numpy as np

from artikit import evalkit, synth
from artikit.lie import pose_stack
from artikit.artmodel import ClassifierConfig
from artikit.pipeline import PipelineConfig, run_pipeline
from artikit.smoother import SmootherConfig
from artikit.trackfilter import FilterConfig

FRAMES = 70
WINDOW = (10, 55)
N_SCENES = 50
N_REVOLUTE = 25

NOISE_SIGMA = 0.005
OCCLUSION_RATE = 0.20
INVALID_DEPTH_RATE = 0.05


def still_camera(T: int):
    """A camera that stays at the world origin for T frames, as a pose stack."""
    return pose_stack(np.tile([1.0, 0.0, 0.0, 0.0], (T, 1)), np.zeros((T, 3)))


def scene_config(i: int, noisy: bool, redraw: int = 0) -> synth.SynthConfig:
    """Scene i of the clean or noisy suite. ``redraw`` > 0 draws the noise,
    occlusion and point layout afresh (synth seed 1000 + i + 100 * redraw)
    on the same joint and camera path."""
    dirs = synth.fibonacci_sphere(N_SCENES)
    axis_dir = dirs[i]
    layout = np.random.default_rng(9000 + i)
    if i < N_REVOLUTE:
        magnitude = float(np.deg2rad(np.linspace(5.0, 60.0, N_REVOLUTE))[i])
        axis_point = np.array([0.4, -0.2, 1.0]) + layout.uniform(-0.15, 0.15, 3)
        joint = synth.JointSpec(
            "revolute", axis_dir, synth.ramp_profile(FRAMES, WINDOW, magnitude), axis_point
        )
        target = axis_point
    else:
        magnitude = float(np.linspace(0.02, 0.40, N_REVOLUTE)[i - N_REVOLUTE])
        joint = synth.JointSpec(
            "prismatic", axis_dir, synth.ramp_profile(FRAMES, WINDOW, magnitude)
        )
        target = np.array([0.0, 0.0, 1.2])
    path = synth.arc_camera_path(
        FRAMES, target, start_deg=180.0 + 7.0 * i, sweep_deg=25.0
    )
    noise = (
        dict(
            noise_sigma=NOISE_SIGMA,
            occlusion_rate=OCCLUSION_RATE,
            invalid_depth_rate=INVALID_DEPTH_RATE,
        )
        if noisy
        else {}
    )
    return synth.SynthConfig(
        seed=1000 + i + 100 * redraw,
        joint=joint,
        camera_path=path,
        hand_window=WINDOW,
        n_dynamic=48,
        n_static=20,
        **noise,
    )


def pipeline_config(noisy: bool, mode: str = "regularized") -> PipelineConfig:
    """Suite settings: 3D motion scores (the camera moves, so pixel motion
    does not separate static from dynamic), a classifier gate below the
    smallest scripted rotation, and no smoothing prior on noiseless data
    (the prior trades bias for variance; with zero variance it only
    biases)."""
    return PipelineConfig(
        filter=FilterConfig(static_mode="world3d"),
        smoother=SmootherConfig() if noisy else SmootherConfig(0.0, 0.0),
        classifier=ClassifierConfig(theta_rot_min=0.05),
        mode=mode,
        jobs=1,
    )


def run_scene(i: int, noisy: bool, mode: str = "regularized") -> dict:
    """Generate scene i, run the pipeline, score against its ground truth.

    Returns {"type_correct", "theta_err_rad", "d_l2"} with None errors when
    the segment was skipped or unmatched (callers count those as failures).
    """
    ts, gt = synth.generate(scene_config(i, noisy))
    doc = run_pipeline(ts, pipeline_config(noisy, mode))
    out = {
        "gt_type": gt[0].joint_type,
        "type_correct": False,
        "theta_err_rad": None,
        "d_l2": None,
    }
    report = evalkit.evaluate(doc["results"], gt)
    if not report.records:
        return out
    rec = report.records[0]
    out["type_correct"] = rec.type_correct
    out["theta_err_rad"] = math.radians(rec.theta_err)
    out["d_l2"] = rec.d_l2
    return out


def run_suite(noisy: bool, mode: str = "regularized") -> list:
    return [run_scene(i, noisy, mode) for i in range(N_SCENES)]


def snapshot_records(doc: dict) -> list:
    """The outcome of one run for the refactor snapshot: per result its
    joint type, flags, axis and magnitudes; per skip its stage and error
    type."""
    out = [
        {
            "type": r["type"],
            "flags": r["flags"],
            "axis_dir": r["axis_dir"],
            "axis_point": r["axis_point"],
            "thetas": r["thetas"],
        }
        for r in doc["results"]
    ]
    out += [{"stage": r["stage"], "error": r["error"]["type"]} for r in doc["skipped"]]
    return out


def suite_snapshot(noisy: bool, mode: str) -> list:
    """``snapshot_records`` of every scene of one suite, in scene order."""
    records = []
    for i in range(N_SCENES):
        ts, _ = synth.generate(scene_config(i, noisy))
        records.append(snapshot_records(run_pipeline(ts, pipeline_config(noisy, mode))))
    return records


def derive_suite_snapshot() -> dict:
    """Recompute fixtures/suite_snapshot.json: both suites in both modes,
    keyed "clean/regularized", "noisy/independent" and so on."""
    return {
        f"{suite}/{mode}": suite_snapshot(suite == "noisy", mode)
        for suite in ("clean", "noisy")
        for mode in ("regularized", "independent")
    }


def derive_noisy_thresholds() -> dict:
    """Recompute the frozen noisy-closure caps (fixtures/noisy_thresholds.json).

    The caps are the median angular error and median axis distance of the
    independent-transform baseline over the noisy suite: the shared-twist
    estimator must not degrade past the baseline it regularizes.
    """
    ind = run_suite(noisy=True, mode="independent")
    theta = np.array([r["theta_err_rad"] for r in ind if r["theta_err_rad"] is not None])
    dl2 = np.array([r["d_l2"] for r in ind if r["d_l2"] is not None])
    return {
        "theta_err_median_rad": float(np.median(theta)),
        "d_l2_median_m": float(np.median(dl2)),
        "baseline_matched": int(len(theta)),
    }


def criterion7_trace() -> tuple[np.ndarray, list]:
    """The 300-frame hand signal with four scripted interactions.

    Blocks of raw hand detections at 10..29 (too short after extraction),
    60..104, 130..225 (too long), 255..290. Under w_h = 6 and tau = 0.5 a
    block a..b surrounded by zeros reaches the threshold at a+2 (three of
    six window frames set) and stays there through b+3, so the conforming
    blocks map to [62, 107] and [257, 293].
    """
    hand = np.zeros(300, dtype=float)
    for a, b in ((10, 29), (60, 104), (130, 225), (255, 290)):
        hand[a : b + 1] = 1.0
    expected = [(62, 107), (257, 293)]
    return hand, expected
