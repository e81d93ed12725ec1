"""Joint model fitting, classification, and axis extraction."""

import logging

import numpy as np
import pytest

import suite_util
from artikit import artmodel, pipeline, synth
from artikit.artmodel import (
    ArticulationEstimate,
    ClassifierConfig,
    build_articulation_estimate,
    classify_joint,
    extract_axis,
    fit_joint_models,
    fit_twist_to_poses,
    free_model_from_trajectory,
    total_rotation,
    total_translation,
)
from artikit.errors import InsufficientMotionError
from artikit.lie import Twist, exp_map, normalize_twist, pose_stack
from artikit.trajest import TrajectoryEstimate, fit_independent


def pose_chain(xi, thetas):
    """The poses exp(theta hat(xi)) as one pose stack, by one exp_map call."""
    q, _, t = exp_map(xi, thetas)
    return pose_stack(q, t)


def anchor_frame_poses(traj):
    """A trajectory's poses in its anchor's frame, pose 0, as the estimate forms them."""
    return pose_stack(traj.poses.q, traj.poses.t - traj.poses.t[0])


def make_trajectory(poses, flags=()):
    """An independent trajectory of ``poses``; its anchor is their row 0."""
    return TrajectoryEstimate(
        mode="independent",
        poses=poses,
        rms_residual=0.0,
        flags=list(flags),
    )


def assert_same_twist(got, want, tol=1e-7):
    unit, _ = normalize_twist(want)
    s = 1.0
    if np.linalg.norm(unit.omega) > 0:
        s = np.sign(np.dot(got.omega, unit.omega))
    elif np.linalg.norm(unit.v) > 0:
        s = np.sign(np.dot(got.v, unit.v))
    assert np.linalg.norm(s * got.omega - unit.omega) < tol
    assert np.linalg.norm(s * got.v - unit.v) < tol


# ---------------------------------------------------------------------------
# pose-sequence twist fits


def test_fit_recovers_revolute_twist():
    axis_dir = np.array([1.0, 2.0, -2.0]) / 3.0
    axis_point = np.array([0.3, -0.1, 1.1])
    xi = Twist(axis_dir, -np.cross(axis_dir, axis_point))
    thetas = np.array([0.0, 0.12, 0.3, 0.46, 0.61, 0.8])
    fit = fit_twist_to_poses(pose_chain(xi, thetas))
    assert fit.gauge == "revolute"
    assert fit.converged
    assert fit.thetas[0] == 0.0
    assert_same_twist(fit.twist, xi)
    assert np.allclose(np.abs(fit.thetas), thetas, atol=1e-7)
    assert fit.rms < 1e-9


def test_fit_recovers_prismatic_twist():
    d = np.array([0.0, 0.6, 0.8])
    xi = Twist(np.zeros(3), d)
    dists = np.array([0.0, 0.05, 0.11, 0.2, 0.26])
    fit = fit_twist_to_poses(pose_chain(xi, dists))
    assert fit.gauge == "prismatic"
    assert np.all(fit.twist.omega == 0)
    assert_same_twist(fit.twist, xi, tol=1e-9)
    assert np.allclose(np.abs(fit.thetas), dists, atol=1e-9)
    assert fit.rms < 1e-12


def test_fit_recovers_screw_with_pitch():
    w = np.array([0.0, 0.0, 1.0])
    pitch = 0.07  # m per rad along the axis
    xi = Twist(w, np.array([0.2, -0.1, pitch]))
    thetas = np.linspace(0.0, 0.9, 7)
    fit = fit_twist_to_poses(pose_chain(xi, thetas))
    assert fit.gauge == "revolute"
    assert_same_twist(fit.twist, xi)
    got_pitch = abs(float(fit.twist.omega @ fit.twist.v))
    assert abs(got_pitch - pitch) < 1e-7


def test_fit_theta_sum_is_nonnegative():
    xi = Twist(np.array([0.0, 1.0, 0.0]), np.zeros(3))
    fit = fit_twist_to_poses(pose_chain(xi, [0.0, -0.2, -0.4, -0.55]))
    assert float(np.sum(fit.thetas)) >= 0.0
    # the flipped representation still reproduces the poses
    assert fit.rms < 1e-9


def test_fit_rejects_non_identity_first_pose():
    xi = Twist(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    poses = pose_chain(xi, [0.3, 0.5, 0.7])
    with pytest.raises(ValueError, match="identity"):
        fit_twist_to_poses(poses)


def test_fit_rejects_short_sequences():
    with pytest.raises(ValueError):
        fit_twist_to_poses(pose_chain(Twist(np.zeros(3), np.array([1.0, 0.0, 0.0])), [0.0]))


def test_fit_static_poses_raise():
    poses = pose_chain(Twist(np.zeros(3), np.array([1.0, 0.0, 0.0])), np.zeros(6))
    with pytest.raises(InsufficientMotionError):
        fit_twist_to_poses(poses)


def test_prismatic_gauge_pins_omega_to_zero():
    # rotationally dominated data, but the constrained fit must stay prismatic
    xi = Twist(np.array([0.0, 0.0, 1.0]), np.array([0.3, 0.0, 0.0]))
    fit = fit_twist_to_poses(pose_chain(xi, [0.0, 0.2, 0.4, 0.6]), gauge="prismatic")
    assert np.all(fit.twist.omega == 0)
    assert abs(np.linalg.norm(fit.twist.v) - 1.0) < 1e-12
    assert fit.rms > 1e-3  # rotation cannot be explained by a translation


def test_fit_joint_models_ordering():
    xi = Twist(np.array([0.0, 0.0, 1.0]), np.array([0.1, -0.2, 0.0]))
    fit_u, fit_p = fit_joint_models(pose_chain(xi, [0.0, 0.25, 0.5]))
    assert fit_p.gauge == "prismatic"
    assert fit_u.rms <= fit_p.rms


def test_fit_invalid_gauge():
    xi = Twist(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="gauge"):
        fit_twist_to_poses(pose_chain(xi, [0.0, 0.1]), gauge="free")


# ---------------------------------------------------------------------------
# motion summaries and classification


def test_total_rotation_and_translation():
    w = np.array([0.0, 0.0, 1.0])
    rev = fit_twist_to_poses(pose_chain(Twist(w, np.array([0.1, 0.0, 0.0])), [0.0, 0.2, 0.5]))
    assert abs(total_rotation(rev) - 0.5) < 1e-7
    assert total_translation(rev) < 1e-7  # zero-pitch hinge does not translate

    pri = fit_twist_to_poses(pose_chain(Twist(np.zeros(3), w), [0.0, 0.1, 0.3]))
    assert total_rotation(pri) == 0.0
    assert abs(total_translation(pri) - 0.3) < 1e-9

    screw = fit_twist_to_poses(
        pose_chain(Twist(w, np.array([0.0, 0.0, 0.05])), np.linspace(0, 0.8, 6))
    )
    assert abs(total_translation(screw) - 0.05 * 0.8) < 1e-7


def test_classify_clear_rotation_is_revolute():
    xi = Twist(np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.0, 0.0]))
    poses = pose_chain(xi, [0.0, 0.2, 0.4, 0.6])
    fit_u, fit_p = fit_joint_models(poses)
    assert classify_joint(fit_u, fit_p, ClassifierConfig()) == "revolute"


def test_classify_translation_is_prismatic():
    xi = Twist(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    poses = pose_chain(xi, [0.0, 0.05, 0.1, 0.15])
    fit_u, fit_p = fit_joint_models(poses)
    assert classify_joint(fit_u, fit_p, ClassifierConfig()) == "prismatic"


def test_classify_tiny_rotation_falls_back_to_prismatic():
    # a sub-threshold wiggle must not be promoted to a hinge
    xi = Twist(np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.0, 0.0]))
    poses = pose_chain(xi, [0.0, 0.01, 0.02, 0.03])
    fit_u, fit_p = fit_joint_models(poses)
    cfg = ClassifierConfig(theta_rot_min=0.1)
    assert classify_joint(fit_u, fit_p, cfg) == "prismatic"


def test_classifier_config_validation():
    with pytest.raises(ValueError):
        ClassifierConfig(theta_rot_min=0.0)
    with pytest.raises(ValueError):
        ClassifierConfig(residual_margin=1.0)


# ---------------------------------------------------------------------------
# axis extraction


def test_extract_axis_revolute_closest_point():
    # omega = z, v = x: the line passes through (0, 1, 0) parallel to z
    dir_, point = extract_axis(
        Twist(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])), "revolute"
    )
    assert np.allclose(dir_, [0.0, 0.0, 1.0])
    assert np.allclose(point, [0.0, 1.0, 0.0])


def test_extract_axis_prismatic_has_no_point():
    dir_, point = extract_axis(Twist(np.zeros(3), np.array([0.0, 3.0, 4.0])), "prismatic")
    assert np.allclose(dir_, [0.0, 0.6, 0.8])
    assert point is None


def test_extract_axis_errors():
    with pytest.raises(ValueError):
        extract_axis(Twist(np.zeros(3), np.array([1.0, 0.0, 0.0])), "revolute")
    with pytest.raises(ValueError):
        extract_axis(Twist(np.zeros(3), np.array([1.0, 0.0, 0.0])), "spherical")


def test_extracted_point_lies_on_true_axis():
    axis_dir = np.array([2.0, -1.0, 2.0]) / 3.0
    axis_point = np.array([0.5, 0.2, -0.3])
    xi = Twist(axis_dir, -np.cross(axis_dir, axis_point))
    dir_, point = extract_axis(xi, "revolute")
    # same line: the recovered point differs from axis_point only along axis_dir
    off = point - axis_point
    assert np.linalg.norm(off - (off @ axis_dir) * axis_dir) < 1e-12
    assert np.allclose(np.abs(dir_ @ axis_dir), 1.0)


# ---------------------------------------------------------------------------
# full estimate assembly


def test_build_estimate_revolute():
    axis_dir = np.array([0.0, 1.0, 0.0])
    axis_point = np.array([0.4, 0.0, 1.0])
    xi = Twist(axis_dir, -np.cross(axis_dir, axis_point))
    traj = make_trajectory(pose_chain(xi, np.linspace(0.0, 0.7, 8)))
    est = build_articulation_estimate(traj, ClassifierConfig())
    assert isinstance(est, ArticulationEstimate)
    assert est.joint_type == "revolute"
    assert np.allclose(np.abs(est.axis_dir @ axis_dir), 1.0, atol=1e-7)
    off = est.axis_point - axis_point
    assert np.linalg.norm(off - (off @ axis_dir) * axis_dir) < 1e-7
    assert est.pose_rms < 1e-9
    assert "low_motion" not in est.flags


def test_build_estimate_prismatic():
    d = np.array([1.0, 0.0, 0.0])
    traj = make_trajectory(pose_chain(Twist(np.zeros(3), d), [0.0, 0.04, 0.09, 0.15]))
    est = build_articulation_estimate(traj, ClassifierConfig())
    assert est.joint_type == "prismatic"
    assert est.axis_point is None
    assert np.allclose(np.abs(est.axis_dir @ d), 1.0, atol=1e-9)


def test_build_estimate_flags_low_motion():
    d = np.array([1.0, 0.0, 0.0])
    traj = make_trajectory(pose_chain(Twist(np.zeros(3), d), [0.0, 0.001, 0.002]))
    est = build_articulation_estimate(traj, ClassifierConfig())
    assert est.joint_type == "prismatic"
    assert "low_motion" in est.flags


def test_build_estimate_carries_trajectory_flags():
    xi = Twist(np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.0, 0.0]))
    traj = make_trajectory(pose_chain(xi, [0.0, 0.3, 0.6]), flags=["anchored_late"])
    est = build_articulation_estimate(traj, ClassifierConfig())
    assert "anchored_late" in est.flags


# ---------------------------------------------------------------------------
# the free model of a regularized trajectory, in closed form


def suite_fit(i: int, noisy: bool) -> dict:
    """stage_estimate's output on one suite scene (regularized mode)."""
    cfg = suite_util.pipeline_config(noisy)
    ts, _ = synth.generate(suite_util.scene_config(i, noisy))
    (seg,) = pipeline.extract_hand_segments(ts, cfg.segmenter)
    tracks, counts = pipeline.stage_filter(ts, seg, cfg)
    tracks = pipeline.stage_smooth(tracks, cfg, counts)
    return pipeline.stage_estimate(tracks, cfg, counts)


@pytest.fixture(scope="module", params=[12, 30], ids=["revolute", "prismatic"])
def noisy_suite_fit(request):
    return suite_fit(request.param, noisy=True)


def test_free_model_closed_form_matches_pose_fit(noisy_suite_fit):
    traj = noisy_suite_fit["traj"]
    assert traj.converged
    closed = free_model_from_trajectory(traj)
    ref = fit_twist_to_poses(anchor_frame_poses(traj))
    assert ref.converged and closed.converged
    assert closed.gauge == ref.gauge
    assert np.max(np.abs(closed.twist.as_vector() - ref.twist.as_vector())) < 1e-9
    assert np.max(np.abs(closed.thetas - ref.thetas)) < 1e-9
    assert abs(closed.rms - ref.rms) < 1e-9
    if closed.gauge == "prismatic":  # the constrained fit build_articulation_estimate skips
        ref = fit_twist_to_poses(anchor_frame_poses(traj), gauge="prismatic")
        assert ref.converged
        assert np.max(np.abs(closed.twist.as_vector() - ref.twist.as_vector())) < 1e-9
        assert np.max(np.abs(closed.thetas - ref.thetas)) < 1e-9


def count_pose_fits(monkeypatch) -> list:
    """The gauges of every ``fit_twist_to_poses`` call made from now on."""
    seen = []
    real = artmodel.fit_twist_to_poses

    def counted(poses, gauge="auto"):
        seen.append(gauge)
        return real(poses, gauge)

    monkeypatch.setattr(artmodel, "fit_twist_to_poses", counted)
    return seen


@pytest.mark.parametrize(
    "mode, gauges",
    [
        # a regularized chart above the rotation gate is its own model
        ("regularized", []),
        ("independent", ["prismatic", "auto"]),
    ],
)
def test_build_estimate_fits_only_unknown_models(noisy_suite_fit, monkeypatch, mode, gauges):
    traj = noisy_suite_fit["traj"]
    if mode == "independent":
        traj = fit_independent(noisy_suite_fit["corr"], traj.poses.t[:1])
    seen = count_pose_fits(monkeypatch)
    stacks = []
    monkeypatch.setattr(artmodel, "pose_stack", lambda *a: stacks.append(a) or pose_stack(*a))
    build_articulation_estimate(traj, ClassifierConfig())
    assert seen == gauges
    assert len(stacks) == (mode == "independent")  # the anchor-frame stack is built only for a pose fit


def test_regularized_verdict_matches_pose_space_classifier(noisy_suite_fit):
    """The chart rule gives the verdict the pose-space classifier gives on
    the same poses."""
    traj = noisy_suite_fit["traj"]
    for cfg in (ClassifierConfig(), ClassifierConfig(theta_rot_min=0.05)):
        est = build_articulation_estimate(traj, cfg)
        assert est.joint_type == classify_joint(*fit_joint_models(anchor_frame_poses(traj)), cfg)


def test_revolute_chart_below_gate_gets_prismatic_pose_fit(monkeypatch):
    traj = suite_fit(0, noisy=False)["traj"]  # clean scene 0, a 5 degree hinge
    fit_u = free_model_from_trajectory(traj)
    assert fit_u.gauge == "revolute"
    assert 0.05 < total_rotation(fit_u) < ClassifierConfig().theta_rot_min

    seen = count_pose_fits(monkeypatch)
    est = build_articulation_estimate(traj, ClassifierConfig())
    assert (est.joint_type, seen, est.flags) == ("prismatic", ["prismatic"], [])
    fit_p = fit_twist_to_poses(anchor_frame_poses(traj), gauge="prismatic")
    assert np.array_equal(est.twist.as_vector(), fit_p.twist.as_vector())
    assert np.array_equal(est.thetas, fit_p.thetas) and est.pose_rms == fit_p.rms

    seen.clear()
    est = build_articulation_estimate(traj, ClassifierConfig(theta_rot_min=0.05))
    assert (est.joint_type, seen, est.pose_rms) == ("revolute", [], 0.0)


# ---------------------------------------------------------------------------
# prismatic pose fits that end where no damping lowers the cost


@pytest.mark.parametrize(
    "scene, mode",
    [(38, "independent"), (48, "independent"), (26, "independent"), (26, "regularized")],
)
def test_noisy_pose_fits_without_decrease_are_not_flagged(scene, mode):
    """Prismatic pose fits that can end where no damping lowers the cost
    while the least damped step predicts a decrease near 1e-20 against a
    cost near 1e-3 (noisy scenes 38 and 48 in independent mode, and 26 in
    regularized mode when that fitted the revolute chart, depending on the
    order of summation): that is convergence, so no ``non_converged`` flag.
    Regularized scene 26 takes the prismatic chart, which is its own model:
    regularized mode fits a pose model only for a revolute chart below the
    rotation gate, so that case fits none."""
    cfg = suite_util.pipeline_config(noisy=True, mode=mode)
    ts, _ = synth.generate(suite_util.scene_config(scene, noisy=True))
    (record,) = pipeline.run_pipeline(ts, cfg)["results"]
    assert record["type"] == "prismatic"
    assert record["flags"] == []


def test_noisy_independent_pose_fits_converge(caplog):
    """Every pose fit of noisy scenes 37, 45, 48 and 49 in independent mode
    converges: none logs that it stopped early. The results cannot show it,
    since an auto fit that stops at MAX_ITER and then loses to the prismatic
    fit leaves no flag."""
    cfg = suite_util.pipeline_config(noisy=True, mode="independent")
    with caplog.at_level(logging.WARNING, logger="artikit.artmodel"):
        for scene in (37, 45, 48, 49):
            ts, _ = synth.generate(suite_util.scene_config(scene, noisy=True))
            assert pipeline.run_pipeline(ts, cfg)["results"]
    assert [r.getMessage() for r in caplog.records if r.name == "artikit.artmodel"] == []
