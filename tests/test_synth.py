"""Synthetic scene generator: scripted joints, cameras, corruption, ground truth."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from artikit.errors import TrackFileError
from artikit.lie import RigidTransform, quat_to_matrix
from artikit.synth import (
    GroundTruthJoint,
    JointSpec,
    SynthConfig,
    arc_camera_path,
    config_from_dict,
    fibonacci_sphere,
    generate,
    load_ground_truth,
    look_at_pose,
    ramp_profile,
    _look_at_rows,
    save_ground_truth,
)
from artikit.trackio import lift_track, save_trackset, to_world
from suite_util import scene_config, still_camera


def world_points(ts, track):
    t3 = to_world(lift_track(track, ts.intrinsics), ts.cam_poses)
    return t3.positions, t3.valid


def static_cam_config(**overrides):
    T = overrides.pop("frames", 12)
    axis_point = np.array([0.4, 0.0, 1.0])
    joint = JointSpec(
        joint_type="revolute",
        axis_dir=np.array([0.0, 0.0, 1.0]),
        motion_profile=np.linspace(0.0, math.radians(30.0), T),
        axis_point=axis_point,
    )
    kwargs = dict(
        seed=7,
        joint=joint,
        camera_path=still_camera(T),
        n_dynamic=15,
        n_static=8,
    )
    kwargs.update(overrides)
    return SynthConfig(**kwargs)


# ---------------------------------------------------------------------------
# geometric invariants of noiseless scenes


def test_revolute_scene_preserves_axis_distance():
    """A hinge can change a point's angle about the axis but never its radius."""
    cfg = static_cam_config()
    ts, gt = generate(cfg)
    a = gt[0].axis_dir
    p0 = gt[0].axis_point
    for track in ts.tracks[: cfg.n_dynamic]:
        pts, valid = world_points(ts, track)
        assert np.all(valid)
        radii = np.linalg.norm(np.cross(pts - p0, a), axis=1)
        assert np.ptp(radii) < 1e-12


def test_prismatic_scene_moves_points_along_axis():
    T = 10
    d = np.array([1.0, 0.0, 0.0])
    prof = np.linspace(0.0, 0.3, T)
    cfg = SynthConfig(
        seed=3,
        joint=JointSpec("prismatic", d, prof),
        camera_path=still_camera(T),
        n_dynamic=10,
        n_static=4,
        part_center=np.array([0.0, 0.0, 1.2]),
    )
    ts, _ = generate(cfg)
    for track in ts.tracks[: cfg.n_dynamic]:
        pts, valid = world_points(ts, track)
        assert np.all(valid)
        disp = pts - pts[0]
        assert np.allclose(disp, np.outer(prof, d), atol=1e-12)


def test_static_points_do_not_move():
    cfg = static_cam_config()
    ts, _ = generate(cfg)
    for track in ts.tracks[cfg.n_dynamic :]:
        pts, valid = world_points(ts, track)
        assert np.all(valid)
        assert np.ptp(pts, axis=0).max() < 1e-12


def test_hand_flags_match_window():
    cfg = static_cam_config(hand_window=(3, 8))
    ts, gt = generate(cfg)
    expect = np.zeros(12, dtype=bool)
    expect[3:9] = True
    assert np.array_equal(ts.hand, expect)
    assert gt[0].segment == (3, 8)


# ---------------------------------------------------------------------------
# determinism and corruption


def test_same_seed_is_byte_identical(tmp_path):
    cfg = static_cam_config(noise_sigma=0.004, occlusion_rate=0.15, invalid_depth_rate=0.05)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_trackset(a, generate(cfg)[0])
    save_trackset(b, generate(cfg)[0])
    assert a.read_bytes() == b.read_bytes()

    cfg2 = static_cam_config(
        seed=8, noise_sigma=0.004, occlusion_rate=0.15, invalid_depth_rate=0.05
    )
    c = tmp_path / "c.json"
    save_trackset(c, generate(cfg2)[0])
    assert a.read_bytes() != c.read_bytes()


def wide_config(**overrides) -> SynthConfig:
    """200 tracks over 100 frames with the suite's noise model."""
    T = 100
    axis_point = np.array([0.4, -0.2, 1.0])
    joint = JointSpec("revolute", np.array([0.36, 0.48, 0.8]),
                      ramp_profile(T, (10, 89), math.radians(40.0)), axis_point)
    cfg = SynthConfig(seed=600, joint=joint,
                      camera_path=arc_camera_path(T, axis_point, start_deg=200.0, sweep_deg=10.0),
                      hand_window=(10, 89), n_dynamic=140, n_static=60, noise_sigma=0.005,
                      occlusion_rate=0.2, invalid_depth_rate=0.05)
    return replace(cfg, **overrides)


# sha256 over every track's uv, depth and vis bytes: the noisy gate's caps
# depend on these exact draws. A rotating scene's digest also fixes how the
# stacked ``exp_map`` rounds; a prismatic part's motion is exact, so
# noisy-25, -37 and -49 do not depend on it
PINNED = {
    "noisy-0": ("f4795143216fac8b0f91d35f9049ecdbc353245dc38932c99f5be29522ed8a9b",
                lambda: scene_config(0, noisy=True)),
    "noisy-24": ("ffb2c470df2e45658fad04cb95fd33c986532944906ff29260256c00ede6664e",
                 lambda: scene_config(24, noisy=True)),
    "noisy-25": ("86a308600513e158c563ea05c77a38d5699c91377275eed3d7b5c736a1ac5ce9",
                 lambda: scene_config(25, noisy=True)),
    "noisy-37": ("d36943497dc1f6b3b305217559c1915da073f7f0462c7d67af8859c177149e5a",
                 lambda: scene_config(37, noisy=True)),
    "noisy-49": ("04a6254e43308f2643e93c08d7d090a63d5a94755a46aa94a1f00e2939b540aa",
                 lambda: scene_config(49, noisy=True)),
    "wide": ("ead55722fee603cfba44f758baf73b8717a22a6c85da178a8bf30f99823f4e6b", wide_config),
    "wide-occlusion-only": ("efe8b0ac6562259a198062b5a7a1f8f5d3733d00032844519acce4576bd1764f",
                            lambda: wide_config(noise_sigma=0.0, invalid_depth_rate=0.0)),
    "wide-dropout-only": ("74d2134b90dc182748318e9b83ed1c9534e395eba83f47336c572595f49272ae",
                          lambda: wide_config(noise_sigma=0.0, occlusion_rate=0.0)),
    "wide-noise-only": ("61ced9428bc39cb480c5f41708514c7e079f2d63b2be2969bc8b9495ba7536ed",
                        lambda: wide_config(occlusion_rate=0.0, invalid_depth_rate=0.0)),
    # some points fall behind a camera this close to the part
    "wide-camera-inside": (
        "6b49d4b58a31b4552397dc3fa32c4e0650956733c73ad58fdd0c56dc7cfc72e9",
        lambda: wide_config(camera_path=arc_camera_path(
            100, np.array([0.4, -0.2, 1.0]), radius=0.3, start_deg=200.0, sweep_deg=10.0)),
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_generate_output_is_pinned(name):
    digest, config = PINNED[name]
    ts, _ = generate(config())
    h = hashlib.sha256()
    for tr in ts.tracks:
        for a in (tr.uv, tr.depth, tr.vis):
            h.update(a.tobytes())
    assert h.hexdigest() == digest


def test_visible_implies_finite_positive_depth():
    cfg = static_cam_config(
        frames=30, noise_sigma=0.005, occlusion_rate=0.3, invalid_depth_rate=0.1
    )
    ts, _ = generate(cfg)
    saw_nan = False
    for tr in ts.tracks:
        vis_depth = tr.depth[tr.vis]
        assert np.all(np.isfinite(vis_depth))
        assert np.all(vis_depth > 0)
        saw_nan = saw_nan or bool(np.any(np.isnan(tr.depth)))
    assert saw_nan  # invalid-depth dropout leaves holes


def test_occlusion_rate_is_roughly_honored():
    cfg = static_cam_config(frames=40, occlusion_rate=0.3)
    ts, _ = generate(cfg)
    vis = np.array([tr.vis for tr in ts.tracks])
    frac_hidden = 1.0 - vis.mean()
    assert 0.2 < frac_hidden < 0.4


def test_noise_perturbs_lifted_points():
    clean, _ = generate(static_cam_config())
    noisy, _ = generate(static_cam_config(noise_sigma=0.01))
    pc, _ = world_points(clean, clean.tracks[0])
    pn, _ = world_points(noisy, noisy.tracks[0])
    err = np.linalg.norm(pc - pn, axis=1)
    assert 1e-4 < err.mean() < 0.1


# ---------------------------------------------------------------------------
# building blocks


def test_ramp_profile_shape():
    prof = ramp_profile(20, (5, 15), 2.0)
    assert np.all(prof[: 6] == np.concatenate([np.zeros(5), [0.0]]))
    assert np.all(prof[15:] == 2.0)
    assert prof[10] == pytest.approx(1.0)
    assert np.all(np.diff(prof) >= 0)
    with pytest.raises(ValueError):
        ramp_profile(10, (4, 4), 1.0)


def test_fibonacci_sphere_spread():
    pts = fibonacci_sphere(50)
    assert pts.shape == (50, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    dots = pts @ pts.T
    np.fill_diagonal(dots, -1.0)
    assert dots.max() < 0.999  # no two directions nearly coincide


def test_look_at_pose_faces_target():
    eye = np.array([2.0, 1.0, 0.5])
    target = np.array([0.0, 0.0, 1.0])
    T = look_at_pose(eye, target)
    fwd = T.rotation_matrix()[:, 2]
    want = (target - eye) / np.linalg.norm(target - eye)
    assert np.allclose(fwd, want, atol=1e-12)
    assert np.allclose(T.t, eye)
    # degenerate up direction falls back instead of failing
    T2 = look_at_pose([0.0, 0.0, 0.0], [0.0, 0.0, 2.0])
    assert np.allclose(T2.rotation_matrix()[:, 2], [0.0, 0.0, 1.0], atol=1e-12)
    with pytest.raises(ValueError):
        look_at_pose(eye, eye)


def oracle_look_at(eye, target, up=(0.0, 0.0, 1.0)) -> RigidTransform:
    """One frame at a time, with Shepperd's method on one matrix: the
    look-at that the stacked one replaced."""
    eye = np.asarray(eye, dtype=float)
    f = np.asarray(target, dtype=float) - eye
    nf = np.linalg.norm(f)
    if nf <= 0:
        raise ValueError("eye and target coincide")
    f = f / nf
    upv = np.asarray(up, dtype=float)
    r = np.cross(f, upv)
    nr = np.linalg.norm(r)
    if nr < 1e-9:
        upv = np.array([0.0, 1.0, 0.0])
        r = np.cross(f, upv)
        nr = np.linalg.norm(r)
    r = r / nr
    R = np.stack([r, np.cross(f, r), f], axis=1)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
    elif R[1, 1] >= R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
    q = np.array(q)
    if q[0] < 0:
        q = -q
    return RigidTransform(q / np.linalg.norm(q), eye)


def same_bits(a: RigidTransform, b: RigidTransform) -> bool:
    return a.q.tobytes() == b.q.tobytes() and a.t.tobytes() == b.t.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    T=st.sampled_from([0, 1, 2, 70, 600]),
    target=hnp.arrays(float, 3, elements=st.floats(-3.0, 3.0)),
    radius=st.floats(0.1, 5.0),
    height=st.floats(-2.0, 2.0),
    start_deg=st.floats(-720.0, 720.0),
    sweep_deg=st.floats(-400.0, 400.0),
)
def test_arc_camera_path_matches_per_frame_look_at(T, target, radius, height, start_deg, sweep_deg):
    path = arc_camera_path(
        T, target, radius=radius, height=height, sweep_deg=sweep_deg, start_deg=start_deg
    )
    angles = np.deg2rad(start_deg + np.linspace(0.0, sweep_deg, T))
    assert len(path) == T
    for a, pose in zip(angles, path):
        eye = target + np.array([radius * np.cos(a), radius * np.sin(a), height])
        assert same_bits(pose, oracle_look_at(eye, target))


def test_stacked_look_at_falls_back_on_the_parallel_row_only():
    target = np.array([0.2, -0.1, 1.0])
    eyes = target + np.array([[2.0, 0.5, 0.3], [0.0, 0.0, 1.5], [-1.0, 2.0, -0.4], [0.0, 0.0, -0.7]])
    q = _look_at_rows(eyes, target)
    for m, eye in enumerate(eyes):
        pose = RigidTransform(q[m], eye)
        assert same_bits(pose, oracle_look_at(eye, target))
        assert same_bits(look_at_pose(eye, target), pose)
        right = pose.rotation_matrix()[:, 0]
        # rows 1 and 3 look along -z and +z: their right axis is f x (0, 1, 0)
        if m in (1, 3):
            f = np.sign(eye[2] - target[2]) * np.array([0.0, 0.0, -1.0])
            assert np.allclose(right, np.cross(f, [0.0, 1.0, 0.0]), atol=1e-12)
        else:
            assert abs(right[2]) < 1e-12  # perpendicular to up = +z
    with pytest.raises(ValueError, match="coincide"):
        _look_at_rows(np.vstack([eyes, target]), target)
    with pytest.raises(ValueError, match="coincide"):
        arc_camera_path(5, target, radius=0.0, height=0.0)


def test_arc_camera_path_orbits_target():
    target = np.array([0.3, -0.2, 1.0])
    path = arc_camera_path(9, target, radius=2.0, height=0.4)
    assert len(path) == 9
    for pose, fwd in zip(path, quat_to_matrix(path.q)[:, :, 2], strict=True):
        offset = pose.t - target
        assert np.hypot(offset[0], offset[1]) == pytest.approx(2.0)
        assert offset[2] == pytest.approx(0.4)
        assert np.dot(fwd, target - pose.t) > 0


def test_joint_spec_validation():
    with pytest.raises(ValueError, match="axis_point"):
        JointSpec("revolute", np.array([0.0, 0.0, 1.0]), np.zeros(5))
    with pytest.raises(ValueError):
        JointSpec("spherical", np.array([1.0, 0.0, 0.0]), np.zeros(5))
    with pytest.raises(ValueError):
        JointSpec("prismatic", np.zeros(3), np.zeros(5))
    sp = JointSpec("prismatic", np.array([0.0, 2.0, 0.0]), np.zeros(5))
    assert np.allclose(sp.axis_dir, [0.0, 1.0, 0.0])  # direction is normalized
    xi = sp.twist()
    assert np.all(xi.omega == 0) and np.allclose(xi.v, [0.0, 1.0, 0.0])


def test_revolute_twist_passes_through_axis_point():
    spec = JointSpec(
        "revolute",
        np.array([0.0, 1.0, 0.0]),
        np.zeros(4),
        axis_point=np.array([0.5, 0.0, 1.0]),
    )
    xi = spec.twist()
    # velocity at the axis point itself is zero: omega x p + v = 0
    assert np.allclose(np.cross(xi.omega, spec.axis_point) + xi.v, 0.0, atol=1e-15)


def test_synth_config_validation():
    T = 6
    joint = JointSpec("prismatic", np.array([1.0, 0.0, 0.0]), np.zeros(T))
    path = still_camera(T)
    with pytest.raises(ValueError, match="motion_profile"):
        SynthConfig(seed=0, joint=joint, camera_path=path[:-1])
    with pytest.raises(ValueError, match="hand_window"):
        SynthConfig(seed=0, joint=joint, camera_path=path, hand_window=(0, T))
    with pytest.raises(ValueError, match="occlusion_rate"):
        SynthConfig(seed=0, joint=joint, camera_path=path, occlusion_rate=1.0)


@pytest.mark.parametrize("window, message", [
    ((1.5, 4), "hand_window[0] must be an integer, got 1.5"),
    ((1, 4.0), "hand_window[1] must be an integer, got 4.0"),
    ((True, 4), "hand_window[0] must be an integer, got True"),
    ((None, 4), "hand_window[0] must be an integer, got None"),
])
def test_synth_config_built_directly_refuses_a_non_integer_hand_window(window, message):
    """A config built without ``config_from_dict`` gets the same check, so
    ``generate`` never slices frames by a fraction."""
    T = 6
    joint = JointSpec("prismatic", np.array([1.0, 0.0, 0.0]), np.zeros(T))
    path = still_camera(T)
    with pytest.raises(ValueError) as ei:
        SynthConfig(seed=0, joint=joint, camera_path=path, hand_window=window)
    assert str(ei.value) == message


# ---------------------------------------------------------------------------
# ground truth and scene files


def test_ground_truth_round_trip(tmp_path):
    joints = [
        GroundTruthJoint((10, 55), "revolute", np.array([0.0, 0.0, 1.0]), np.array([0.4, 0.0, 1.0])),
        GroundTruthJoint((2, 9), "prismatic", np.array([1.0, 0.0, 0.0]), None),
    ]
    path = tmp_path / "gt.json"
    save_ground_truth(path, joints)
    back = load_ground_truth(path)
    assert len(back) == 2
    assert back[0].segment == (10, 55) and back[0].joint_type == "revolute"
    assert np.array_equal(back[0].axis_point, joints[0].axis_point)
    assert back[1].axis_point is None

    path.write_text('{"not": "a list"}')
    with pytest.raises(TrackFileError):
        load_ground_truth(path)


def test_config_from_dict_matches_explicit_config(tmp_path):
    doc = {
        "seed": 11,
        "frames": 16,
        "joint": {
            "type": "revolute",
            "axis_dir": [0.0, 0.0, 1.0],
            "axis_point": [0.4, -0.2, 1.0],
            "motion": {"kind": "ramp", "magnitude": 0.6},
        },
        "hand_window": [3, 12],
        "camera": {"kind": "arc", "radius": 2.0, "sweep_deg": 20.0, "start_deg": 190.0},
        "n_dynamic": 12,
        "n_static": 6,
        "noise_sigma": 0.002,
    }
    cfg = config_from_dict(doc)
    explicit = SynthConfig(
        seed=11,
        joint=JointSpec(
            "revolute",
            np.array([0.0, 0.0, 1.0]),
            ramp_profile(16, (3, 12), 0.6),
            axis_point=np.array([0.4, -0.2, 1.0]),
        ),
        camera_path=arc_camera_path(
            16, [0.4, -0.2, 1.0], radius=2.0, sweep_deg=20.0, start_deg=190.0
        ),
        n_dynamic=12,
        n_static=6,
        noise_sigma=0.002,
        hand_window=(3, 12),
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_trackset(a, generate(cfg)[0])
    save_trackset(b, generate(explicit)[0])
    assert a.read_bytes() == b.read_bytes()


def test_config_from_dict_rejects_garbage():
    with pytest.raises(TrackFileError):
        config_from_dict({"frames": 10})  # no joint
    with pytest.raises(TrackFileError):
        config_from_dict(
            {
                "frames": 10,
                "joint": {"type": "revolute", "axis_dir": [0, 0, 1], "axis_point": [0, 0, 1]},
                "camera": {"kind": "dolly"},
            }
        )
