"""Synthetic scene generator with exact articulation ground truth.

Scenes script a single 1-DoF joint: dynamic points ride the screw motion
exp(theta_t * hat(xi)) of a known axis, static points stay put, and a camera
moves along a scripted path. Points are corrupted with 3D Gaussian noise
BEFORE projection, so stored depth and pixel coordinates stay consistent
with one noisy 3D point; occlusion and invalid-depth dropouts clear the
visibility flag (a frame written as visible always carries usable depth).

Determinism: all randomness flows through one numpy Generator seeded with
``cfg.seed`` (PCG64, identical streams across platforms), drawn in a fixed
documented order: dynamic base points, static points, then per-frame noise,
occlusion and depth dropouts in track-major order. Identical configs produce
byte-identical files.

A camera path is one stacked look-at. ``generate`` moves the part by one
stacked ``exp_map`` of the profile, collects the per-point draws in that
order in a loop that does nothing else, then inverts the camera path as one
stack and projects every frame's points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import TrackFileError
from .lie import RigidTransform, Twist, apply_each, exp_map, inverse, matrix_to_quat, row_norms
from .segmenter import Segment
from .trackio import CameraIntrinsics, Track, TrackSet

DEFAULT_INTRINSICS = CameraIntrinsics(fx=525.0, fy=525.0, cx=320.0, cy=240.0)


@dataclass
class JointSpec:
    """The scripted joint: type, axis, and per-frame configuration theta_t."""

    joint_type: str  # "revolute" or "prismatic"
    axis_dir: np.ndarray  # unit direction
    motion_profile: np.ndarray  # (T,) rad or m, configuration per frame
    axis_point: np.ndarray | None = None  # required for revolute

    def __post_init__(self):
        if self.joint_type not in ("revolute", "prismatic"):
            raise ValueError(f"joint_type must be revolute or prismatic, got {self.joint_type!r}")
        self.axis_dir = np.asarray(self.axis_dir, dtype=float)
        n = np.linalg.norm(self.axis_dir)
        if n <= 0:
            raise ValueError("axis_dir must be nonzero")
        self.axis_dir = self.axis_dir / n
        self.motion_profile = np.asarray(self.motion_profile, dtype=float)
        if self.joint_type == "revolute":
            if self.axis_point is None:
                raise ValueError("revolute joints need an axis_point")
            self.axis_point = np.asarray(self.axis_point, dtype=float)

    def twist(self) -> Twist:
        """World-frame unit twist of the joint."""
        if self.joint_type == "revolute":
            return Twist(self.axis_dir, -np.cross(self.axis_dir, self.axis_point))
        return Twist(np.zeros(3), self.axis_dir)


@dataclass
class SynthConfig:
    seed: int
    joint: JointSpec
    camera_path: list  # list[RigidTransform], camera-to-world, length T
    n_dynamic: int = 48
    n_static: int = 20
    noise_sigma: float = 0.0  # m, isotropic 3D
    occlusion_rate: float = 0.0
    invalid_depth_rate: float = 0.0
    hand_window: tuple = None  # (start, end) inclusive; defaults to full range
    intrinsics: CameraIntrinsics = field(default_factory=lambda: DEFAULT_INTRINSICS)
    part_center: np.ndarray | None = None  # dynamic point cloud center at theta=0
    part_extent: float = 0.5  # m, cube edge for dynamic points
    scene_center: np.ndarray | None = None  # static background center
    scene_extent: float = 1.6

    def __post_init__(self):
        T = len(self.camera_path)
        if len(self.joint.motion_profile) != T:
            raise ValueError(
                f"motion_profile length {len(self.joint.motion_profile)} != camera path length {T}"
            )
        if self.n_dynamic < 1:
            raise ValueError("need at least one dynamic point")
        for name in ("noise_sigma",):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("occlusion_rate", "invalid_depth_rate"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must be in [0, 1)")
        if self.hand_window is None:
            self.hand_window = (0, T - 1)
        s, e = self.hand_window
        if not (0 <= s <= e < T):
            raise ValueError(f"hand_window {self.hand_window} out of range for {T} frames")
        if self.part_center is None:
            if self.joint.joint_type == "revolute":
                # offset off the axis so points actually move
                self.part_center = self.joint.axis_point + 0.45 * _any_perpendicular(
                    self.joint.axis_dir
                )
            else:
                self.part_center = np.array([0.0, 0.0, 1.2])
        self.part_center = np.asarray(self.part_center, dtype=float)
        if self.scene_center is None:
            self.scene_center = self.part_center
        self.scene_center = np.asarray(self.scene_center, dtype=float)

    @property
    def frame_count(self) -> int:
        return len(self.camera_path)


@dataclass
class GroundTruthJoint:
    segment: tuple  # (start, end) inclusive
    joint_type: str
    axis_dir: np.ndarray
    axis_point: np.ndarray | None

    def to_dict(self) -> dict:
        return {
            "segment": {"start": int(self.segment[0]), "end": int(self.segment[1])},
            "type": self.joint_type,
            "axis_dir": [float(x) for x in self.axis_dir],
            "axis_point": None
            if self.axis_point is None
            else [float(x) for x in self.axis_point],
        }

    @classmethod
    def from_dict(cls, d) -> "GroundTruthJoint":
        """One joint entry of a ground-truth or results file; a ValueError
        names the bad field."""
        if not isinstance(d, dict):
            raise ValueError(f"not an object, got {type(d).__name__}")
        try:
            seg = Segment.from_dict(d["segment"])
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"segment: needs integers 0 <= start <= end, got {d.get('segment')!r}") from None
        if d.get("type") not in ("revolute", "prismatic"):
            raise ValueError(f"type: unknown type {d.get('type')!r}")
        axis_dir = _vec3(d.get("axis_dir"), "axis_dir")
        if not np.any(axis_dir):
            raise ValueError("axis_dir: must not be zero")
        ap = d.get("axis_point")
        return cls((seg.start, seg.end), d["type"], axis_dir, None if ap is None else _vec3(ap, "axis_point"))


def _vec3(value, name: str) -> np.ndarray:
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        v = None
    if v is None or v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ValueError(f"{name}: must be 3 finite numbers, got {value!r}")
    return v


def _any_perpendicular(n: np.ndarray) -> np.ndarray:
    k = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[k] = 1.0
    p = np.cross(n, e)
    return p / np.linalg.norm(p)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n roughly uniform unit vectors (golden-angle spiral)."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def ramp_profile(T: int, window: tuple, magnitude: float) -> np.ndarray:
    """Smoothstep ramp from 0 to ``magnitude`` across ``window``, flat outside."""
    s, e = window
    if not (0 <= s < e < T):
        raise ValueError(f"window {window} invalid for {T} frames")
    t = np.arange(T, dtype=float)
    x = np.clip((t - s) / (e - s), 0.0, 1.0)
    return magnitude * (3.0 * x * x - 2.0 * x * x * x)


def _look_at_rows(eyes: np.ndarray, target, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Quaternions (M, 4) of camera-to-world rotations with +z looking from
    each of the (M, 3) ``eyes`` toward ``target``."""
    f = np.asarray(target, dtype=float) - eyes
    nf = row_norms(f)
    if np.any(nf <= 0):
        raise ValueError("eye and target coincide")
    f = f / nf[:, None]
    r = np.cross(f, up)
    # forward parallel to up: fall back to another support vector
    r = np.where(row_norms(r)[:, None] < 1e-9, np.cross(f, (0.0, 1.0, 0.0)), r)
    r = r / row_norms(r)[:, None]
    d = np.cross(f, r)  # completes a right-handed (right, down, forward) frame
    return matrix_to_quat(np.stack([r, d, f], axis=-1))


def look_at_pose(eye, target, up=(0.0, 0.0, 1.0)) -> RigidTransform:
    """Camera-to-world pose, +z looking from ``eye`` toward ``target``: a one-row look-at."""
    return RigidTransform(_look_at_rows(np.atleast_2d(eye), target, up)[0], eye)


def arc_camera_path(
    T: int,
    target,
    radius: float = 2.2,
    height: float = 0.3,
    sweep_deg: float = 25.0,
    start_deg: float = 200.0,
) -> list:
    """Camera orbiting the target over a modest arc, one stacked look-at."""
    target = np.asarray(target, dtype=float)
    angles = np.deg2rad(start_deg + np.linspace(0.0, sweep_deg, T))
    eyes = target + np.column_stack((radius * np.cos(angles), radius * np.sin(angles), np.full(T, height)))
    return [RigidTransform(q, eye) for q, eye in zip(_look_at_rows(eyes, target), eyes)]


def generate(cfg: SynthConfig) -> tuple[TrackSet, list]:
    """Render a scene to a TrackSet plus its ground-truth joint list."""
    rng = np.random.default_rng(cfg.seed)
    T = cfg.frame_count
    xi = cfg.joint.twist()

    base_dynamic = cfg.part_center + rng.uniform(
        -0.5 * cfg.part_extent, 0.5 * cfg.part_extent, size=(cfg.n_dynamic, 3)
    )
    static_pts = cfg.scene_center + rng.uniform(
        -0.5 * cfg.scene_extent, 0.5 * cfg.scene_extent, size=(cfg.n_static, 3)
    )

    n_total = cfg.n_dynamic + cfg.n_static
    _, R, t = exp_map(xi, cfg.joint.motion_profile)
    world = np.empty((T, n_total, 3))
    world[:, : cfg.n_dynamic] = apply_each(R[:, None], t[:, None], base_dynamic)
    world[:, cfg.n_dynamic :] = static_pts

    # the draws alone, in the documented order; the geometry below uses them
    rates = (cfg.occlusion_rate, cfg.invalid_depth_rate)
    cols = [c for c, rate in enumerate(rates) if rate > 0]
    noise = np.zeros((T, n_total, 3))
    drawn = np.empty((T, n_total, len(cols)))
    draw_noise, normal, uniform = cfg.noise_sigma > 0, rng.standard_normal, rng.random
    for z, u in zip(list(noise.reshape(-1, 3)), list(drawn.reshape(T * n_total, -1))):
        if draw_noise:
            normal(out=z)
        if cols:
            uniform(out=u)
    draws = np.ones((T, n_total, 2))  # occlusion, dropout; 1.0 is below no rate
    draws[..., cols] = drawn
    if draw_noise:
        # rng.normal(0, sigma) returns 0 + sigma * z: the same operations
        world = world + (0.0 + cfg.noise_sigma * noise)

    path = cfg.camera_path
    _, R_cam, t_cam = inverse((np.array([p.q for p in path]), np.array([p.t for p in path])))
    p_cam = apply_each(R_cam[:, None], t_cam[:, None], world)
    front = p_cam[..., 2] > 1e-6
    occluded = draws[..., 0] < rates[0]
    dropped = draws[..., 1] < rates[1]

    K = cfg.intrinsics
    x, y, z = p_cam[front].T
    uv = np.zeros((T, n_total, 2))
    uv[front, 0] = K.fx * x / z + K.cx
    uv[front, 1] = K.fy * y / z + K.cy
    depth = np.full((T, n_total), np.nan)
    depth[front & ~dropped] = p_cam[..., 2][front & ~dropped]
    vis = front & ~occluded & ~dropped

    hand = np.zeros(T, dtype=bool)
    hand[cfg.hand_window[0] : cfg.hand_window[1] + 1] = True

    tracks = [
        Track(i, uv[:, i].copy(), depth[:, i].copy(), vis[:, i].copy()) for i in range(n_total)
    ]
    ts = TrackSet(
        intrinsics=cfg.intrinsics,
        cam_poses=list(cfg.camera_path),
        hand=hand,
        tracks=tracks,
    )
    gt = [
        GroundTruthJoint(
            segment=cfg.hand_window,
            joint_type=cfg.joint.joint_type,
            axis_dir=cfg.joint.axis_dir.copy(),
            axis_point=None
            if cfg.joint.joint_type == "prismatic"
            else cfg.joint.axis_point.copy(),
        )
    ]
    return ts, gt


# ---------------------------------------------------------------------------
# ground-truth file IO


def save_ground_truth(path, joints) -> None:
    jsonio.dump_json(path, [j.to_dict() for j in joints])


def parse_joints(entries: list, path) -> list:
    """``GroundTruthJoint.from_dict`` of every entry of a joint list file;
    a bad entry raises TrackFileError naming the file, index and field."""
    out = []
    for i, d in enumerate(entries):
        try:
            out.append(GroundTruthJoint.from_dict(d))
        except ValueError as e:
            raise TrackFileError(f"{path}[{i}]: {e}") from e
    return out


def load_ground_truth(path) -> list:
    doc = jsonio.load_json(path)
    if not isinstance(doc, list):
        raise TrackFileError(f"{path}: ground truth must be a list")
    joints = parse_joints(doc, path)
    for i, j in enumerate(joints):
        if j.joint_type == "revolute" and j.axis_point is None:
            raise TrackFileError(f"{path}[{i}]: axis_point: a revolute joint needs one")
    return joints


# ---------------------------------------------------------------------------
# config-from-dict (CLI scene files)


def _object(val, name: str) -> dict:
    if not isinstance(val, dict):
        raise TypeError(f"{name} must be an object, got {val!r}")
    return val


def config_from_dict(doc: dict) -> SynthConfig:
    """Build a SynthConfig from a scene description dictionary.

    Expected shape (see README for a full example)::

        {"seed": 0, "frames": 70,
         "joint": {"type": "revolute", "axis_dir": [..], "axis_point": [..],
                   "motion": {"kind": "ramp", "magnitude": 0.6}},
         "hand_window": [10, 55],
         "camera": {"kind": "arc", "radius": 2.2, "sweep_deg": 25.0},
         "n_dynamic": 48, "n_static": 20,
         "noise_sigma": 0.0, "occlusion_rate": 0.0, "invalid_depth_rate": 0.0}
    """
    try:
        T = int(doc["frames"])
        jd = _object(doc["joint"], "joint")
        hand_window = tuple(int(x) for x in doc.get("hand_window", (0, T - 1)))
        motion = _object(jd.get("motion", {}), "joint.motion")
        if "profile" in motion:
            profile = np.asarray(motion["profile"], dtype=float)
        else:
            profile = ramp_profile(T, hand_window, float(motion.get("magnitude", 0.5)))
        joint = JointSpec(
            joint_type=jd["type"],
            axis_dir=np.asarray(jd["axis_dir"], dtype=float),
            axis_point=None
            if jd.get("axis_point") is None
            else np.asarray(jd["axis_point"], dtype=float),
            motion_profile=profile,
        )
        cam = _object(doc.get("camera", {"kind": "arc"}), "camera")
        kind = cam.get("kind", "arc")
        if kind == "arc":
            target = cam.get("target")
            if target is None:
                target = (
                    joint.axis_point
                    if joint.axis_point is not None
                    else np.array([0.0, 0.0, 1.2])
                )
            path = arc_camera_path(
                T,
                target,
                radius=float(cam.get("radius", 2.2)),
                height=float(cam.get("height", 0.3)),
                sweep_deg=float(cam.get("sweep_deg", 25.0)),
                start_deg=float(cam.get("start_deg", 200.0)),
            )
        elif kind == "poses":
            path = []
            for i, p in enumerate(cam["poses"]):
                try:
                    path.append(RigidTransform.from_dict(p))
                except (TypeError, ValueError) as e:
                    raise ValueError(f"camera.poses[{i}]: {e}") from None
        else:
            raise ValueError(f"unknown camera kind {kind!r}")
        kwargs = {}
        for key in (
            "n_dynamic",
            "n_static",
            "noise_sigma",
            "occlusion_rate",
            "invalid_depth_rate",
            "part_extent",
            "scene_extent",
        ):
            if key in doc:
                kwargs[key] = doc[key]
        if "part_center" in doc:
            kwargs["part_center"] = np.asarray(doc["part_center"], dtype=float)
        if "intrinsics" in doc:
            kwargs["intrinsics"] = CameraIntrinsics.from_dict(doc["intrinsics"])
        return SynthConfig(
            seed=int(doc.get("seed", 0)),
            joint=joint,
            camera_path=path,
            hand_window=hand_window,
            **kwargs,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise TrackFileError(f"scene config: {e}") from e
