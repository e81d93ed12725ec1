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

A camera path is one ``lie.pose_stack``, built by one stacked look-at.
``generate`` moves the part by one stacked ``exp_map`` of the profile,
collects the per-point draws in that order in a loop that does nothing else,
then inverts the camera path as one stack, projects every frame's points at
once and hands the path to the TrackSet as it is.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field
from numbers import Real

import numpy as np

from . import jsonio
from .bounds import bounded, check_bounds, check_keys, check_value
from .errors import TrackFileError
from .lie import Twist, apply_each, exp_map, inverse, matrix_to_quat, pose_stack, quat_to_matrix, row_norms
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


def _check_hand_window(window) -> None:
    """Both ends of a hand window (start, end) must be integers: they bound
    a slice of frames."""
    for i, x in enumerate(window):
        check_value(f"hand_window[{i}]", x, kind=int)


@dataclass
class SynthConfig:
    seed: int = bounded(MISSING, ">= 0", int)
    joint: JointSpec
    camera_path: np.recarray  # pose_stack of T rows, camera-to-world
    n_dynamic: int = bounded(48, ">= 1", int)
    n_static: int = bounded(20, ">= 0", int)
    noise_sigma: float = bounded(0.0, ">= 0")  # m, isotropic 3D
    occlusion_rate: float = bounded(0.0, "[0, 1)")
    invalid_depth_rate: float = bounded(0.0, "[0, 1)")
    hand_window: tuple = None  # (start, end) inclusive; defaults to full range
    intrinsics: CameraIntrinsics = field(default_factory=lambda: DEFAULT_INTRINSICS)
    part_center: np.ndarray | None = None  # dynamic point cloud center at theta=0
    part_extent: float = bounded(0.5, ">= 0")  # m, cube edge for dynamic points
    scene_center: np.ndarray | None = None  # static background center
    scene_extent: float = bounded(1.6, ">= 0")

    def __setattr__(self, name, value):
        # every assignment, in __init__ or after it, stores a checked stack
        super().__setattr__(name, pose_stack(value) if name == "camera_path" else value)

    def __post_init__(self):
        check_bounds(self)
        T = len(self.camera_path)
        if len(self.joint.motion_profile) != T:
            raise ValueError(
                f"motion_profile length {len(self.joint.motion_profile)} != camera path length {T}"
            )
        if self.hand_window is None:
            self.hand_window = (0, T - 1)
        _check_hand_window(self.hand_window)
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
    """``value`` as 3 finite numbers; a boolean or a string is not a number."""
    try:
        numbers = all(isinstance(x, Real) and not isinstance(x, bool) for x in value)
        v = np.array(value, dtype=float) if numbers else None
    except (TypeError, OverflowError):  # not a sequence; an integer too large for a float
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


def arc_camera_path(
    T: int,
    target,
    radius: float = 2.2,
    height: float = 0.3,
    sweep_deg: float = 25.0,
    start_deg: float = 200.0,
) -> np.recarray:
    """Camera orbiting the target over a modest arc, one stacked look-at."""
    target = np.asarray(target, dtype=float)
    angles = np.deg2rad(start_deg + np.linspace(0.0, sweep_deg, T))
    eyes = target + np.column_stack((radius * np.cos(angles), radius * np.sin(angles), np.full(T, height)))
    return pose_stack(_look_at_rows(eyes, target), eyes)


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
    z, u = noise.reshape(-1, 3), drawn.reshape(T * n_total, -1)  # one row per frame and point
    for i in range(T * n_total):
        if draw_noise:
            normal(out=z[i])
        if cols:
            uniform(out=u[i])
    draws = np.ones((T, n_total, 2))  # occlusion, dropout; 1.0 is below no rate
    draws[..., cols] = drawn
    if draw_noise:
        # rng.normal(0, sigma) returns 0 + sigma * z: the same operations
        world = world + (0.0 + cfg.noise_sigma * noise)

    cam = inverse(cfg.camera_path)
    p_cam = apply_each(np.ascontiguousarray(quat_to_matrix(cam.q))[:, None], cam.t[:, None], world)
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
        cam_poses=cfg.camera_path,
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


def _field(d: dict, key: str, where: str = ""):
    """``d[key]``; a missing key is a ValueError naming it after ``where``."""
    if key not in d:
        raise ValueError(f"{where}missing {key}")
    return d[key]


# the keys a scene config may carry; the scalar ones are SynthConfig fields
_SCALAR_KEYS = ("n_dynamic", "n_static", "noise_sigma", "occlusion_rate", "invalid_depth_rate",
                "part_extent", "scene_extent")
_SCENE_KEYS = ("seed", "frames", "joint", "hand_window", "camera", "part_center", "intrinsics", *_SCALAR_KEYS)
_ARC_KEYS = ("radius", "height", "sweep_deg", "start_deg")
_INTRINSICS_KEYS = ("fx", "fy", "cx", "cy")


def _camera_poses(poses) -> np.recarray:
    """The path of a ``"poses"`` camera: one ``{"q": [w, x, y, z], "t": [x,
    y, z]}`` object per frame, each number read as given."""
    for i, p in enumerate(poses):
        where = f"camera.poses[{i}]"
        if not isinstance(p, dict):
            raise ValueError(f"{where}: must be an object, got {p!r}")
        check_keys(p, ("q", "t"), f"{where}.")
        for key, n in (("q", 4), ("t", 3)):
            v = _field(p, key, f"{where}: ")
            for j, x in enumerate(v if isinstance(v, list) else ()):
                check_value(f"{where}.{key}[{j}]", x)
            if np.shape(v) != (n,):
                raise ValueError(f"{where}: {key} must be a {n}-vector, got shape {np.shape(v)}")
    try:
        return pose_stack([(p["q"], p["t"]) for p in poses])
    except ValueError as e:  # the stack names its first bad row poses[m]
        raise ValueError(f"camera.{e}") from None


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

    Values are read as given, never coerced: a count must be a JSON integer,
    any other number a JSON number, and a key that is not read is refused,
    with the pipeline config's texts (``bounds``).
    """
    try:
        check_keys(doc, _SCENE_KEYS)
        T = _field(doc, "frames")
        check_value("frames", T, ">= 1", int)
        jd = _object(_field(doc, "joint"), "joint")
        check_keys(jd, ("type", "axis_dir", "axis_point", "motion"), "joint.")
        hand_window = doc.get("hand_window", [0, T - 1])
        if not (isinstance(hand_window, list) and len(hand_window) == 2):
            raise ValueError(f"hand_window must be [start, end], got {hand_window!r}")
        _check_hand_window(hand_window)  # before the ramp reads it
        hand_window = tuple(hand_window)
        motion = _object(jd.get("motion", {}), "joint.motion")
        if "profile" in motion:
            check_keys(motion, ("profile",), "joint.motion.")
            profile = motion["profile"]
            if not isinstance(profile, list):
                raise ValueError(f"joint.motion.profile must be a list, got {profile!r}")
            for t, x in enumerate(profile):
                check_value(f"joint.motion.profile[{t}]", x)
            profile = np.asarray(profile, dtype=float)
        else:
            check_keys(motion, ("kind", "magnitude"), "joint.motion.")
            if motion.get("kind", "ramp") != "ramp":
                raise ValueError(f"unknown motion kind {motion['kind']!r}")
            magnitude = motion.get("magnitude", 0.5)
            check_value("joint.motion.magnitude", magnitude)
            profile = ramp_profile(T, hand_window, float(magnitude))
        joint = JointSpec(
            joint_type=_field(jd, "type", "joint: "),
            axis_dir=_vec3(_field(jd, "axis_dir", "joint: "), "joint.axis_dir"),
            axis_point=None
            if jd.get("axis_point") is None
            else _vec3(jd["axis_point"], "joint.axis_point"),
            motion_profile=profile,
        )
        cam = _object(doc.get("camera", {"kind": "arc"}), "camera")
        kind = cam.get("kind", "arc")
        if kind == "arc":
            check_keys(cam, ("kind", "target", *_ARC_KEYS), "camera.")
            target = cam.get("target")
            if target is not None:
                target = _vec3(target, "camera.target")
            elif joint.axis_point is not None:
                target = joint.axis_point
            else:
                target = np.array([0.0, 0.0, 1.2])
            arc = {key: cam[key] for key in _ARC_KEYS if key in cam}
            for key, val in arc.items():
                check_value(f"camera.{key}", val)
            path = arc_camera_path(T, target, **arc)
        elif kind == "poses":
            check_keys(cam, ("kind", "poses"), "camera.")
            path = _camera_poses(_field(cam, "poses", "camera: "))
        else:
            raise ValueError(f"unknown camera kind {kind!r}")
        kwargs = {key: doc[key] for key in _SCALAR_KEYS if key in doc}
        if "part_center" in doc:
            kwargs["part_center"] = _vec3(doc["part_center"], "part_center")
        if "intrinsics" in doc:
            K = _object(doc["intrinsics"], "intrinsics")
            check_keys(K, _INTRINSICS_KEYS, "intrinsics.")
            for key in _INTRINSICS_KEYS:
                check_value(f"intrinsics.{key}", _field(K, key, "intrinsics: "))
            kwargs["intrinsics"] = CameraIntrinsics(*(K[key] for key in _INTRINSICS_KEYS))
        return SynthConfig(
            seed=doc.get("seed", 0),
            joint=joint,
            camera_path=path,
            hand_window=hand_window,
            **kwargs,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise TrackFileError(f"scene config: {e}") from e
