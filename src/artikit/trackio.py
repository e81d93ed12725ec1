"""Input data model: track files, pinhole lifting, world-frame transforms.

A track file carries, per frame, the camera pose (camera-to-world) and a hand
detection flag, plus a set of 2D point tracks with per-frame depth and
visibility. Units are meters, pixels, radians throughout; depth is along the
camera z axis.

Schema (version 3)::

    {"version": 3,
     "units": {"length": "m"},
     "intrinsics": {"fx": .., "fy": .., "cx": .., "cy": ..},
     "frames": [{"t": 0, "cam_pose": {"q": [w,x,y,z], "t": [x,y,z]}, "hand": false}, ...],
     "tracks": [{"id": 0, "u": "<base64>", "v": "<base64>", "depth": "<base64>", "vis": "<base64>"}, ...]}

Each of a track's per-frame columns is one base64 string (standard alphabet,
with padding) of its T values' little-endian bytes: float64 for ``u``, ``v``
and ``depth``, where NaN depth means no depth, and one byte of 0 or 1 per
frame for ``vis``. Intrinsics, frames and ids are JSON numbers. In memory
``u`` and ``v`` are the columns of one (T, 2) ``uv`` array, and the camera
poses are one ``lie.pose_stack`` of T rows.

A track ``id`` is an integer in the signed 64-bit range [-2**63, 2**63 - 1].
Validation errors name the offending field and index. A frame where
``vis`` is 1 must carry finite positive depth; depth beyond ``max_depth``
is legal in the file and is marked invalid at lift time.

Loading checks the frames in bulk first and builds the pose stack in one
call; only frames that fail go through the frame-by-frame walk, which names
the first bad element. It then checks each track's structure, decoding its
columns one by one, and joins each column's bytes over all tracks into one
(tracks, frames) array, whose values are checked at once; each track holds
rows of those arrays. Lifting and world mapping take one track or a stack
of tracks with a leading track axis, and a slice of the pose stack; the
pipeline carries a segment's world tracks as one stack, a ``SegmentTrack``,
and pixel coordinates stop at the lift.
Files are written as compact one-line JSON.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from . import jsonio
from .errors import TrackFileError
from .lie import RigidTransform, apply_each, pose_stack, quat_to_matrix

DEFAULT_MAX_DEPTH = 10.0  # meters; depth beyond this is treated as sensor junk
VERSION = 3  # of the track-file schema


@dataclass
class CameraIntrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            val = float(getattr(self, name))
            if not np.isfinite(val):
                raise ValueError(f"intrinsics.{name} must be finite, got {val}")
            setattr(self, name, val)
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")

    def to_dict(self) -> dict:
        return {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy}

    @classmethod
    def from_dict(cls, d: dict) -> "CameraIntrinsics":
        return cls(d["fx"], d["fy"], d["cx"], d["cy"])


@dataclass
class Track:
    """One 2D point track over the whole sequence."""

    id: int
    uv: np.ndarray  # (T, 2) pixels
    depth: np.ndarray  # (T,) meters, NaN where invalid
    vis: np.ndarray  # (T,) bool


@dataclass
class Track3D:
    """A lifted track: per-frame 3D positions plus a validity mask."""

    positions: np.ndarray  # (T, 3) meters
    valid: np.ndarray  # (T,) bool


@dataclass
class SegmentTrack:
    """One segment's world tracks, stacked on a leading track axis.

    ``valid`` is the observation mask (visible and lifted successfully); it is
    preserved through smoothing so estimation never treats interpolated
    positions as observations.
    """

    id: np.ndarray  # (N,)
    world: np.ndarray  # (N, T, 3)
    valid: np.ndarray  # (N, T) bool

    def __len__(self) -> int:
        return len(self.id)

    def take(self, rows) -> "SegmentTrack":
        """The tracks selected by ``rows``, a keep mask or row indices."""
        return SegmentTrack(self.id[rows], self.world[rows], self.valid[rows])


@dataclass
class TrackSet:
    """A full recording: intrinsics, per-frame poses + hand flag, tracks."""

    intrinsics: CameraIntrinsics
    cam_poses: np.recarray = field(default_factory=list)  # pose_stack of T rows, camera-to-world
    hand: np.ndarray = None  # (T,) bool
    tracks: list = field(default_factory=list)  # list[Track]

    def __post_init__(self):
        self.cam_poses = pose_stack(self.cam_poses)

    @property
    def frame_count(self) -> int:
        return len(self.cam_poses)


# ---------------------------------------------------------------------------
# lifting and world transforms


def lift_track(track: Track, intrinsics: CameraIntrinsics, max_depth: float = DEFAULT_MAX_DEPTH) -> Track3D:
    """Backproject a whole track, or a stack of tracks whose arrays carry a
    leading track axis, to camera coordinates.

    A frame is valid when it is visible and its depth is finite, positive and
    at most ``max_depth``; invalid frames get NaN positions, not an exception.
    """
    depth = track.depth
    ok = track.vis & np.isfinite(depth) & (depth > 0) & (depth <= max_depth)
    pos = np.full(depth.shape + (3,), np.nan)
    if np.any(ok):
        d = depth[ok]
        pos[ok, 0] = (track.uv[ok, 0] - intrinsics.cx) * d / intrinsics.fx
        pos[ok, 1] = (track.uv[ok, 1] - intrinsics.cy) * d / intrinsics.fy
        pos[ok, 2] = d
    return Track3D(pos, ok)


def to_world(track3d: Track3D, poses: np.recarray) -> Track3D:
    """Map camera-frame positions to world coordinates with the per-frame
    camera-to-world ``poses``, a ``pose_stack`` of one row per frame.

    ``track3d`` is one track or a stack with a leading track axis.
    """
    ok = track3d.valid
    if len(poses) != ok.shape[-1]:
        raise ValueError(f"pose count {len(poses)} != frame count {ok.shape[-1]}")
    frame = np.nonzero(ok)[-1]
    out = np.full_like(track3d.positions, np.nan)
    out[ok] = apply_each(quat_to_matrix(poses.q)[frame], poses.t[frame], track3d.positions[ok])
    return Track3D(out, ok.copy())


# ---------------------------------------------------------------------------
# file IO


_ID_RULE = "must be an integer in the signed 64-bit range"
_VISIBLE_DEPTH_RULE = "visible frames require finite positive depth"


def _is_track_id(x) -> bool:
    """A JSON integer, or a numpy one in memory, that fits ``_ID_RULE``."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and -2**63 <= x < 2**63


def _require(cond: bool, where: str, msg: str):
    if not cond:
        raise TrackFileError(f"{where}: {msg}")


def _as_number(x, where: str) -> float:
    _require(isinstance(x, (int, float)) and not isinstance(x, bool), where, f"expected a number, got {x!r}")
    try:
        val = float(x)
    except OverflowError:  # an integer too large for a float is no finite number
        val = math.inf
    _require(np.isfinite(val), where, f"expected a finite number, got {x!r}")
    return val


_NUMBER = {int, float}
# a track's per-frame columns, in file order, and the dtype of their bytes
_COLUMNS = {"u": np.dtype("<f8"), "v": np.dtype("<f8"), "depth": np.dtype("<f8"), "vis": np.dtype("u1")}
# per column, in check order within a track: its name, its fault and the text that names it
_VALUE_RULES = (
    ("u", lambda x: ~np.isfinite(x), "expected a finite number"),
    ("v", lambda x: ~np.isfinite(x), "expected a finite number"),
    ("vis", lambda x: x > 1, "expected 0 or 1"),
    ("depth", np.isinf, "expected a finite number or NaN"),
)


def _decode_column(s, T: int, name: str, w: str) -> bytes:
    """The bytes of one track's column ``name``: canonical base64 of T values."""
    _require(isinstance(s, str), f"{w}.{name}", "must be a base64 string")
    try:
        data = base64.b64decode(s, validate=True)
    except ValueError as e:  # a character outside the alphabet, bad padding, non-ASCII
        raise TrackFileError(f"{w}.{name}: not base64: {e}") from None
    pad = s.endswith("=") + s.endswith("==")  # the decoder ignores the unused bits before it
    _require(not pad or base64.b64encode(data[pad - 3:]) == s[-4:].encode(), f"{w}.{name}",
             "not canonical base64: unused bits set before the padding")
    _require_bytes(len(data), T, name, w)
    return data


def _require_bytes(n: int, T: int, name: str, w: str) -> None:
    """Column ``name`` of track ``w`` holds n bytes: one value per frame."""
    want = T * _COLUMNS[name].itemsize
    _require(n == want, f"{w}.{name}", f"holds {n} bytes, expected {want} for {T} frames")


def _check_columns(where: str, cols: dict) -> None:
    """Raise naming the first bad value of the (tracks, frames) columns: track
    by track, u, v, vis and depth within a track; then the first visible
    frame, by track and then by frame, without finite positive depth."""
    bad = np.stack([fault(cols[name]) for name, fault, _ in _VALUE_RULES], axis=1)
    if bad.any():
        k, i, t = map(int, np.argwhere(bad)[0])
        name, _, rule = _VALUE_RULES[i]
        raise TrackFileError(f"{where}.tracks[{k}].{name}[{t}]: {rule}, got {cols[name][k, t].item()!r}")
    depth = cols["depth"]
    bad = (cols["vis"] != 0) & ~(depth > 0)
    if bad.any():
        k, t = map(int, np.argwhere(bad)[0])
        raise TrackFileError(f"{where}.tracks[{k}].depth[{t}]: frame is visible but depth is "
                             f"{depth[k, t].item()!r}; {_VISIBLE_DEPTH_RULE}")


def _frame_arrays(frames: list, where: str):
    """(poses, hand) of the frames: type checks over all frames, then one
    pose stack of the (T, 4) quaternions and (T, 3) translations. Frames
    that fail go to ``_walk_frames``, which refuses exactly those frames.
    """
    try:
        t, hand, qs, ts = zip(*((fr["t"], fr["hand"], fr["cam_pose"]["q"], fr["cam_pose"]["t"]) for fr in frames))
        if (list(t) == list(range(len(frames))) and set(map(type, hand)) == {bool}
                and set(map(type, qs + ts)) == {list} and set(map(len, qs)) == {4} and set(map(len, ts)) == {3}
                and set(map(type, chain.from_iterable(qs + ts))) <= _NUMBER):
            return pose_stack(np.array(qs, dtype=float), np.array(ts, dtype=float)), np.array(hand)
    except (KeyError, TypeError, OverflowError, ValueError):  # no object, a missing key; a huge integer, a bad pose
        pass
    _walk_frames(frames, where)


def _walk_frames(frames: list, where: str) -> None:
    """The frame-by-frame check of frames that ``_frame_arrays`` refused:
    raises naming the first bad element."""
    for i, fr in enumerate(frames):
        w = f"{where}.frames[{i}]"
        _require(isinstance(fr, dict), w, "must be an object")
        _require(fr.get("t") == i, w, f"t must equal the frame index {i}, got {fr.get('t')!r}")
        cp = fr.get("cam_pose")
        _require(isinstance(cp, dict) and "q" in cp and "t" in cp, w, "cam_pose must carry q and t")
        _require(isinstance(cp["q"], list) and len(cp["q"]) == 4, f"{w}.cam_pose.q", "must be a 4-list [w,x,y,z]")
        _require(isinstance(cp["t"], list) and len(cp["t"]) == 3, f"{w}.cam_pose.t", "must be a 3-list")
        pose = [[_as_number(x, f"{w}.cam_pose.{k}[{j}]") for j, x in enumerate(cp[k])] for k in ("q", "t")]
        try:
            RigidTransform(*pose)
        except ValueError as e:
            raise TrackFileError(f"{w}.cam_pose: {e}") from e
        _require(isinstance(fr.get("hand"), bool), f"{w}.hand", "must be a boolean")


@jsonio.collector_paused()
def load_trackset(path) -> TrackSet:
    """Load and validate a track file; errors name field and index.

    A file with several faults reports the first one met in this order: the
    top level, intrinsics and frames; each track's structure (an object, an
    integer id not seen before, u/v/depth/vis canonical base64 strings that
    decode to the frame count's values), track by track; the values, track
    by track: u and v finite, vis 0 or 1, depth finite or NaN; the
    visible-depth rule, by track and then by frame. The cyclic collector
    stays paused until the parsed document is freed.
    """
    doc = jsonio.load_json(path)
    where = str(path)
    _require(isinstance(doc, dict), where, "top level must be an object")
    _require(doc.get("version") == VERSION, where, f"version must be {VERSION}, got {doc.get('version')!r}")
    units = doc.get("units", {})
    _require(isinstance(units, dict), f"{where}.units", "must be an object")
    _require(units.get("length", "m") == "m", f"{where}.units", "length unit must be 'm'")

    _require("intrinsics" in doc, where, "missing intrinsics")
    K = doc["intrinsics"]
    _require(isinstance(K, dict), f"{where}.intrinsics", "must be an object")
    for key in ("fx", "fy", "cx", "cy"):
        _require(key in K, f"{where}.intrinsics", f"missing {key}")
        _as_number(K[key], f"{where}.intrinsics.{key}")
    try:
        intr = CameraIntrinsics.from_dict(K)
    except ValueError as e:
        raise TrackFileError(f"{where}.intrinsics: {e}") from e

    frames = doc.get("frames")
    _require(isinstance(frames, list) and frames, where, "frames must be a non-empty list")
    poses, hand = _frame_arrays(frames, where)

    T = len(frames)
    raw_tracks = doc.get("tracks")
    _require(isinstance(raw_tracks, list), where, "tracks must be a list")
    data = {name: [] for name in _COLUMNS}
    seen_ids = set()
    for k, tr in enumerate(raw_tracks):
        w = f"{where}.tracks[{k}]"
        _require(isinstance(tr, dict), w, "must be an object")
        tid = tr.get("id")
        _require(_is_track_id(tid), f"{w}.id", _ID_RULE)
        _require(tid not in seen_ids, f"{w}.id", f"duplicate track id {tid}")
        seen_ids.add(tid)
        for name in _COLUMNS:
            data[name].append(_decode_column(tr.get(name), T, name, w))
    # one buffer per column over all tracks; a bytearray keeps the arrays writable
    cols = {name: np.frombuffer(bytearray().join(data[name]), dtype).reshape(-1, T) for name, dtype in _COLUMNS.items()}
    _check_columns(where, cols)
    uv = np.stack([cols["u"], cols["v"]], axis=-1)
    tracks = [Track(tr["id"], *rows) for tr, *rows in zip(raw_tracks, uv, cols["depth"], cols["vis"].view(bool))]

    return TrackSet(intrinsics=intr, cam_poses=poses, hand=hand, tracks=tracks)


def save_trackset(path, ts: TrackSet) -> None:
    """Write a track file; load(save(x)) reproduces x exactly.

    Before anything is written, what load would reject raises TrackFileError
    naming its field, in the loader's order and with its texts: no frames; a
    hand that is not one flag per frame; then, track by track, an id outside
    the signed 64-bit range or seen before, a uv not shaped (T, 2), a depth
    or vis that is not one value per frame; then the values and the
    visible-depth rule as ``load_trackset`` checks them. Each column is
    written as the base64 of its little-endian bytes: float64 for u, v and
    depth (NaN depth kept), one 0/1 byte per frame for vis.
    """
    where = str(path)
    T = ts.frame_count
    _require(T > 0, where, "frames must be a non-empty list")
    _require(np.shape(ts.hand) == (T,), f"{where}.hand", f"shape {np.shape(ts.hand)} != frame count ({T},)")
    seen_ids = set()
    for k, tr in enumerate(ts.tracks):
        w = f"{where}.tracks[{k}]"
        _require(_is_track_id(tr.id), f"{w}.id", _ID_RULE)
        _require(tr.id not in seen_ids, f"{w}.id", f"duplicate track id {tr.id}")
        seen_ids.add(tr.id)
        _require(np.shape(tr.uv) == (T, 2), f"{w}.uv", f"shape {np.shape(tr.uv)} != ({T}, 2)")
        for name in ("depth", "vis"):
            x = getattr(tr, name)
            _require(np.ndim(x) == 1, f"{w}.{name}", f"shape {np.shape(x)} != ({T},)")
            _require_bytes(len(x) * _COLUMNS[name].itemsize, T, name, w)
    uv = np.array([tr.uv for tr in ts.tracks], dtype="<f8").reshape(-1, T, 2)
    cols = {
        "u": np.ascontiguousarray(uv[..., 0]),
        "v": np.ascontiguousarray(uv[..., 1]),
        "depth": np.array([tr.depth for tr in ts.tracks], dtype="<f8").reshape(-1, T),
        "vis": np.array([tr.vis for tr in ts.tracks], dtype=bool).reshape(-1, T).view(np.uint8),
    }
    _check_columns(where, cols)
    doc = {
        "version": VERSION,
        "units": {"length": "m"},
        "intrinsics": ts.intrinsics.to_dict(),
        "frames": [
            {"t": i, "cam_pose": {"q": q, "t": t}, "hand": bool(h)}
            for i, (q, t, h) in enumerate(zip(ts.cam_poses.q.tolist(), ts.cam_poses.t.tolist(), ts.hand))
        ],
        "tracks": [
            {"id": int(tr.id), **{name: base64.b64encode(cols[name][k]).decode("ascii") for name in _COLUMNS}}
            for k, tr in enumerate(ts.tracks)
        ],
    }
    Path(path).write_bytes(orjson.dumps(doc, option=orjson.OPT_APPEND_NEWLINE))
