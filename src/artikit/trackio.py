"""Input data model: track files, pinhole lifting, world-frame transforms.

A track file carries, per frame, the camera pose (camera-to-world) and a hand
detection flag, plus a set of 2D point tracks with per-frame depth and
visibility. Units are meters, pixels, radians throughout; depth is along the
camera z axis. NaN depth is encoded as null on disk.

Schema (version 2)::

    {"version": 2,
     "units": {"length": "m"},
     "intrinsics": {"fx": .., "fy": .., "cx": .., "cy": ..},
     "frames": [{"t": 0, "cam_pose": {"q": [w,x,y,z], "t": [x,y,z]}, "hand": false}, ...],
     "tracks": [{"id": 0, "u": [..], "v": [..], "depth": [..|null, ...], "vis": [true, ...]}, ...]}

A track's per-frame fields are flat lists of T scalars; in memory ``u`` and
``v`` are the columns of one (T, 2) ``uv`` array.

A track ``id`` is an integer in the signed 64-bit range [-2**63, 2**63 - 1].
Validation errors name the offending field and index. A frame where
``vis`` is true must carry finite positive depth; depth beyond ``max_depth``
is legal in the file and is marked invalid at lift time.

Loading checks the frames, then all tracks at once, in bulk first: the
element types of the tracks' flat lists, then one (tracks, frames) array per
field with finiteness checks; each track holds rows of those arrays. Frames
or tracks that fail go through the element-by-element walk, which checks a
track's u, v, vis and depth in that order and names the first bad element,
so the bulk path never decides an error message. Lifting and world mapping
take one track or a stack of tracks with a leading track axis; the pipeline
carries a segment's lifted world tracks as one stack, a ``SegmentTrack``,
and pixel coordinates stop at the lift.
Files are written as compact one-line JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np
import orjson

from . import jsonio
from .errors import TrackFileError
from .lie import RigidTransform, apply_each, quat_to_matrix

DEFAULT_MAX_DEPTH = 10.0  # meters; depth beyond this is treated as sensor junk
VERSION = 2  # of the track-file schema


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
    cam_poses: list = field(default_factory=list)  # list[RigidTransform], camera-to-world
    hand: np.ndarray = None  # (T,) bool
    tracks: list = field(default_factory=list)  # list[Track]

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


class PoseStack(NamedTuple):
    """Per-frame camera-to-world poses as stacked arrays, built once and
    shared by every track lifted over those frames."""

    rotations: np.ndarray  # (T, 3, 3)
    translations: np.ndarray  # (T, 3)


def stack_poses(cam_poses) -> PoseStack:
    """Stack a list of RigidTransform into rotation and translation arrays;
    C-contiguous, as ``apply_each`` rounds alike only on alike layouts."""
    return PoseStack(
        np.ascontiguousarray(quat_to_matrix(np.array([p.q for p in cam_poses]).reshape(-1, 4))),
        np.array([p.t for p in cam_poses]).reshape(-1, 3),
    )


def to_world(track3d: Track3D, poses: PoseStack) -> Track3D:
    """Map camera-frame positions to world coordinates with the per-frame
    poses of ``stack_poses``.

    ``track3d`` is one track or a stack with a leading track axis.
    """
    ok = track3d.valid
    if len(poses.rotations) != ok.shape[-1]:
        raise ValueError(f"pose count {len(poses.rotations)} != frame count {ok.shape[-1]}")
    frame = np.nonzero(ok)[-1]
    out = np.full_like(track3d.positions, np.nan)
    out[ok] = apply_each(poses.rotations[frame], poses.translations[frame], track3d.positions[ok])
    return Track3D(out, ok.copy())


# ---------------------------------------------------------------------------
# file IO


_ID_RULE = "must be an integer in the signed 64-bit range"
_VISIBLE_DEPTH_RULE = "visible frames require finite positive depth"


def _require(cond: bool, where: str, msg: str):
    if not cond:
        raise TrackFileError(f"{where}: {msg}")


def _to_float(x) -> float:
    """float(x); an integer too large for a float becomes +-inf, as a float
    literal of that size does in the JSON parser."""
    try:
        return float(x)
    except OverflowError:
        return float("inf") if x > 0 else float("-inf")


def _as_number(x, where: str) -> float:
    _require(isinstance(x, (int, float)) and not isinstance(x, bool), where, f"expected a number, got {x!r}")
    val = _to_float(x)
    _require(np.isfinite(val), where, f"expected a finite number, got {x!r}")
    return val


_PER_FRAME = ("u", "v", "depth", "vis")  # a track's lists of T scalars, in file order
_NUMBER = {int, float}
_NUMBER_OR_NULL = {int, float, type(None)}


def _track_stacks(raw_tracks: list, T: int):
    """(uv, depth, vis) stacks, shaped (N, T, 2), (N, T) and (N, T), of
    structurally checked tracks, or None if an element is bad.

    Type checks over all tracks' flat lists, then one conversion per list.
    None hands the tracks to ``_walk_track``, which finds the first bad element.
    """
    cols = []
    try:
        for name, types in (("u", _NUMBER), ("v", _NUMBER), ("depth", _NUMBER_OR_NULL)):
            flat = list(chain.from_iterable(tr[name] for tr in raw_tracks))
            if not set(map(type, flat)) <= types:
                return None
            cols.append(np.array(flat, dtype=float).reshape(-1, T))  # null becomes NaN
    except OverflowError:  # an integer too large for a float
        return None
    uv, depth = np.stack(cols[:2], axis=-1), cols[2]
    # every NaN depth must come from a null in depth's list: a NaN or infinite literal is bad
    if not np.isfinite(uv).all() or np.count_nonzero(~np.isfinite(depth)) != flat.count(None):
        return None
    flat = list(chain.from_iterable(tr["vis"] for tr in raw_tracks))
    if not set(map(type, flat)) <= {bool}:
        return None
    return uv, depth, np.array(flat, dtype=bool).reshape(-1, T)


def _walk_track(u: list, v: list, depth: list, vis: list, w: str):
    """The element-by-element check: raises naming the first bad element."""
    uv_arr = np.column_stack([[_as_number(x, f"{w}.{name}[{t}]") for t, x in enumerate(col)]
                              for name, col in (("u", u), ("v", v))])
    T = len(vis)
    vis_arr = np.zeros(T, dtype=bool)
    for t, b in enumerate(vis):
        _require(isinstance(b, bool), f"{w}.vis[{t}]", f"must be a boolean, got {b!r}")
        vis_arr[t] = b
    depth_arr = np.full(T, np.nan)
    for t, d in enumerate(depth):
        if d is None:
            continue
        _require(isinstance(d, (int, float)) and not isinstance(d, bool), f"{w}.depth[{t}]", f"expected a number or null, got {d!r}")
        depth_arr[t] = _to_float(d)
        # a visible frame's depth gets the finite-positive check in load_trackset
        _require(vis_arr[t] or np.isfinite(depth_arr[t]), f"{w}.depth[{t}]",
                 f"expected a finite number or null, got {d!r}")
    return uv_arr, depth_arr, vis_arr


def _frame_arrays(frames: list):
    """(poses, hand) of well-formed frames, or None.

    Type checks over all frames, then one (T, 7) array of quaternions and
    translations. None hands the frames to ``_walk_frames``, which finds the
    first bad element.
    """
    try:
        t, hand, qs, ts = zip(*((fr["t"], fr["hand"], fr["cam_pose"]["q"], fr["cam_pose"]["t"]) for fr in frames))
    except (KeyError, TypeError):  # a frame or cam_pose that is no object, a missing key
        return None
    if (list(t) != list(range(len(frames))) or set(map(type, hand)) != {bool}
            or set(map(type, qs + ts)) != {list} or set(map(len, qs)) != {4} or set(map(len, ts)) != {3}
            or not set(map(type, chain.from_iterable(qs + ts))) <= _NUMBER):
        return None
    try:
        poses = [RigidTransform(row[:4], row[4:]) for row in np.array([q + t for q, t in zip(qs, ts)], dtype=float)]
    except (OverflowError, ValueError):  # a huge integer, a non-finite or non-unit pose
        return None
    return poses, np.array(hand)


def _walk_frames(frames: list, where: str):
    """The frame-by-frame check: raises naming the first bad element."""
    poses = []
    hand = np.zeros(len(frames), dtype=bool)
    for i, fr in enumerate(frames):
        w = f"{where}.frames[{i}]"
        _require(isinstance(fr, dict), w, "must be an object")
        _require(fr.get("t") == i, w, f"t must equal the frame index {i}, got {fr.get('t')!r}")
        cp = fr.get("cam_pose")
        _require(isinstance(cp, dict) and "q" in cp and "t" in cp, w, "cam_pose must carry q and t")
        q = cp["q"]
        tt = cp["t"]
        _require(isinstance(q, list) and len(q) == 4, f"{w}.cam_pose.q", "must be a 4-list [w,x,y,z]")
        _require(isinstance(tt, list) and len(tt) == 3, f"{w}.cam_pose.t", "must be a 3-list")
        qv = [_as_number(x, f"{w}.cam_pose.q[{j}]") for j, x in enumerate(q)]
        tv = [_as_number(x, f"{w}.cam_pose.t[{j}]") for j, x in enumerate(tt)]
        try:
            poses.append(RigidTransform(np.array(qv), np.array(tv)))
        except ValueError as e:
            raise TrackFileError(f"{w}.cam_pose: {e}") from e
        _require(isinstance(fr.get("hand"), bool), f"{w}.hand", "must be a boolean")
        hand[i] = fr["hand"]
    return poses, hand


@jsonio.collector_paused()
def load_trackset(path) -> TrackSet:
    """Load and validate a track file; errors name field and index.

    A file with several faults reports the first one met in this order: the
    top level, intrinsics and frames; each track's structure (an object, an
    integer id not seen before, u/v/depth/vis lists of the frame count),
    track by track; the element types and finiteness of every track, track
    by track; the visible-depth rule, by track and then by frame.
    The cyclic collector stays paused until the parsed document is freed.
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
    poses, hand = _frame_arrays(frames) or _walk_frames(frames, where)

    T = len(frames)
    raw_tracks = doc.get("tracks")
    _require(isinstance(raw_tracks, list), where, "tracks must be a list")
    seen_ids = set()
    for k, tr in enumerate(raw_tracks):
        w = f"{where}.tracks[{k}]"
        _require(isinstance(tr, dict), w, "must be an object")
        tid = tr.get("id")
        _require(isinstance(tid, int) and not isinstance(tid, bool) and -2**63 <= tid < 2**63, f"{w}.id", _ID_RULE)
        _require(tid not in seen_ids, f"{w}.id", f"duplicate track id {tid}")
        seen_ids.add(tid)
        for name in _PER_FRAME:
            arr = tr.get(name)
            _require(isinstance(arr, list), f"{w}.{name}", "must be a list")
            _require(len(arr) == T, f"{w}.{name}", f"length {len(arr)} != frame count {T}")
    stacks = _track_stacks(raw_tracks, T)
    if stacks is None:
        walked = [_walk_track(*(tr[name] for name in _PER_FRAME), f"{where}.tracks[{k}]")
                  for k, tr in enumerate(raw_tracks)]
        stacks = tuple(map(np.stack, zip(*walked)))
    uv, depth, vis = stacks
    bad = vis & ~(np.isfinite(depth) & (depth > 0))
    if np.any(bad):
        k, t = map(int, np.argwhere(bad)[0])
        raise TrackFileError(
            f"{where}.tracks[{k}].depth[{t}]: frame is visible but depth is "
            f"{raw_tracks[k]['depth'][t]!r}; {_VISIBLE_DEPTH_RULE}"
        )
    tracks = [Track(tr["id"], *rows) for tr, *rows in zip(raw_tracks, uv, depth, vis)]

    return TrackSet(intrinsics=intr, cam_poses=poses, hand=hand, tracks=tracks)


def save_trackset(path, ts: TrackSet) -> None:
    """Write a track file; load(save(x)) reproduces x exactly.

    Before anything is written, what load would reject raises TrackFileError
    naming its field: no frames (the loader's text); a hand that is not one
    flag per frame; then, track by track, an id outside the signed 64-bit range
    or seen before (the loader's texts); a uv not shaped (T, 2); a depth or
    vis whose length is not the frame count (the loader's text); a
    non-finite pixel coordinate; an infinite depth; a visible frame without
    finite positive depth (the loader's text). Poses and intrinsics are
    checked when built, so the only non-finite value written is a NaN
    depth, which orjson writes as null.
    """
    T = ts.frame_count
    _require(T > 0, str(path), "frames must be a non-empty list")
    _require(np.shape(ts.hand) == (T,), f"{path}.hand", f"shape {np.shape(ts.hand)} != frame count ({T},)")
    seen_ids = set()
    for k, tr in enumerate(ts.tracks):
        w = f"{path}.tracks[{k}]"
        _require(-2**63 <= tr.id < 2**63, f"{w}.id", _ID_RULE)
        _require(tr.id not in seen_ids, f"{w}.id", f"duplicate track id {tr.id}")
        seen_ids.add(tr.id)
        _require(np.shape(tr.uv) == (T, 2), f"{w}.uv", f"shape {np.shape(tr.uv)} != ({T}, 2)")
        for name in ("depth", "vis"):
            n = len(getattr(tr, name))
            _require(n == T, f"{w}.{name}", f"length {n} != frame count {T}")
        bad = np.flatnonzero(~np.all(np.isfinite(tr.uv), axis=1))
        if len(bad):
            t = int(bad[0])
            raise TrackFileError(f"{w}.uv[{t}]: expected finite pixel coordinates, got {tr.uv[t].tolist()}")
        bad = np.flatnonzero(np.isinf(tr.depth))
        if len(bad):
            t = int(bad[0])
            raise TrackFileError(f"{w}.depth[{t}]: expected a finite depth or NaN, got {tr.depth[t]}")
        bad = np.flatnonzero(np.asarray(tr.vis, dtype=bool) & ~(tr.depth > 0))
        if len(bad):
            t, d = int(bad[0]), float(tr.depth[bad[0]])
            raise TrackFileError(f"{w}.depth[{t}]: frame is visible but depth is "
                                 f"{None if np.isnan(d) else d!r}; {_VISIBLE_DEPTH_RULE}")
    doc = {
        "version": VERSION,
        "units": {"length": "m"},
        "intrinsics": ts.intrinsics.to_dict(),
        "frames": [
            {"t": i, "cam_pose": ts.cam_poses[i].to_dict(), "hand": bool(ts.hand[i])}
            for i in range(T)
        ],
        # orjson refuses non-contiguous arrays and spells float32 by its own repr
        "tracks": [
            {
                "id": int(tr.id),
                "u": np.ascontiguousarray(tr.uv[:, 0], dtype=np.float64),
                "v": np.ascontiguousarray(tr.uv[:, 1], dtype=np.float64),
                "depth": np.ascontiguousarray(tr.depth, dtype=np.float64),
                "vis": np.ascontiguousarray(tr.vis, dtype=bool),
            }
            for tr in ts.tracks
        ],
    }
    Path(path).write_bytes(orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE))
