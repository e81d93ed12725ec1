"""Track file IO, backprojection, and world-frame lifting."""

import base64
import gc
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from artikit import jsonio, trackio
from artikit.errors import TrackFileError
from artikit.lie import apply, exp_map, inverse, pose_stack, Twist

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def stacked(poses):
    """A list of pose rows as one pose stack."""
    return pose_stack(poses)


def make_trackset(T=5, n=3) -> trackio.TrackSet:
    rng = np.random.default_rng(0)
    intr = trackio.CameraIntrinsics(500.0, 480.0, 320.0, 240.0)
    poses = [
        exp_map(Twist(np.array([0, 0, 1.0]), np.array([0.1, 0, 0])), 0.05 * t)
        for t in range(T)
    ]
    tracks = []
    for i in range(n):
        uv = rng.uniform(100, 500, (T, 2))
        depth = rng.uniform(0.5, 3.0, T)
        vis = np.ones(T, dtype=bool)
        tracks.append(trackio.Track(i, uv, depth, vis))
    hand = np.zeros(T, dtype=bool)
    hand[1:3] = True
    return trackio.TrackSet(intrinsics=intr, cam_poses=stacked(poses), hand=hand, tracks=tracks)


def test_lift_track_matches_the_pinhole_formula():
    intr = trackio.CameraIntrinsics(525.0, 500.0, 320.0, 240.0)
    rng = np.random.default_rng(1)
    uv = rng.uniform(0, 640, (50, 2))
    z = rng.uniform(0.1, 9.0, 50)
    t3 = trackio.lift_track(trackio.Track(0, uv, z, np.ones(50, dtype=bool)), intr)
    assert t3.valid.all()
    x, y = (uv[:, 0] - intr.cx) * z / intr.fx, (uv[:, 1] - intr.cy) * z / intr.fy
    assert np.array_equal(t3.positions, np.stack([x, y, z], axis=1))
    # projecting back recovers the pixels
    p = t3.positions
    back = np.stack([intr.fx * p[:, 0] / p[:, 2] + intr.cx, intr.fy * p[:, 1] / p[:, 2] + intr.cy], axis=1)
    assert np.max(np.abs(back - uv)) < 1e-9


def test_lift_to_3d_rejects_bad_depth():
    intr = trackio.CameraIntrinsics(525.0, 500.0, 320.0, 240.0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        track = trackio.Track(0, np.array([[10.0, 10.0]]), np.array([bad]), np.array([True]))
        t3 = trackio.lift_track(track, intr, max_depth=np.inf)
        assert not t3.valid[0]
        assert np.all(np.isnan(t3.positions[0]))


def test_lift_track_validity_rules():
    intr = trackio.CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
    uv = np.tile([320.0, 240.0], (5, 1))
    depth = np.array([1.0, np.nan, -2.0, 11.0, 2.0])
    vis = np.array([True, True, True, True, False])
    t3 = trackio.lift_track(trackio.Track(0, uv, depth, vis), intr, max_depth=10.0)
    # invisible, missing, negative and too-deep frames all drop out
    assert list(t3.valid) == [True, False, False, False, False]
    assert np.allclose(t3.positions[0], [0, 0, 1.0])
    assert np.all(np.isnan(t3.positions[1]))


def test_to_world_applies_camera_poses():
    rng = np.random.default_rng(2)
    poses = [
        exp_map(Twist(rng.normal(size=3), rng.normal(size=3)), rng.uniform(0, 1))
        for _ in range(4)
    ]
    pos = rng.normal(size=(4, 3))
    valid = np.array([True, True, False, True])
    w = trackio.to_world(trackio.Track3D(pos.copy(), valid), stacked(poses))
    for t in range(4):
        if valid[t]:
            assert np.array_equal(w.positions[t], apply(poses[t], pos[t]))
    assert np.all(np.isnan(w.positions[2]))
    assert np.array_equal(w.valid, valid)


def test_lift_and_to_world_on_a_stack_equal_per_track_calls():
    rng = np.random.default_rng(4)
    intr = trackio.CameraIntrinsics(525.0, 500.0, 320.0, 240.0)
    N, T = 9, 12
    poses = stacked([
        exp_map(Twist(rng.normal(size=3), rng.normal(size=3)), rng.uniform(0, 1)) for _ in range(T)
    ])
    uv = rng.uniform(0.0, 640.0, (N, T, 2))
    depth = rng.choice([np.nan, -1.0, 0.0, 0.5, 3.0, 12.0], (N, T)) * rng.uniform(0.9, 1.1, (N, T))
    vis = rng.random((N, T)) < 0.8
    stack = trackio.to_world(trackio.lift_track(trackio.Track(None, uv, depth, vis), intr), poses)
    for i in range(N):
        one = trackio.to_world(trackio.lift_track(trackio.Track(i, uv[i], depth[i], vis[i]), intr), poses)
        assert np.array_equal(stack.positions[i], one.positions, equal_nan=True)
        assert np.array_equal(stack.valid[i], one.valid)


def test_world_rigidity_of_static_scene():
    """Points fixed in the world stay put no matter how the camera moves."""
    rng = np.random.default_rng(3)
    world_pts = rng.uniform(-1, 1, (6, 3)) + [0, 0, 3.0]
    poses = [
        exp_map(Twist(np.array([0, 1.0, 0]), np.array([0.2, 0, 0])), 0.1 * t)
        for t in range(5)
    ]
    intr = trackio.CameraIntrinsics(525.0, 525.0, 320.0, 240.0)
    for p in world_pts:
        uv = np.zeros((5, 2))
        depth = np.zeros(5)
        for t, pose in enumerate(poses):
            x, y, depth[t] = apply(inverse(pose), p)
            uv[t] = intr.fx * x / depth[t] + intr.cx, intr.fy * y / depth[t] + intr.cy
        tr = trackio.Track(0, uv, depth, np.ones(5, dtype=bool))
        w = trackio.to_world(trackio.lift_track(tr, intr), stacked(poses))
        assert np.max(np.ptp(w.positions, axis=0)) < 1e-9


def test_save_load_round_trip(tmp_path):
    ts = make_trackset()
    p = tmp_path / "a.json"
    trackio.save_trackset(p, ts)
    ts2 = trackio.load_trackset(p)
    p2 = tmp_path / "b.json"
    trackio.save_trackset(p2, ts2)
    assert p.read_bytes() == p2.read_bytes()
    assert [t.id for t in ts2.tracks] == [t.id for t in ts.tracks]
    assert np.all(ts2.hand == ts.hand)
    for a, b in zip(ts.tracks, ts2.tracks):
        assert np.array_equal(a.uv, b.uv)
        assert np.array_equal(a.depth, b.depth, equal_nan=True)


def test_cam_poses_assigned_after_construction_are_checked(tmp_path):
    """An assignment to ``cam_poses`` goes through ``pose_stack`` as the
    constructor does: a list of a stack's rows is stored as a checked stack
    that saves; a bad row, or a (T, 7) array, raises ``pose_stack``'s text."""
    ts = make_trackset(T=5)
    want = ts.cam_poses.copy()
    ts.cam_poses = list(want)
    assert isinstance(ts.cam_poses, np.recarray) and ts.cam_poses.tobytes() == want.tobytes()
    trackio.save_trackset(tmp_path / "t.json", ts)
    assert trackio.load_trackset(tmp_path / "t.json").cam_poses.tobytes() == want.tobytes()
    bad = list(want)
    bad[2] = (2.0 * want.q[2], want.t[2])
    with pytest.raises(ValueError, match=r"^poses\[2\]: q must be near unit norm, got \|q\| = 2\.0$"):
        ts.cam_poses = bad
    with pytest.raises(ValueError, match=r"^poses must be one row per pose, got shape \(5, 7\)$"):
        ts.cam_poses = np.hstack((want.q, want.t))
    assert ts.cam_poses.tobytes() == want.tobytes()  # a refused assignment leaves the stack as it was


def test_trackset_joined_from_per_frame_pose_rows(tmp_path):
    """Recordings played back to back join their camera poses as a Python
    list of per-frame rows, each read by ``.q`` and ``.t``: the set equals
    the one built from the stacked arrays and saves, loads and saves again
    to the same bytes."""
    a, b = make_trackset(T=5), make_trackset(T=3)
    b.cam_poses = pose_stack(b.cam_poses.q[::-1], b.cam_poses.t + 1.0)
    tracks = [trackio.Track(x.id, *(np.concatenate([getattr(x, f), getattr(y, f)]) for f in ("uv", "depth", "vis")))
              for x, y in zip(a.tracks, b.tracks)]
    hand = np.concatenate([a.hand, b.hand])
    joined = trackio.TrackSet(a.intrinsics, [p for s in (a, b) for p in s.cam_poses], hand, tracks)
    whole = trackio.TrackSet(a.intrinsics, pose_stack(np.concatenate([a.cam_poses.q, b.cam_poses.q]),
                                                      np.concatenate([a.cam_poses.t, b.cam_poses.t])), hand, tracks)
    assert isinstance(joined.cam_poses, np.recarray)
    assert joined.cam_poses.tobytes() == whole.cam_poses.tobytes()
    assert joined.frame_count == whole.frame_count == 8
    assert joined.cam_poses[5:8].tobytes() == b.cam_poses.tobytes()
    for t, pose in enumerate(joined.cam_poses):
        src, k = (a, t) if t < 5 else (b, t - 5)
        assert np.array_equal(pose.q, src.cam_poses.q[k]) and np.array_equal(pose.t, src.cam_poses.t[k])
    p, again = tmp_path / "joined.json", tmp_path / "again.json"
    trackio.save_trackset(p, joined)
    trackio.save_trackset(tmp_path / "whole.json", whole)
    assert p.read_bytes() == (tmp_path / "whole.json").read_bytes()
    trackio.save_trackset(again, trackio.load_trackset(p))
    assert again.read_bytes() == p.read_bytes()


def test_depth_nan_is_written_as_a_nan_double(tmp_path):
    ts = make_trackset()
    ts.tracks[0].depth[2] = np.nan
    ts.tracks[0].vis[2] = False
    p = tmp_path / "a.json"
    trackio.save_trackset(p, ts)
    doc = json.loads(p.read_text())
    assert np.isnan(column(doc, 0, "depth")[2]) and column(doc, 0, "vis")[2] == 0
    back = trackio.load_trackset(p)
    assert np.isnan(back.tracks[0].depth[2])


def test_save_rejects_non_finite_uv(tmp_path):
    ts = make_trackset()
    ts.tracks[1].uv[3] = [np.nan, 240.0]
    ts.tracks[1].depth[3] = np.nan
    ts.tracks[1].vis[3] = False
    p = tmp_path / "a.json"
    with pytest.raises(TrackFileError, match=r"tracks\[1\]\.u\[3\]: expected a finite number, got nan"):
        trackio.save_trackset(p, ts)
    assert not p.exists()


# the dtype of each column's bytes, as the file format specifies it
DTYPES = {"u": "<f8", "v": "<f8", "depth": "<f8", "vis": "u1"}


def encode(values, name) -> str:
    return base64.b64encode(np.asarray(values, DTYPES[name]).tobytes()).decode("ascii")


def column(doc, k, name) -> np.ndarray:
    """Track k's column ``name`` of a parsed file, decoded to a writable array."""
    return np.frombuffer(base64.b64decode(doc["tracks"][k][name]), DTYPES[name]).copy()


def set_value(doc, k, name, t, value):
    """Set frame t of track k's column ``name`` in a parsed file."""
    col = column(doc, k, name)
    col[t] = value
    doc["tracks"][k][name] = encode(col, name)


def test_written_file_is_version_3_with_base64_columns(tmp_path):
    ts = make_trackset()
    ts.tracks[1].depth[2], ts.tracks[1].vis[2] = np.nan, False
    p = tmp_path / "a.json"
    trackio.save_trackset(p, ts)
    doc = json.loads(p.read_bytes())
    assert list(doc) == ["version", "units", "intrinsics", "frames", "tracks"]
    assert doc["version"] == 3 and doc["units"] == {"length": "m"}
    for tr, want in zip(doc["tracks"], ts.tracks, strict=True):
        assert list(tr) == ["id", "u", "v", "depth", "vis"]
        assert tr["id"] == want.id
        for name, values in (("u", want.uv[:, 0]), ("v", want.uv[:, 1]), ("depth", want.depth),
                             ("vis", want.vis.astype(np.uint8))):
            assert tr[name] == encode(values, name)
    assert column(doc, 1, "vis").tolist() == [1, 1, 0, 1, 1]


def _list_columns(d, version):
    """Rewrite a parsed file in an old layout: number lists with null for NaN."""
    d["version"] = version
    for k, tr in enumerate(d["tracks"]):
        u, v, depth = (column(d, k, name).tolist() for name in ("u", "v", "depth"))
        tr["depth"] = [None if math.isnan(x) else x for x in depth]
        tr["vis"] = [bool(b) for b in column(d, k, "vis")]
        if version == 1:
            del tr["u"], tr["v"]
            tr["uv"] = [list(pt) for pt in zip(u, v)]
        else:
            tr["u"], tr["v"] = u, v


def _refused_as_old(tmp_path, version):
    p = _doc(tmp_path, lambda d: _list_columns(d, version))
    with pytest.raises(TrackFileError) as ei:
        trackio.load_trackset(p)
    assert str(ei.value) == f"{p}: version must be 3, got {version}"


def test_loader_refuses_a_version_1_file(tmp_path):
    """A file of the first layout, one [u, v] list per frame, is refused by
    the version rule; no reader of it is kept."""
    _refused_as_old(tmp_path, 1)


def test_loader_refuses_a_version_2_file(tmp_path):
    """A file of the second layout, flat number lists per frame with null
    for no depth, is refused by the version rule; no reader of it is kept."""
    _refused_as_old(tmp_path, 2)


@pytest.mark.parametrize("column_name", ["u", "v"])
@pytest.mark.parametrize(
    "bad, reason",
    [
        (math.nan, "expected a finite number, got nan"),
        (-math.inf, "expected a finite number, got -inf"),
        (math.inf, "expected a finite number, got inf"),
    ],
    ids=["nan", "minus-infinity", "infinity"],
)
def test_loader_names_a_bad_pixel_element(tmp_path, column_name, bad, reason):
    p = _doc(tmp_path, lambda d: set_value(d, 1, column_name, 2, bad))
    with pytest.raises(TrackFileError) as ei:
        trackio.load_trackset(p)
    assert str(ei.value) == f"{p}.tracks[1].{column_name}[2]: {reason}"


def hide_with_depth(doc, k, t, depth):
    set_value(doc, k, "vis", t, 0)
    set_value(doc, k, "depth", t, depth)


def _doc(tmp_path, mutate):
    ts = make_trackset()
    p = tmp_path / "x.json"
    trackio.save_trackset(p, ts)
    doc = json.loads(p.read_text())
    mutate(doc)
    p.write_text(json.dumps(doc))
    return p


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(version=1), "version"),
        (lambda d: d.pop("intrinsics"), "intrinsics"),
        (lambda d: d["frames"][1].update(t=7), "frames[1]"),
        (lambda d: d["frames"][0].pop("hand"), "hand"),
        (lambda d: d["tracks"][0].update(id=d["tracks"][1]["id"]), "duplicate"),
        pytest.param(lambda d: d["tracks"][0].update(u=encode(column(d, 0, "u")[:-1], "u")),
                     "tracks[0].u: holds 32 bytes, expected 40 for 5 frames", id="u-short"),
        pytest.param(lambda d: d["tracks"][2].pop("v"), "tracks[2].v: must be a base64 string", id="v-missing"),
        (lambda d: set_value(d, 0, "vis", 0, 2), "vis[0]"),
        (lambda d: set_value(d, 0, "depth", 0, math.nan), "depth[0]"),
        (lambda d: set_value(d, 0, "depth", 0, -math.inf), "depth[0]"),
        (lambda d: d["frames"][0]["cam_pose"].pop("q"), "cam_pose"),
        # each of these fails a check of the array path and must get the
        # element walk's message
        pytest.param(lambda d: d["frames"].__setitem__(1, []),
                     "frames[1]: must be an object", id="frame-list"),
        pytest.param(lambda d: d["frames"][2].update(t=True),
                     "frames[2]: t must equal the frame index 2, got True", id="frame-t-true"),
        pytest.param(lambda d: d["frames"][1]["cam_pose"]["q"].__setitem__(0, True),
                     "frames[1].cam_pose.q[0]: expected a number, got True", id="q-true"),
        pytest.param(lambda d: d["frames"][1]["cam_pose"]["q"].pop(),
                     "frames[1].cam_pose.q: must be a 4-list", id="q-short"),
        pytest.param(lambda d: d["frames"][2]["cam_pose"].update(t="up"),
                     "frames[2].cam_pose.t: must be a 3-list", id="t-string"),
        pytest.param(lambda d: d["frames"][1]["cam_pose"]["t"].__setitem__(2, math.nan),
                     "frames[1].cam_pose.t[2]: expected a finite number, got nan", id="t-nan"),
        pytest.param(lambda d: d["frames"][3]["cam_pose"].update(q=[2.0, 0.0, 0.0, 0.0]),
                     "frames[3].cam_pose: q must be near unit norm", id="q-not-unit"),
        pytest.param(lambda d: d["frames"][2].update(hand=1),
                     "frames[2].hand: must be a boolean", id="hand-int"),
        pytest.param(lambda d: set_value(d, 0, "v", 1, math.nan),
                     "tracks[0].v[1]: expected a finite number, got nan", id="uv-nan"),
        pytest.param(lambda d: set_value(d, 2, "u", 4, math.inf),
                     "tracks[2].u[4]: expected a finite number, got inf", id="uv-infinity"),
        pytest.param(lambda d: set_value(d, 0, "depth", 0, math.inf),
                     "tracks[0].depth[0]: expected a finite number or NaN, got inf",
                     id="depth-infinity-visible"),
        pytest.param(lambda d: set_value(d, 0, "depth", 3, math.nan),
                     "tracks[0].depth[3]: frame is visible but depth is nan",
                     id="depth-nan-visible"),
        pytest.param(lambda d: d["tracks"][0].update(id=True),
                     "tracks[0].id: must be an integer", id="id-bool"),
        # a hidden frame's depth is a finite number or NaN
        pytest.param(lambda d: hide_with_depth(d, 1, 2, math.inf),
                     "tracks[1].depth[2]: expected a finite number or NaN, got inf",
                     id="depth-infinity-hidden"),
        pytest.param(lambda d: hide_with_depth(d, 0, 4, -math.inf),
                     "tracks[0].depth[4]: expected a finite number or NaN, got -inf",
                     id="depth-minus-infinity-hidden"),
        # a column that is no base64 string of one value per frame
        pytest.param(lambda d: d["tracks"][1].update(u=column(d, 1, "u").tolist()),
                     "tracks[1].u: must be a base64 string", id="number-list"),
        pytest.param(lambda d: d["tracks"][1].update(depth=None),
                     "tracks[1].depth: must be a base64 string", id="null"),
        pytest.param(lambda d: d["tracks"][2].update(vis=1),
                     "tracks[2].vis: must be a base64 string", id="number"),
        pytest.param(lambda d: d["tracks"][0].update(depth=True),
                     "tracks[0].depth: must be a base64 string", id="depth-true"),
        pytest.param(lambda d: d["tracks"][1].update(u=True),
                     "tracks[1].u: must be a base64 string", id="uv-true"),
        pytest.param(lambda d: d["tracks"][2].update(vis="AQ-B"),
                     "tracks[2].vis: not base64: ", id="outside-alphabet"),
        pytest.param(lambda d: d["tracks"][0].update(v=d["tracks"][0]["v"].rstrip("=")),
                     "tracks[0].v: not base64: ", id="padding-missing"),
        pytest.param(lambda d: d["tracks"][0].update(v=d["tracks"][0]["v"] + "AAAA"),
                     "tracks[0].v: not base64: ", id="data-after-padding"),
        pytest.param(lambda d: d["tracks"][1].update(u=" " + d["tracks"][1]["u"]),
                     "tracks[1].u: not base64: ", id="space"),
        pytest.param(lambda d: d["tracks"][1].update(u="\u00e9" + d["tracks"][1]["u"][1:]),
                     "tracks[1].u: not base64: string argument should contain only ASCII characters",
                     id="non-ascii"),
        pytest.param(lambda d: d["tracks"][2].update(vis="AQEBAQF="),  # was AQEBAQE=
                     "tracks[2].vis: not canonical base64: unused bits set before the padding",
                     id="vis-unused-bits"),
        pytest.param(lambda d: d["tracks"][0].update(u=d["tracks"][0]["u"][:-3] + "B=="),
                     "tracks[0].u: not canonical base64: unused bits set before the padding",
                     id="u-unused-bits"),
        pytest.param(lambda d: d["tracks"][1].update(vis=encode([1] * 6, "vis")),
                     "tracks[1].vis: holds 6 bytes, expected 5 for 5 frames", id="vis-long"),
        pytest.param(lambda d: d["tracks"][2].update(depth=encode([1] * 5, "vis")),
                     "tracks[2].depth: holds 5 bytes, expected 40 for 5 frames", id="depth-as-bytes"),
        pytest.param(lambda d: d["tracks"][0].update(u=""),
                     "tracks[0].u: holds 0 bytes, expected 40 for 5 frames", id="empty"),
        pytest.param(lambda d: set_value(d, 1, "vis", 3, 2),
                     "tracks[1].vis[3]: expected 0 or 1, got 2", id="vis-2"),
        pytest.param(lambda d: set_value(d, 2, "vis", 0, 255),
                     "tracks[2].vis[0]: expected 0 or 1, got 255", id="vis-255"),
        pytest.param(lambda d: set_value(d, 1, "depth", 4, -0.0),
                     "tracks[1].depth[4]: frame is visible but depth is -0.0; "
                     "visible frames require finite positive depth", id="visible-negative-zero"),
    ],
)
def test_loader_reports_field_paths(tmp_path, mutate, fragment):
    p = _doc(tmp_path, mutate)
    with pytest.raises(TrackFileError) as ei:
        trackio.load_trackset(p)
    assert fragment in str(ei.value)


# a file orjson accepts but for its ids, and one it refuses (a NaN under a
# key the loader never reads): the id rule gives one answer for both
PARSERS = pytest.mark.parametrize("nan", [False, True], ids=["orjson-accepts", "orjson-refuses"])


def _id_doc(tmp_path, tid, nan):
    p = _doc(tmp_path, lambda d: d["tracks"][0].update(id=tid) or (nan and d.update(note=math.nan)))
    refused = False
    try:
        jsonio.orjson.loads(p.read_bytes())
    except jsonio.orjson.JSONDecodeError:
        refused = True
    assert refused is nan
    return p


@PARSERS
@pytest.mark.parametrize("tid", [2**63, -2**63 - 1, 2**70], ids=["2**63", "-2**63-1", "2**70"])
def test_loader_rejects_track_id_outside_int64_whichever_parser_runs(tmp_path, tid, nan):
    p = _id_doc(tmp_path, tid, nan)
    with pytest.raises(TrackFileError) as ei:
        trackio.load_trackset(p)
    assert str(ei.value) == f"{p}.tracks[0].id: must be an integer in the signed 64-bit range"


@pytest.mark.parametrize("tid", [2**63, -2**63 - 1, 1.5, True, np.float64(2.0)],
                         ids=["2**63", "-2**63-1", "fraction", "true", "float64"])
def test_save_rejects_track_id_outside_int64(tmp_path, tid):
    """An id that is no integer is refused too: it would be written as
    another id (1.5 as 1, true as 1)."""
    ts = make_trackset()
    ts.tracks[1].id = tid
    p = tmp_path / "x.json"
    with pytest.raises(TrackFileError) as ei:
        trackio.save_trackset(p, ts)
    assert str(ei.value) == f"{p}.tracks[1].id: must be an integer in the signed 64-bit range"
    assert not p.exists()


def _set(obj, **values):
    for name, value in values.items():
        setattr(obj, name, value)


@pytest.mark.parametrize(
    "break_set, break_doc, message",
    [
        pytest.param(lambda ts: _set(ts.tracks[2], id=0), lambda d: d["tracks"][2].update(id=0),
                     ".tracks[2].id: duplicate track id 0", id="duplicate-id"),
        pytest.param(lambda ts: _set(ts.tracks[1], depth=ts.tracks[1].depth[:-1]),
                     lambda d: d["tracks"][1].update(depth=encode(column(d, 1, "depth")[:-1], "depth")),
                     ".tracks[1].depth: holds 32 bytes, expected 40 for 5 frames", id="depth-short"),
        pytest.param(lambda ts: _set(ts.tracks[0], depth=np.append(ts.tracks[0].depth, 1.0)),
                     lambda d: d["tracks"][0].update(depth=encode(np.append(column(d, 0, "depth"), 1.0), "depth")),
                     ".tracks[0].depth: holds 48 bytes, expected 40 for 5 frames", id="depth-long"),
        pytest.param(lambda ts: _set(ts.tracks[2], vis=ts.tracks[2].vis[1:]),
                     lambda d: d["tracks"][2].update(vis=encode(column(d, 2, "vis")[1:], "vis")),
                     ".tracks[2].vis: holds 4 bytes, expected 5 for 5 frames", id="vis-short"),
        pytest.param(lambda ts: ts.tracks[2].uv.__setitem__((1, 0), np.nan),
                     lambda d: set_value(d, 2, "u", 1, math.nan),
                     ".tracks[2].u[1]: expected a finite number, got nan", id="u-nan"),
        pytest.param(lambda ts: ts.tracks[0].uv.__setitem__((4, 1), -np.inf),
                     lambda d: set_value(d, 0, "v", 4, -math.inf),
                     ".tracks[0].v[4]: expected a finite number, got -inf", id="v-minus-infinity"),
        pytest.param(lambda ts: ts.tracks[1].depth.__setitem__(0, np.inf),
                     lambda d: set_value(d, 1, "depth", 0, math.inf),
                     ".tracks[1].depth[0]: expected a finite number or NaN, got inf", id="depth-infinity"),
        pytest.param(lambda ts: _set(ts.tracks[1], depth=np.where(np.arange(5) == 3, np.nan, ts.tracks[1].depth)),
                     lambda d: set_value(d, 1, "depth", 3, math.nan),
                     ".tracks[1].depth[3]: frame is visible but depth is nan; "
                     "visible frames require finite positive depth", id="visible-depth-nan"),
        pytest.param(lambda ts: _set(ts.tracks[0], depth=np.where(np.arange(5) == 2, -1.0, ts.tracks[0].depth)),
                     lambda d: set_value(d, 0, "depth", 2, -1.0),
                     ".tracks[0].depth[2]: frame is visible but depth is -1.0; "
                     "visible frames require finite positive depth", id="visible-depth-negative"),
        # faults in two tracks: the first in the loader's order wins
        pytest.param(lambda ts: ts.tracks[0].uv.__setitem__((0, 0), np.nan) or _set(ts.tracks[2], id=1),
                     lambda d: set_value(d, 0, "u", 0, math.nan) or d["tracks"][2].update(id=1),
                     ".tracks[2].id: duplicate track id 1", id="structure-before-values"),
        pytest.param(lambda ts: ts.tracks[0].depth.__setitem__(1, -1.0) or ts.tracks[2].uv.__setitem__((3, 1), np.nan),
                     lambda d: set_value(d, 0, "depth", 1, -1.0) or set_value(d, 2, "v", 3, math.nan),
                     ".tracks[2].v[3]: expected a finite number, got nan", id="values-before-visible-depth"),
        pytest.param(lambda ts: _set(ts, cam_poses=ts.cam_poses[:0], hand=np.zeros(0, dtype=bool)),
                     lambda d: d.update(frames=[]), ": frames must be a non-empty list", id="no-frames"),
        # the hand flags live in the frames on disk, so only the set can break them
        pytest.param(lambda ts: _set(ts, hand=ts.hand[:3]), None,
                     ".hand: shape (3,) != frame count (5,)", id="hand-short"),
        pytest.param(lambda ts: _set(ts, hand=np.append(ts.hand, True)), None,
                     ".hand: shape (6,) != frame count (5,)", id="hand-long"),
        pytest.param(lambda ts: _set(ts, hand=None), None,
                     ".hand: shape () != frame count (5,)", id="hand-none"),
        # the columns are flat on disk, so only the set can break their shapes
        pytest.param(lambda ts: _set(ts.tracks[1], uv=ts.tracks[1].uv[:-1]), None,
                     ".tracks[1].uv: shape (4, 2) != (5, 2)", id="uv-short"),
        pytest.param(lambda ts: _set(ts.tracks[1], uv=np.hstack([ts.tracks[1].uv, ts.tracks[1].uv[:, :1]])), None,
                     ".tracks[1].uv: shape (5, 3) != (5, 2)", id="uv-triples"),
        pytest.param(lambda ts: _set(ts.tracks[0], uv=ts.tracks[0].uv[:, 0]), None,
                     ".tracks[0].uv: shape (5,) != (5, 2)", id="uv-flat"),
        pytest.param(lambda ts: _set(ts.tracks[2], depth=np.column_stack([ts.tracks[2].depth] * 2)), None,
                     ".tracks[2].depth: shape (5, 2) != (5,)", id="depth-two-columns"),
        pytest.param(lambda ts: _set(ts.tracks[0], vis=True), None,
                     ".tracks[0].vis: shape () != (5,)", id="vis-scalar"),
    ],
)
def test_save_refuses_what_load_refuses_with_the_loaders_text(tmp_path, break_set, break_doc, message):
    ts = make_trackset()
    break_set(ts)
    p = tmp_path / "a.json"
    with pytest.raises(TrackFileError) as ei:
        trackio.save_trackset(p, ts)
    assert str(ei.value) == f"{p}{message}"
    assert not p.exists()
    if break_doc is None:
        return
    q = _doc(tmp_path, break_doc)
    with pytest.raises(TrackFileError) as ei:
        trackio.load_trackset(q)
    assert str(ei.value) == f"{q}{message}"


def _array_inputs(T):
    """Tracks whose arrays are views, float32 or integers; all frames visible
    at positive depth."""
    rng = np.random.default_rng(7)
    wide = rng.uniform(1, 640, (T, 5))
    stacked = rng.uniform(1, 640, (T, 3, 2)).transpose(1, 0, 2)  # a row is a strided (T, 2) view
    vis = np.ones((T, 2), dtype=bool)
    return [
        trackio.Track(0, wide[:, 1:3], wide[:, 4], vis[:, 1]),
        trackio.Track(1, stacked[1], stacked[2, :, 0], vis[:, 0]),
        trackio.Track(2, wide[:, :2].astype(np.float32), wide[:, 3].astype(np.float32), vis[:, 0].copy()),
        trackio.Track(3, np.arange(2 * T).reshape(T, 2), np.arange(1, T + 1, dtype=np.int32),
                      np.ones(T, dtype=np.uint8)),
    ]


@pytest.mark.parametrize("T, n", [(5, 4), (1, 4), (5, 0)], ids=["arrays", "one-frame", "no-tracks"])
def test_save_takes_views_float32_and_integer_arrays(tmp_path, T, n):
    ts = make_trackset(T, n=0)
    ts.tracks = _array_inputs(T)[:n]
    for k, tr in enumerate(ts.tracks[2:]):  # numpy integer ids
        tr.id = (np.int64, np.uint8)[k](tr.id)
    if T > 1 and n:  # orjson refuses the views as they are
        assert not any(tr.uv.flags.c_contiguous or tr.depth.flags.c_contiguous for tr in ts.tracks[:2])
    p = tmp_path / "a.json"
    trackio.save_trackset(p, ts)
    back = trackio.load_trackset(p)
    assert [t.id for t in back.tracks] == [t.id for t in ts.tracks]
    for a, b in zip(ts.tracks, back.tracks, strict=True):
        for name, dtype in (("uv", np.float64), ("depth", np.float64), ("vis", bool)):
            want = np.asarray(getattr(a, name), dtype=dtype)
            got = getattr(b, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


# numbers that orjson and repr spell differently, or that sit at the edges of
# a double: subnormals, the largest finite, a negative zero
SPELLINGS = [1e-05, 1e16, 1e22, -0.0, 5e-324, 2.5e-310, 1.7976931348623157e308]


@pytest.mark.parametrize("v", SPELLINGS, ids=repr)
def test_writer_spellings_read_back_bit_exactly(tmp_path, v):
    """Each value goes where the schema allows it: uv and pose translations
    take any finite number, depth a positive one on a visible frame (else a
    hidden frame), focal lengths a positive one, principal points any."""
    T = 2
    ts = make_trackset(T, n=0)
    ts.intrinsics = trackio.CameraIntrinsics(v if v > 0 else 1.0, v if v > 0 else 1.0, v, v)
    ts.cam_poses = pose_stack(ts.cam_poses.q, np.full((T, 3), v))
    ts.tracks = [trackio.Track(0, np.full((T, 2), v), np.full(T, v), np.full(T, v > 0))]
    p = tmp_path / "a.json"
    trackio.save_trackset(p, ts)

    def bits(x):
        return np.asarray(x, dtype=np.float64).view(np.uint64)

    doc = json.loads(p.read_bytes())
    K = doc["intrinsics"]
    read = [K["cx"], K["cy"], *(fr["cam_pose"]["t"] for fr in doc["frames"]),
            *(column(doc, 0, name) for name in ("u", "v", "depth"))]
    loaded = trackio.load_trackset(p)
    read += [loaded.intrinsics.cx, loaded.intrinsics.cy, *(pose.t for pose in loaded.cam_poses),
             loaded.tracks[0].uv, loaded.tracks[0].depth]
    if v > 0:
        read += [K["fx"], K["fy"], loaded.intrinsics.fx, loaded.intrinsics.fy]
    for x in read:
        assert np.all(bits(x) == bits(v))
    q = tmp_path / "b.json"
    trackio.save_trackset(q, loaded)
    assert q.read_bytes() == p.read_bytes()


@PARSERS
@pytest.mark.parametrize("tid", [2**63 - 1, -2**63], ids=["2**63-1", "-2**63"])
def test_loader_accepts_track_id_at_the_int64_bounds(tmp_path, tid, nan):
    p = _id_doc(tmp_path, tid, nan)
    assert trackio.load_trackset(p).tracks[0].id == tid


def two_faults(first, second):
    def mutate(d):
        first(d)
        second(d)
    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(two_faults(lambda d: set_value(d, 0, "depth", 0, math.nan),
                                lambda d: d["tracks"][2].update(id=d["tracks"][1]["id"])),
                     "tracks[2].id: duplicate track id 1", id="structure-before-visible-depth"),
        pytest.param(two_faults(lambda d: set_value(d, 0, "depth", 0, math.nan),
                                lambda d: set_value(d, 1, "v", 2, math.nan)),
                     "tracks[1].v[2]: expected a finite number, got nan", id="elements-before-visible-depth"),
        pytest.param(two_faults(lambda d: set_value(d, 2, "vis", 1, 2),
                                lambda d: set_value(d, 1, "depth", 4, math.inf)),
                     "tracks[1].depth[4]: expected a finite number or NaN, got inf", id="elements-by-track"),
        pytest.param(two_faults(lambda d: set_value(d, 0, "u", 3, math.nan),
                                lambda d: d["tracks"][2].update(vis="AQ-B")),
                     "tracks[2].vis: not base64: ", id="structure-before-values"),
        pytest.param(two_faults(lambda d: d["tracks"][2].update(u="AQ-B"),
                                lambda d: d["tracks"][1].update(depth=encode([1.0], "depth"))),
                     "tracks[1].depth: holds 8 bytes, expected 40 for 5 frames", id="structure-by-track"),
        pytest.param(two_faults(lambda d: d["tracks"][1].update(vis=""),
                                lambda d: d["tracks"][1].update(depth="")),
                     "tracks[1].depth: holds 0 bytes", id="structure-in-file-order"),
        pytest.param(two_faults(lambda d: set_value(d, 1, "v", 0, math.nan),
                                lambda d: set_value(d, 1, "u", 4, math.inf)),
                     "tracks[1].u[4]: expected a finite number, got inf", id="u-before-v"),
        pytest.param(two_faults(lambda d: set_value(d, 1, "vis", 0, 2),
                                lambda d: set_value(d, 1, "v", 3, math.inf)),
                     "tracks[1].v[3]: expected a finite number, got inf", id="v-before-vis"),
        pytest.param(two_faults(lambda d: set_value(d, 0, "depth", 0, math.inf),
                                lambda d: set_value(d, 0, "vis", 4, 2)),
                     "tracks[0].vis[4]: expected 0 or 1, got 2", id="vis-before-depth"),
        pytest.param(two_faults(lambda d: set_value(d, 1, "depth", 0, math.nan),
                                lambda d: set_value(d, 0, "depth", 4, 0.0)),
                     "tracks[0].depth[4]: frame is visible but depth is 0.0", id="visible-depth-by-track"),
        pytest.param(two_faults(lambda d: set_value(d, 1, "depth", 3, math.nan),
                                lambda d: set_value(d, 1, "depth", 1, -1.0)),
                     "tracks[1].depth[1]: frame is visible but depth is -1.0", id="visible-depth-by-frame"),
    ],
)
def test_loader_reports_the_first_fault_in_its_documented_order(tmp_path, mutate, message):
    p = _doc(tmp_path, mutate)
    with pytest.raises(TrackFileError) as ei:
        trackio.load_trackset(p)
    assert str(ei.value).startswith(f"{p}.{message}")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from([10**400, 0.5, 2.0, math.nan, math.inf]) | st.just("1"),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.sampled_from(["t", "q", "hand", "cam_pose"]), inner,
                                                                max_size=4),
    max_leaves=6)


@PROPERTY
@given(frame=st.integers(0, 2), place=st.sampled_from([(), ("t",), ("hand",), ("cam_pose",), ("cam_pose", "q"),
                                                       ("cam_pose", "t"), ("cam_pose", "q", 0), ("cam_pose", "t", 2)]),
       value=json_values)
def test_frames_the_bulk_check_refuses_are_named_by_the_walk(frame, place, value):
    """Whatever one frame holds, the frames load as a pose stack or the
    frame-by-frame walk raises: no frame falls between the two checks."""
    frames = [{"t": i, "cam_pose": {"q": [1.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0, float(i)]}, "hand": False}
              for i in range(3)]
    *path, last = (frame, *place)
    target = frames
    for key in path:
        target = target[key]
    target[last] = value
    try:
        poses, hand = trackio._frame_arrays(frames, "f")
    except TrackFileError:
        return
    assert len(poses) == len(hand) == 3


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["intrinsics"].update(fx=10**400), "intrinsics.fx: expected a finite number"),
        (lambda d: d["frames"][2]["cam_pose"]["q"].__setitem__(0, 10**400),
         "frames[2].cam_pose.q[0]: expected a finite number"),
        (lambda d: d["frames"][2]["cam_pose"]["t"].__setitem__(1, -10**400),
         "frames[2].cam_pose.t[1]: expected a finite number"),
    ],
    ids=["intrinsics", "cam_pose.q", "cam_pose.t"],
)
def test_loader_rejects_integer_too_large_for_a_float(tmp_path, mutate, fragment):
    p = _doc(tmp_path, mutate)
    with pytest.raises(TrackFileError) as ei:
        trackio.load_trackset(p)
    assert fragment in str(ei.value)


def test_loader_rejects_integer_literal_too_long_to_convert(tmp_path):
    p = _doc(tmp_path, lambda d: d["intrinsics"].update(cx=7))
    p.write_text(p.read_text().replace('"cx": 7,', '"cx": ' + "1" * 5000 + ",", 1))
    with pytest.raises(TrackFileError, match="malformed JSON"):
        trackio.load_trackset(p)


BIGGEST = 1.7976931348623157e308  # the largest finite double
# integral floats, a negative zero, the smallest subnormal and the largest
# finite double among them
finite = (st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-1000, 1000).map(float)
          | st.sampled_from([-0.0, 5e-324, BIGGEST, -BIGGEST]))
positive = st.floats(1e-3, 50.0) | st.integers(1, 20).map(float) | st.sampled_from([5e-324, BIGGEST])
# one frame, with each edge value in every column that takes it
ONE_FRAME = trackio.TrackSet(
    trackio.CameraIntrinsics(5e-324, BIGGEST, -0.0, -BIGGEST),
    pose_stack([[1.0, 0.0, 0.0, 0.0]], [[-0.0, 5e-324, BIGGEST]]),
    np.array([True]),
    [trackio.Track(0, np.array([[-0.0, 5e-324]]), np.array([np.nan]), np.array([False])),
     trackio.Track(-5, np.array([[BIGGEST, -BIGGEST]]), np.array([5e-324]), np.array([True])),
     trackio.Track(7, np.array([[0.0, -5e-324]]), np.array([BIGGEST]), np.array([True])),
     trackio.Track(8, np.array([[1.5, 2.5]]), np.array([-0.0]), np.array([False]))],
)


@st.composite
def tracksets(draw) -> trackio.TrackSet:
    """A TrackSet whose hidden frames may carry NaN, any finite or an
    infinite depth, and whose visible frames carry finite positive depth;
    save_trackset accepts it unless a depth is infinite."""
    T = draw(st.integers(1, 6))
    qs = [draw(hnp.arrays(float, 4, elements=st.floats(-1.0, 1.0)).filter(lambda q: np.linalg.norm(q) > 0.1))
          for _ in range(T)]
    poses = pose_stack([q / np.linalg.norm(q) for q in qs], draw(hnp.arrays(float, (T, 3), elements=finite)))
    ids = draw(st.lists(st.integers(-10**6, 10**6), unique=True, max_size=3))
    tracks = []
    for tid in ids:
        vis = draw(hnp.arrays(bool, T))
        hidden = st.sampled_from([math.nan, math.inf, -math.inf]) | finite
        depth = np.array([draw(positive) if v else draw(hidden) for v in vis])
        uv = draw(hnp.arrays(float, (T, 2), elements=finite))
        tracks.append(trackio.Track(tid, uv, depth, vis))
    intr = trackio.CameraIntrinsics(draw(positive), draw(positive), draw(finite), draw(finite))
    return trackio.TrackSet(intr, poses, draw(hnp.arrays(bool, T)), tracks)


@PROPERTY
@given(ts=tracksets())
@example(ts=ONE_FRAME)
def test_load_inverts_save(ts):
    infinite = [(k, t) for k, tr in enumerate(ts.tracks) for t in np.flatnonzero(np.isinf(tr.depth))]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "tracks.json"
        if infinite:
            k, t = infinite[0]
            with pytest.raises(TrackFileError, match=re.escape(f"tracks[{k}].depth[{t}]: ")):
                trackio.save_trackset(path, ts)
            assert not path.exists()
            return
        trackio.save_trackset(path, ts)
        back = trackio.load_trackset(path)
        again = Path(d) / "again.json"
        trackio.save_trackset(again, back)
        assert again.read_bytes() == path.read_bytes()
    assert back.intrinsics == ts.intrinsics
    assert np.array_equal(back.hand, ts.hand)
    for a, b in zip(ts.cam_poses, back.cam_poses, strict=True):
        assert np.array_equal(a.q, b.q) and np.array_equal(a.t, b.t)
    for a, b in zip(ts.tracks, back.tracks, strict=True):
        assert a.id == b.id
        for x, y in ((a.uv, b.uv), (a.depth, b.depth)):  # bit for bit: -0.0 stays -0.0
            assert x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))
        assert np.array_equal(a.vis, b.vis)


@pytest.mark.parametrize(
    "text, parsers",
    [
        pytest.param(b'{"a": [[1, 2.5], [3, null]]}', ["orjson"], id="good"),
        pytest.param(b'{"a": [[1, 2.5], [3, NaN]]}', ["orjson", "json"], id="nan-literal"),
        pytest.param(b'\xef\xbb\xbf{"a": [[1, 2.5], [3, null]]}', ["orjson", "json"], id="bom"),
        pytest.param(b'{"a": [[1, 2.5], [3', ["orjson", "json"], id="malformed"),
    ],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_load_json_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, text, parsers, enabled):
    """Whichever parser runs, orjson or the standard parser after it, runs
    with the collector paused; the state found is restored on return and on
    an error."""
    p = tmp_path / "x.json"
    p.write_bytes(text)
    during = []

    def spy(module):
        loads = module.loads
        monkeypatch.setattr(module, "loads", lambda s: during.append((module.__name__, gc.isenabled())) or loads(s))

    spy(jsonio.orjson)
    spy(json)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if text.endswith(b"]]}"):
            assert repr(jsonio.load_json(p)) == repr({"a": [[1, 2.5], [3, math.nan if b"NaN" in text else None]]})
        else:
            with pytest.raises(TrackFileError, match="malformed JSON"):
                jsonio.load_json(p)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [(name, False) for name in parsers]


@pytest.mark.parametrize("fault", [None, lambda d: set_value(d, 0, "depth", 0, math.nan)],
                         ids=["good", "visible-nan-depth"])
def test_load_trackset_keeps_the_collector_paused_until_it_returns(tmp_path, monkeypatch, fault):
    """The collector stays paused past the parse, through the track checks,
    and the state found is restored on return and on an error."""
    p = _doc(tmp_path, fault or (lambda d: None))
    during = []
    check = trackio._check_columns
    monkeypatch.setattr(trackio, "_check_columns", lambda *a: during.append(gc.isenabled()) or check(*a))
    was = gc.isenabled()
    try:
        gc.enable()
        if fault:
            with pytest.raises(TrackFileError, match=r"tracks\[0\]\.depth\[0\]: frame is visible"):
                trackio.load_trackset(p)
        else:
            trackio.load_trackset(p)
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def test_loader_malformed_json_has_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"version": 1,\n  "intrinsics": }')
    with pytest.raises(TrackFileError) as ei:
        trackio.load_trackset(p)
    assert "line 2" in str(ei.value)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        trackio.CameraIntrinsics(0.0, 500.0, 320.0, 240.0)
    with pytest.raises(ValueError):
        trackio.CameraIntrinsics(500.0, -1.0, 320.0, 240.0)
    with pytest.raises(ValueError):
        trackio.CameraIntrinsics(float("nan"), 500.0, 320.0, 240.0)
