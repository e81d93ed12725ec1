"""Checks of the program's outputs, computed apart from the program.

Axis errors are recomputed here from the scene specs the benchmark built,
with formulas of the benchmark's own (an atan2 angle and a least-squares
line-to-line distance), and ``evalkit.evaluate`` must agree with them.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_TOL = 1e-9  # |‖axis_dir‖ - 1| allowed in a results document
ANGLE_TOL_DEG = 1e-5  # acos loses ~1e-6 deg near 0; atan2 does not
DIST_TOL_M = 1e-9
# evalkit treats lines whose direction cross product is at most this as
# parallel and measures point-to-line; the check follows that documented rule
EVALKIT_PARALLEL_EPS = 1e-4


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own numbers."""


def axis_angle_deg(a, b) -> float:
    """Angle between two axis directions in degrees, sign-free, in [0, 90]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return math.degrees(math.atan2(float(np.linalg.norm(np.cross(a, b))), abs(float(a @ b))))


def line_distance(p1, a1, p2, a2) -> float:
    """Shortest distance between the lines p1 + s a1 and p2 + t a2.

    Minimizes |p1 + s a1 - p2 - t a2| over (s, t) by least squares; for
    parallel lines the minimum-norm solution gives the point-to-line distance.
    """
    p1, a1, p2, a2 = (np.asarray(x, dtype=float) for x in (p1, a1, p2, a2))
    A = np.stack([a1, -a2], axis=1)
    (s, t), *_ = np.linalg.lstsq(A, p2 - p1, rcond=None)
    return float(np.linalg.norm(p1 + s * a1 - p2 - t * a2))


def point_line_distance(p, q, a) -> float:
    """Distance from point p to the line q + t a."""
    p, q, a = (np.asarray(x, dtype=float) for x in (p, q, a))
    d = p - q
    a = a / np.linalg.norm(a)
    return float(np.linalg.norm(d - (d @ a) * a))


def interval_iou(a: tuple, b: tuple) -> float:
    """IoU of two inclusive frame intervals."""
    inter = min(a[1], b[1]) - max(a[0], b[0]) + 1
    if inter <= 0:
        return 0.0
    return inter / ((a[1] - a[0] + 1) + (b[1] - b[0] + 1) - inter)


def match(interactions, results) -> list:
    """(interaction index, result index) pairs: each interaction takes the
    result window with the highest IoU above 0.5, each result used once."""
    pairs, used = [], set()
    for i, inter in enumerate(interactions):
        best, best_iou = None, 0.5
        for r, res in enumerate(results):
            iou = interval_iou(inter.window, (res["segment"]["start"], res["segment"]["end"]))
            if r not in used and iou > best_iou:
                best, best_iou = r, iou
        if best is not None:
            used.add(best)
            pairs.append((i, best))
    return pairs


def joint_errors(inter, res) -> tuple:
    """(angle in degrees, line distance in meters or None) of one matched pair."""
    pdir = np.asarray(res["axis_dir"], dtype=float)
    angle = axis_angle_deg(pdir, inter.axis_dir)
    dist = None
    if inter.joint_type == "revolute" and res.get("axis_point") is not None:
        dist = line_distance(res["axis_point"], pdir, inter.axis_point, inter.axis_dir)
    return angle, dist


def matched_errors(interactions, results) -> list:
    """(angle_deg, dist_m | None) of every interaction the benchmark can match."""
    return [joint_errors(interactions[i], results[r]) for i, r in match(interactions, results)]


def check_recording(interactions, doc, report) -> list:
    """Check one results document and its evaluation report.

    Every interaction must be matched, with the right joint type and a
    finite unit ``axis_dir``, and evalkit's pairs and errors must agree with
    the benchmark's own. Returns (angle_deg, dist_m | None) per interaction;
    raises CheckFailed on the first disagreement.
    """
    results = doc["results"]
    pairs = match(interactions, results)
    if len(pairs) != len(interactions):
        raise CheckFailed(
            f"{len(interactions) - len(pairs)} of {len(interactions)} interactions unmatched "
            f"({len(results)} results, {len(doc['skipped'])} skipped)"
        )
    theirs = {(rec.pred_index, rec.gt_index): rec for rec in report.records}
    if set(theirs) != {(r, i) for i, r in pairs}:
        raise CheckFailed(f"evalkit pairs {sorted(theirs)} != benchmark pairs {pairs}")
    out = []
    for i, r in pairs:
        inter, res, rec = interactions[i], results[r], theirs[(r, i)]
        if res["type"] != inter.joint_type:
            raise CheckFailed(f"interaction {i}: type {res['type']}, spec {inter.joint_type}")
        a = np.asarray(res["axis_dir"], dtype=float)
        if a.shape != (3,) or not np.all(np.isfinite(a)) or abs(np.linalg.norm(a) - 1.0) > UNIT_TOL:
            raise CheckFailed(f"interaction {i}: axis_dir {res['axis_dir']} is not a finite unit vector")
        angle, dist = joint_errors(inter, res)
        if abs(rec.theta_err - angle) > ANGLE_TOL_DEG:
            raise CheckFailed(f"interaction {i}: evalkit angle {rec.theta_err} deg, benchmark {angle}")
        if (rec.d_l2 is None) != (dist is None):
            raise CheckFailed(f"interaction {i}: evalkit distance {rec.d_l2}, benchmark {dist}")
        if dist is not None:
            expect = dist
            if np.linalg.norm(np.cross(a, inter.axis_dir)) <= EVALKIT_PARALLEL_EPS:
                expect = point_line_distance(res["axis_point"], inter.axis_point, inter.axis_dir)
            if abs(rec.d_l2 - expect) > DIST_TOL_M:
                raise CheckFailed(f"interaction {i}: evalkit distance {rec.d_l2} m, benchmark {expect}")
        out.append((angle, dist))
    return out


def check_same_trackset(a, b) -> None:
    """Raise CheckFailed unless two TrackSets are equal, NaN positions included."""
    def same(x, y):
        x, y = np.asarray(x), np.asarray(y)
        return x.shape == y.shape and np.array_equal(x, y, equal_nan=x.dtype.kind == "f")

    if a.intrinsics.to_dict() != b.intrinsics.to_dict():
        raise CheckFailed("intrinsics differ after save/load")
    if len(a.cam_poses) != len(b.cam_poses) or not same(a.hand, b.hand):
        raise CheckFailed("frames differ after save/load")
    for t, (p, q) in enumerate(zip(a.cam_poses, b.cam_poses)):
        if not (same(p.q, q.q) and same(p.t, q.t)):
            raise CheckFailed(f"camera pose {t} differs after save/load")
    if len(a.tracks) != len(b.tracks):
        raise CheckFailed("track count differs after save/load")
    for x, y in zip(a.tracks, b.tracks):
        if x.id != y.id or not (same(x.uv, y.uv) and same(x.depth, y.depth) and same(x.vis, y.vis)):
            raise CheckFailed(f"track {x.id} differs after save/load")
