"""End-to-end articulation estimation: segments to joint models.

The pipeline runs four stages per interaction segment:

1. filter: lift the segment's frames of all tracks to world coordinates as
   one stacked ``SegmentTrack``, drop static background (motion scored on
   world positions) and unreliable tracks;
2. smooth: denoise the surviving tracks' world trajectories in one
   block-banded solve (observation masks survive untouched);
3. estimate: build keyframe correspondences, register every step once,
   reject the tracks whose residuals under that registration are outliers,
   then fit the configured trajectory model (reusing the registration when
   no track was rejected) and classify the joint;
4. package: report the axis, twist and pose trail in world coordinates.

The stages pass that one stack along and select its rows with the filters'
keep masks; only the segment-data files hold one entry per track.

Segments fail independently: any pipeline error (degenerate geometry, too
little motion, too few tracks) is recorded under "skipped" with its stage
and message, and the remaining segments still run. Segments run one after
another on the calling thread, in recording order.
"""

from __future__ import annotations

import logging
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import jsonio
from .artmodel import ArticulationEstimate, ClassifierConfig, build_articulation_estimate
from .bounds import bounded, check_bounds, check_keys
from .errors import ArtikitError, IllPosedError, InsufficientTracksError, TrackFileError
from .lie import transform_twist
from .segmenter import Segment, SegmenterConfig, extract_segments, moving_average
from .smoother import SmootherConfig, smooth_track
from .trackfilter import FilterConfig, filter_outliers, filter_static, filter_unreliable
from .trackio import (
    DEFAULT_MAX_DEPTH,
    SegmentTrack,
    Track,
    Track3D,
    TrackSet,
    _ID_RULE,
    _NUMBER,
    _as_number,
    _require,
    lift_track,
    to_world,
)
from .trajest import (
    DEFAULT_STRIDE,
    TrajectoryEstimate,
    build_correspondences,
    choose_anchor,
    fit_independent,
    fit_regularized,
    register_steps,
    residual_stats,
)

log = logging.getLogger(__name__)

ESTIMATOR_MODES = ("regularized", "independent")


@dataclass
class PipelineConfig:
    segmenter: SegmenterConfig = field(default_factory=SegmenterConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    smoother: SmootherConfig = field(default_factory=SmootherConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    stride: int = bounded(DEFAULT_STRIDE, ">= 1", int)
    mode: str = "regularized"
    max_depth: float = bounded(DEFAULT_MAX_DEPTH, "> 0")
    jobs: int = bounded(0, ">= 0", int)  # accepted but has no effect: segments always run serially

    def __post_init__(self):
        check_bounds(self)
        if self.mode not in ESTIMATOR_MODES:
            raise ValueError(f"mode must be one of {ESTIMATOR_MODES}, got {self.mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """Build a config from a (possibly partial) nested dictionary.

        The sections are the dataclass-valued fields, the scalars the rest.
        Unknown keys are rejected: a silently ignored typo in a config file
        would change results without a trace.
        """
        sections = {f.name: f.default_factory for f in fields(cls) if f.default_factory is not MISSING}
        check_keys(doc, {f.name for f in fields(cls)})
        kwargs = {}
        for key, val in doc.items():
            if key in sections:
                if not isinstance(val, dict):
                    raise ValueError(f"config section {key!r} must be an object")
                check_keys(val, {f.name for f in fields(sections[key])}, f"{key}.")
                val = sections[key](**val)
            kwargs[key] = val
        return cls(**kwargs)


def effective_config(file_doc: dict | None, overrides: dict) -> PipelineConfig:
    """Defaults, overlaid by a config file, overlaid by explicit flags.

    ``overrides`` uses dotted keys ("filter.sigma_reliable", "stride"), as the
    CLI's flag dests spell them; None values mean "not given" and are skipped.
    """
    doc = {}
    if file_doc:
        for k, v in file_doc.items():
            doc[k] = dict(v) if isinstance(v, dict) else v
    for dotted, val in overrides.items():
        if val is None:
            continue
        if "." in dotted:
            section, leaf = dotted.split(".", 1)
            doc.setdefault(section, {})[leaf] = val
        else:
            doc[dotted] = val
    try:
        return PipelineConfig.from_dict(doc)
    except (TypeError, ValueError) as e:
        raise ValueError(f"bad configuration: {e}") from e


# ---------------------------------------------------------------------------
# stages


def extract_hand_segments(ts: TrackSet, cfg: SegmenterConfig) -> list:
    smoothed = moving_average(np.asarray(ts.hand, dtype=float), cfg.w_h)
    return extract_segments(smoothed, cfg)


def stage_filter(ts: TrackSet, seg: Segment, cfg: PipelineConfig) -> tuple[SegmentTrack, dict]:
    """Lift one segment to world tracks and drop static or unreliable ones.

    The segment's frames of all tracks are lifted and mapped to world
    coordinates as one (N, T) stack; the kept rows come back as one stack.
    """
    if not ts.tracks:
        raise InsufficientTracksError("segment has no tracks")
    frames = slice(seg.start, seg.end + 1)
    stack = Track(np.array([tr.id for tr in ts.tracks]),
                  *(np.array([getattr(tr, f)[frames] for tr in ts.tracks]) for f in ("uv", "depth", "vis")))
    world = to_world(lift_track(stack, ts.intrinsics, cfg.max_depth), ts.cam_poses[frames])
    tracks = SegmentTrack(stack.id, world.positions, world.valid)
    static = filter_static(tracks, cfg.filter)
    keep = static & filter_unreliable(tracks, cfg.filter)
    counts = {"static": int(np.count_nonzero(~static)), "unreliable": int(np.count_nonzero(static & ~keep))}
    if not keep.any():
        raise InsufficientTracksError(
            f"all {len(tracks)} tracks removed by static/reliability filtering"
        )
    log.info(
        "segment [%d, %d]: %d tracks, removed %d static, %d unreliable",
        seg.start, seg.end, len(tracks), counts["static"], counts["unreliable"],
    )
    return tracks.take(keep), counts


def stage_smooth(tracks: SegmentTrack, cfg: PipelineConfig, counts: dict) -> SegmentTrack:
    """Smooth the world positions of all tracks in one band solve;
    observation masks pass through.

    A track whose trajectory cannot be smoothed is dropped and counted, not
    fatal; the segment fails only when nothing survives. With the velocity
    term one observed frame suffices, with the jerk term alone three, with
    neither every frame (see ``smooth_track``).
    """
    keep = np.zeros(len(tracks), dtype=bool)
    try:
        sm = smooth_track(Track3D(tracks.world, tracks.valid), cfg.smoother)
    except IllPosedError:  # no track can be smoothed
        pass
    else:
        keep = sm.valid[:, 0]
        tracks = replace(tracks, world=sm.positions)
    counts["unsmoothable"] = int(np.count_nonzero(~keep))
    if not keep.any():
        raise IllPosedError("no track in the segment could be smoothed")
    return tracks.take(keep)


def stage_estimate(tracks: SegmentTrack, cfg: PipelineConfig, counts: dict) -> dict:
    """Fit the trajectory and joint model for one segment's tracks.

    Registers every step once (``register_steps``) and drops the tracks
    whose residuals under that registration are outliers before the
    configured estimator runs. When no track is dropped, the estimator
    reuses that registration; otherwise it registers the kept tracks again.
    """
    corr = build_correspondences(tracks, cfg.stride)
    steps = register_steps(corr)
    keep = filter_outliers(residual_stats(corr, steps)[1], cfg.filter)
    counts["outliers"] = int(np.count_nonzero(~keep))
    if counts["outliers"]:
        tracks = tracks.take(keep)
        corr, steps = build_correspondences(tracks, cfg.stride), None
    anchor_points, anchor_frame, fell_back = choose_anchor(tracks)
    fit = fit_regularized if cfg.mode == "regularized" else fit_independent
    traj = fit(corr, anchor_points, steps)
    estimate = build_articulation_estimate(traj, cfg.classifier)
    return {
        "corr": corr,
        "traj": traj,
        "estimate": estimate,
        "anchor_frame": anchor_frame,
        "anchored_late": fell_back,
    }


def _to_world_frame(traj: TrajectoryEstimate, est: ArticulationEstimate):
    """Axis and twist from the anchor frame into world coordinates.

    The anchor carries no rotation, so directions are unchanged and axis
    points shift by the anchor translation; the twist maps through the
    adjoint.
    """
    axis_dir = est.axis_dir
    axis_point = None if est.axis_point is None else est.axis_point + traj.anchor.t
    twist = transform_twist(traj.anchor, est.twist)
    return axis_dir, axis_point, twist


def process_segment(ts: TrackSet, seg: Segment, cfg: PipelineConfig) -> dict:
    """Run one segment start to finish; returns a result or skip record."""
    counts = {}
    stage = "filter"
    try:
        tracks, counts = stage_filter(ts, seg, cfg)
        stage = "smooth"
        tracks = stage_smooth(tracks, cfg, counts)
        stage = "estimate"
        fitted = stage_estimate(tracks, cfg, counts)
    except ArtikitError as e:
        return skip_record(seg, stage, e)
    return segment_record(seg, fitted, counts)


def skip_record(seg: Segment, stage: str, e: ArtikitError) -> dict:
    """The record of a segment that failed at ``stage``; logs a warning."""
    log.warning("segment [%d, %d] skipped at %s: %s", seg.start, seg.end, stage, e)
    return {
        "segment": seg.to_dict(),
        "stage": stage,
        "error": {"type": type(e).__name__, "message": str(e)},
    }


def segment_record(seg: Segment, fitted: dict, counts: dict) -> dict:
    traj: TrajectoryEstimate = fitted["traj"]
    est: ArticulationEstimate = fitted["estimate"]
    axis_dir, axis_point, twist = _to_world_frame(traj, est)
    flags = list(est.flags)
    if fitted["anchored_late"]:
        flags.append("anchored_late")
    return {
        "segment": seg.to_dict(),
        "type": est.joint_type,
        "axis_dir": [float(x) for x in axis_dir],
        "axis_point": None if axis_point is None else [float(x) for x in axis_point],
        "twist": twist.to_dict(),
        "thetas": [float(x) for x in est.thetas],
        "rms": float(est.pose_rms),
        "flags": flags,
        "filter_counts": counts,
        "trajectory": {
            "mode": traj.mode,
            "stride": int(fitted["corr"].stride),
            "keyframes": [int(k) for k in fitted["corr"].keyframes],
            "rms_residual": float(traj.rms_residual),
            "converged": bool(traj.converged),
            "anchor": traj.anchor.to_dict(),
            "anchor_frame": int(fitted["anchor_frame"]),
            "world_poses": [{"q": q, "t": t} for q, t in zip(traj.poses[0].tolist(), traj.poses[1].tolist())],
        },
    }


def run_pipeline(ts: TrackSet, cfg: PipelineConfig) -> dict:
    """All segments of a recording; returns the results document."""
    segments = extract_hand_segments(ts, cfg.segmenter)
    log.info("extracted %d interaction segments", len(segments))
    return results_doc([process_segment(ts, seg, cfg) for seg in segments])


def results_doc(records: list) -> dict:
    """The results document from result and skip records in any order:
    each list sorted by segment, so every way of running the stages
    writes the same document."""
    records = sorted(records, key=lambda r: (r["segment"]["start"], r["segment"]["end"]))
    return {
        "version": 1,
        "results": [r for r in records if "error" not in r],
        "skipped": [r for r in records if "error" in r],
    }


def save_results(path, doc: dict) -> None:
    jsonio.dump_json(path, doc)


# ---------------------------------------------------------------------------
# segment-stage intermediate files (the stage-by-stage CLI path)


def _track_to_dict(tid, world: np.ndarray, valid: np.ndarray) -> dict:
    """One row of a stacked SegmentTrack as a segment-data track entry."""
    finite = np.isfinite(world).all(axis=1).tolist()
    return {
        "id": int(tid),
        "world": [row if ok else None for row, ok in zip(world.tolist(), finite)],
        "valid": valid.tolist(),
    }


def _world_rows(rows: list, T: int, where: str) -> np.ndarray:
    """A track entry's world rows, [x, y, z] or null, as a (T, 3) float
    array with NaN for null; a TrackFileError names the first element that
    is not a number (``_as_number``'s text), or else rows not shaped (T, 3)."""
    try:
        a = np.array([[np.nan] * 3 if row is None else row for row in rows], dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged rows, non-numbers, huge integers
        a = None
    if a is None or not set(map(type, chain.from_iterable(row for row in rows if type(row) is list))) <= _NUMBER:
        for t, row in enumerate(rows):
            for j, x in enumerate(row if type(row) is list else ()):
                _as_number(x, f"{where}[{t}][{j}]")
    if a is None or a.shape != (T, 3):
        got = "" if a is None else f", got shape {a.shape}"
        raise TrackFileError(f"{where}: expected {T} rows of 3 numbers, one per valid flag{got}")
    return a


def _track_from_dict(d: dict, where: str, T: int) -> tuple:
    """A segment-data track entry as one row (id, world, valid); a bad id,
    flag or number is a TrackFileError naming it, in the track file's words."""
    tid = d["id"]
    _require(type(tid) is int and -2**63 <= tid < 2**63, f"{where}.id", _ID_RULE)
    valid = d["valid"]
    _require(isinstance(valid, list) and len(valid) == T, f"{where}.valid",
             f"must be a list of {T} booleans, one per segment frame")
    if not set(map(type, valid)) <= {bool}:
        t = next(t for t, b in enumerate(valid) if type(b) is not bool)
        raise TrackFileError(f"{where}.valid[{t}]: must be a boolean, got {valid[t]!r}")
    valid = np.array(valid, dtype=bool)
    world = _world_rows(d["world"], T, f"{where}.world")
    unset = np.flatnonzero(valid & ~np.isfinite(world).all(axis=1))
    if len(unset):
        raise TrackFileError(f"{where}.world[{unset[0]}]: valid frame has no finite position")
    return tid, world, valid


def save_segment_data(path, stage: str, entries: list, skipped: list) -> None:
    """Write the per-segment working set produced by filter or smooth.

    ``entries`` holds (segment, tracks, counts) triples, ``tracks`` a
    stacked SegmentTrack; the file holds one entry per track: id, world
    rows (null where not finite) and valid flags.
    """
    doc = {
        "version": 1,
        "stage": stage,
        "segments": [
            {
                "segment": seg.to_dict(),
                "filter_counts": counts,
                "tracks": [_track_to_dict(*row) for row in zip(tracks.id, tracks.world, tracks.valid)],
            }
            for seg, tracks, counts in entries
        ],
        "skipped": skipped,
    }
    jsonio.dump_json(path, doc)


def load_segment_data(path) -> tuple[list, list]:
    """Read back (segment, tracks, counts) triples, ``tracks`` stacked, plus
    skip records. Track entries follow the track file's rules for ids,
    flags and numbers; a ``uv`` entry, which older files carry, is ignored."""
    doc = jsonio.load_json(path)
    if not isinstance(doc, dict) or doc.get("version") != 1 or "segments" not in doc:
        raise TrackFileError(f"{path}: not a segment-data file")
    entries = []
    try:
        for i, s in enumerate(doc["segments"]):
            try:
                seg = Segment.from_dict(s["segment"])
            except ValueError as e:
                raise TrackFileError(f"{path}.segments[{i}].segment: {e}") from e
            T = seg.end - seg.start + 1
            rows = [_track_from_dict(t, f"{path}.segments[{i}].tracks[{k}]", T) for k, t in enumerate(s["tracks"])]
            ids, world, valid = zip(*rows) if rows else ((),) * 3
            tracks = SegmentTrack(np.array(ids), np.array(world).reshape(-1, T, 3),
                                  np.array(valid, dtype=bool).reshape(-1, T))
            entries.append((seg, tracks, dict(s.get("filter_counts", {}))))
    except (KeyError, TypeError, ValueError) as e:
        raise TrackFileError(f"{path}: bad segment data: {e}") from e
    skipped = doc.get("skipped", [])
    if not isinstance(skipped, list):
        raise TrackFileError(f"{path}.skipped: must be a list")
    for i, r in enumerate(skipped):  # results_doc sorts skip records by segment
        seg = r.get("segment") if isinstance(r, dict) else None
        if not (isinstance(seg, dict) and "error" in r
                and all(type(seg.get(k)) is int for k in ("start", "end"))):
            raise TrackFileError(f"{path}.skipped[{i}]: must be a skip record with an "
                                 "integer segment start and end and an error")
    return entries, list(skipped)


# ---------------------------------------------------------------------------
# PLY export


def export_ply(out_dir, doc: dict) -> list:
    """One ASCII PLY per estimated segment: axis line plus pose trail.

    The axis line spans 1 m each way around its reference point (for a
    prismatic joint, around the trail's first position). Returns the paths
    written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for rec in doc.get("results", []):
        seg = rec["segment"]
        trail = [p["t"] for p in rec["trajectory"]["world_poses"]]
        a = np.asarray(rec["axis_dir"], dtype=float)
        base = (
            np.asarray(trail[0], dtype=float)
            if rec["axis_point"] is None
            else np.asarray(rec["axis_point"], dtype=float)
        )
        verts = [base - a, base + a] + [np.asarray(t, dtype=float) for t in trail]
        lines = [
            "ply",
            "format ascii 1.0",
            f"comment joint axis and pose trail for frames {seg['start']}..{seg['end']}",
            f"comment joint type {rec['type']}",
            f"element vertex {len(verts)}",
            "property float x",
            "property float y",
            "property float z",
            "element edge 1",
            "property int vertex1",
            "property int vertex2",
            "end_header",
        ]
        lines += [f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}" for v in verts]
        lines.append("0 1")
        path = out_dir / f"segment_{seg['start']:05d}_{seg['end']:05d}.ply"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths
