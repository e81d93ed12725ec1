"""Benchmark metrics: segment matching, axis errors, type accuracy.

Predictions and ground truth are both lists of joint records (segment, type,
axis direction, optional axis point). Interaction windows are matched
one-to-one by interval IoU; matched pairs contribute an angular error always
and an axis line distance only when the reference joint is revolute and the
prediction actually carries an axis point. Aggregates are computed over
matched pairs, grouped by the reference joint's type.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import TrackFileError
from .segmenter import Segment, match_segments, segment_iou
from .synth import GroundTruthJoint, parse_joints

PARALLEL_EPS = 1e-4  # ‖cross product‖ below this counts as parallel lines


def _axis_pair(a_hat, a_gt):
    """Two axis directions as arrays, each followed by its norm; a ValueError
    unless both are finite and nonzero."""
    a_hat, a_gt = np.asarray(a_hat, dtype=float), np.asarray(a_gt, dtype=float)
    if not (np.isfinite(a_hat).all() and np.isfinite(a_gt).all()):
        raise ValueError("axis directions must be finite")
    nh, ng = np.linalg.norm(a_hat), np.linalg.norm(a_gt)
    if nh <= 0 or ng <= 0:
        raise ValueError("axis directions must be nonzero")
    return a_hat, nh, a_gt, ng


def angular_error(a_hat, a_gt) -> float:
    """Angle between two axis directions in degrees, in [0, 90].

    Sign-invariant (an axis and its negation are the same axis) and
    independent of either vector's length.
    """
    a_hat, nh, a_gt, ng = _axis_pair(a_hat, a_gt)
    c = abs(float(np.dot(a_hat, a_gt))) / (nh * ng)
    return math.degrees(math.acos(min(1.0, c)))


def axis_distance(p_hat, a_hat, p_gt, a_gt) -> float:
    """Shortest distance in meters between two axis lines.

    Skew lines use the common-perpendicular projection; lines closer than
    PARALLEL_EPS to parallel fall back to the point-to-line distance, which
    is the limit of the skew formula as the lines align.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    p_gt = np.asarray(p_gt, dtype=float)
    if not (np.isfinite(p_hat).all() and np.isfinite(p_gt).all()):
        raise ValueError("axis points must be finite")
    a_hat, nh, a_gt, ng = _axis_pair(a_hat, a_gt)
    a_hat = a_hat / nh
    a_gt = a_gt / ng
    d = p_hat - p_gt
    cross = np.cross(a_hat, a_gt)
    nc = float(np.linalg.norm(cross))
    if nc > PARALLEL_EPS:
        return abs(float(np.dot(d, cross))) / nc
    return float(np.linalg.norm(np.cross(d, a_gt)))


@dataclass
class JointRecord:
    """One matched prediction/reference pair and its errors."""

    pred_index: int
    gt_index: int
    pred_segment: Segment
    gt_segment: Segment
    iou: float
    gt_type: str
    pred_type: str
    type_correct: bool
    theta_err: float  # degrees
    d_l2: float | None  # meters; None when not applicable

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)  # segments become {"start", "end"}


@dataclass
class TypeAggregate:
    count: int
    mean_theta_err: float
    mean_d_l2: float | None
    type_accuracy: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class EvalReport:
    records: list  # list[JointRecord], matched pairs only
    aggregates: dict  # gt type -> TypeAggregate
    unmatched_gt: int
    unmatched_pred: int

    @property
    def type_accuracy(self) -> float | None:
        """Fraction of matched pairs with the correct joint type."""
        if not self.records:
            return None
        return sum(r.type_correct for r in self.records) / len(self.records)

    def to_dict(self) -> dict:
        return {
            "records": [r.to_dict() for r in self.records],
            "aggregates": {k: v.to_dict() for k, v in sorted(self.aggregates.items())},
            "type_accuracy": self.type_accuracy,
            "unmatched_gt": self.unmatched_gt,
            "unmatched_pred": self.unmatched_pred,
        }


def _joint_fields(j, what: str):
    """Normalize a prediction/reference entry to (segment, type, dir, point)."""
    if not isinstance(j, GroundTruthJoint):
        try:
            j = GroundTruthJoint.from_dict(j)
        except ValueError as e:
            raise ValueError(f"{what} entry: {e}") from e
    return Segment(*j.segment), j.joint_type, j.axis_dir, j.axis_point


def evaluate(predictions, ground_truth) -> EvalReport:
    """Match windows and score every matched pair.

    The axis line distance is recorded only when the reference joint is
    revolute and the prediction supplies an axis point; a prismatic
    prediction against a revolute reference still scores its angular error
    but has no line to measure.
    """
    preds = [_joint_fields(p, "prediction") for p in predictions]
    gts = [_joint_fields(g, "ground truth") for g in ground_truth]
    pairs = match_segments([p[0] for p in preds], [g[0] for g in gts])
    records = []
    for pi, gi in pairs:
        pseg, ptype, pdir, ppoint = preds[pi]
        gseg, gtype, gdir, gpoint = gts[gi]
        theta = angular_error(pdir, gdir)
        d = None
        if gtype == "revolute" and ppoint is not None:
            d = axis_distance(ppoint, pdir, gpoint, gdir)
        records.append(
            JointRecord(
                pred_index=pi,
                gt_index=gi,
                pred_segment=pseg,
                gt_segment=gseg,
                iou=segment_iou(pseg, gseg),
                gt_type=gtype,
                pred_type=ptype,
                type_correct=ptype == gtype,
                theta_err=theta,
                d_l2=d,
            )
        )
    records.sort(key=lambda r: r.gt_index)
    aggregates = {}
    for jtype in sorted({r.gt_type for r in records}):
        rs = [r for r in records if r.gt_type == jtype]
        ds = [r.d_l2 for r in rs if r.d_l2 is not None]
        aggregates[jtype] = TypeAggregate(
            count=len(rs),
            mean_theta_err=float(np.mean([r.theta_err for r in rs])),
            mean_d_l2=float(np.mean(ds)) if ds else None,
            type_accuracy=sum(r.type_correct for r in rs) / len(rs),
        )
    return EvalReport(
        records=records,
        aggregates=aggregates,
        unmatched_gt=len(gts) - len(pairs),
        unmatched_pred=len(preds) - len(pairs),
    )


def render_report(report: EvalReport) -> str:
    """Aligned text table, one row per reference joint type."""
    header = f"{'type':<10} {'n':>4} {'theta_err[deg]':>15} {'d_L2[m]':>10} {'type_acc':>9}"
    lines = [header, "-" * len(header)]
    for jtype, agg in sorted(report.aggregates.items()):
        d = "--" if agg.mean_d_l2 is None else f"{agg.mean_d_l2:.4f}"
        lines.append(
            f"{jtype:<10} {agg.count:>4} {agg.mean_theta_err:>15.3f} {d:>10} {agg.type_accuracy:>9.3f}"
        )
    if not report.aggregates:
        lines.append("(no matched pairs)")
    lines.append(
        f"matched {len(report.records)}, unmatched gt {report.unmatched_gt}, "
        f"unmatched pred {report.unmatched_pred}"
    )
    return "\n".join(lines)


def load_predictions(path) -> list:
    """Read the results file written by the estimation pipeline.

    Accepts either the versioned wrapper {"version": 1, "results": [...]}
    or a bare list of result entries, each checked by ``parse_joints``.
    """
    doc = jsonio.load_json(path)
    if isinstance(doc, dict):
        if "results" not in doc:
            raise TrackFileError(f"{path}: no 'results' key in prediction file")
        doc = doc["results"]
    if not isinstance(doc, list):
        raise TrackFileError(f"{path}: predictions must be a list")
    parse_joints(doc, path)
    return doc
