"""Interaction segmentation from a per-frame hand-detection signal.

The binary signal is smoothed with a trailing moving average (the window
covers the current frame and the w_h - 1 before it; during warm-up the mean
runs over the frames that exist). A segment opens at the first frame where
the smoothed signal reaches tau_h and closes at the last consecutive frame
still at or above it; dips below the threshold split interactions (no
hysteresis). A segment's length is its inclusive frame count
(end - start + 1); segments outside [t_min, t_max] are discarded whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import bounded, check_bounds


@dataclass
class SegmenterConfig:
    w_h: int = bounded(6, ">= 1", int)
    tau_h: float = bounded(0.5, "(0, 1]")
    t_min: int = bounded(30, kind=int)
    t_max: int = bounded(90, kind=int)

    def __post_init__(self):
        check_bounds(self)
        if not (1 <= self.t_min <= self.t_max):
            raise ValueError(f"need 1 <= t_min <= t_max, got {self.t_min}, {self.t_max}")


@dataclass(frozen=True)
class Segment:
    start: int  # inclusive
    end: int  # inclusive

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid segment [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def to_dict(self) -> dict:
        return {"start": self.start, "end": self.end}

    @classmethod
    def from_dict(cls, d: dict) -> "Segment":
        for key in ("start", "end"):
            if not isinstance(d[key], int) or isinstance(d[key], bool):
                raise ValueError(f"segment {key} must be an integer, got {d[key]!r}")
        return cls(d["start"], d["end"])


def moving_average(signal, w_h: int) -> np.ndarray:
    """Trailing windowed mean with warm-up over the available frames."""
    d = np.asarray(signal, dtype=float)
    if d.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {d.shape}")
    if w_h < 1:
        raise ValueError(f"w_h must be >= 1, got {w_h}")
    c = np.concatenate([[0.0], np.cumsum(d)])
    t = np.arange(len(d))
    lo = np.maximum(t - w_h + 1, 0)
    return (c[t + 1] - c[lo]) / (t + 1 - lo)


def extract_segments(smoothed, cfg: SegmenterConfig) -> list:
    """Threshold runs of the smoothed signal, filtered by duration bounds."""
    above = np.asarray(smoothed) >= cfg.tau_h
    segments = []
    start = None
    for t, flag in enumerate(above):
        if flag and start is None:
            start = t
        elif not flag and start is not None:
            segments.append(Segment(start, t - 1))
            start = None
    if start is not None:
        segments.append(Segment(start, len(above) - 1))
    return [s for s in segments if cfg.t_min <= s.length <= cfg.t_max]


def segment_iou(a: Segment, b: Segment) -> float:
    """Intersection over union of inclusive frame intervals."""
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    union = a.length + b.length - inter
    return inter / union


def _check_disjoint(segments, name: str):
    ordered = sorted(segments, key=lambda s: s.start)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start <= prev.end:
            raise ValueError(f"{name} segments overlap: [{prev.start},{prev.end}] and [{cur.start},{cur.end}]")


def match_segments(pred, gt) -> list:
    """Greedy one-to-one matching by descending IoU; a pair matches only
    when its IoU exceeds 0.5.

    Returns (pred_index, gt_index) pairs. Ties are broken on segment
    boundaries rather than list positions, so the result does not depend on
    input ordering.
    """
    _check_disjoint(pred, "pred")
    _check_disjoint(gt, "gt")
    candidates = []
    for pi, p in enumerate(pred):
        for gi, g in enumerate(gt):
            iou = segment_iou(p, g)
            if iou > 0.5:
                candidates.append((-iou, p.start, p.end, g.start, g.end, pi, gi))
    candidates.sort()
    used_p, used_g = set(), set()
    matches = []
    for _, _, _, _, _, pi, gi in candidates:
        if pi in used_p or gi in used_g:
            continue
        used_p.add(pi)
        used_g.add(gi)
        matches.append((pi, gi))
    return matches
