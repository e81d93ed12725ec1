"""Track filters: static background, unreliable tracks, registration outliers.

Each filter reads a segment's tracks stacked on a leading axis (a
``SegmentTrack``), or one value per track, and returns an (N,) bool keep
mask. The static filter is a rank split: scores are sorted stably (ties keep
input order) and the lowest floor(p/100 * N) are removed; at percentile 100
everything except the tracks tied at the maximum goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bounded, check_bounds
from .errors import InsufficientTracksError

MAD_FLOOR = 1e-9  # keeps the outlier bound meaningful when residuals are near-identical
STATIC_MODES = ("image2d", "world3d")  # motion scored on pixel tracks or world positions


@dataclass
class FilterConfig:
    sigma_static: float = bounded(50.0, "[0, 100]")  # percentile of motion scores removed as static
    static_mode: str = "image2d"  # "image2d" (pixel tracks) or "world3d"
    sigma_reliable: float = bounded(0.5, "[0, 1]")  # max tolerated fraction of unobserved frames
    outlier_k: float = bounded(3.0, ">= 0")  # MAD multiplier for the residual gate

    def __post_init__(self):
        check_bounds(self)
        if self.static_mode not in STATIC_MODES:
            raise ValueError(f"static_mode must be one of {STATIC_MODES}, got {self.static_mode!r}")


def motion_score(tracks, mode: str) -> np.ndarray:
    """Each track's total positional variance over observed frames (sum of
    per-axis variances, ``np.var``'s to the bit), shaped (N,).

    Tracks with fewer than two observations score zero: they carry no motion
    evidence and fall with the static background.
    """
    coords = tracks.uv if mode == "image2d" else tracks.world
    seen, n = tracks.valid[..., None], np.count_nonzero(tracks.valid, axis=-1)[..., None]
    mean = np.where(seen, coords, 0.0).sum(axis=-2, keepdims=True) / np.maximum(n, 1)[..., None]
    dev = np.where(seen, coords - mean, 0.0)
    return np.where(n[..., 0] < 2, 0.0, ((dev * dev).sum(axis=-2) / np.maximum(n, 1)).sum(axis=-1))


def filter_static(tracks, cfg: FilterConfig) -> np.ndarray:
    """Keep mask without the least-moving fraction of tracks (background
    suppression)."""
    n = len(tracks)
    if n == 0:
        raise ValueError("filter_static requires at least one track")
    scores = motion_score(tracks, cfg.static_mode)
    if cfg.sigma_static >= 100.0:
        k = n - int(np.sum(scores == scores.max()))
    else:
        k = math.floor(cfg.sigma_static / 100.0 * n)
    keep = np.ones(n, dtype=bool)
    keep[np.argsort(scores, kind="stable")[:k]] = False
    return keep


def filter_unreliable(tracks, cfg: FilterConfig) -> np.ndarray:
    """Keep mask without the tracks unobserved for more than sigma_reliable
    of the segment."""
    return 1.0 - np.mean(tracks.valid, axis=1) <= cfg.sigma_reliable


def filter_outliers(residuals: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """Keep mask without the tracks whose mean registration residual is
    median + k * MAD above the rest.

    ``residuals`` holds each track's mean residual of an independent per-step
    rigid fit, NaN for a track that produced no correspondence pairs; such a
    track is removed (it cannot support estimation either). Raises
    InsufficientTracksError when fewer than four tracks survive.
    """
    vals = residuals[~np.isnan(residuals)]
    if len(vals) == 0:
        raise InsufficientTracksError("no tracks carry registration residuals")
    med = float(np.median(vals))
    mad = float(np.median(np.abs(vals - med)))
    keep = residuals <= med + cfg.outlier_k * max(mad, MAD_FLOOR)
    if np.count_nonzero(keep) < 4:
        raise InsufficientTracksError(
            f"only {np.count_nonzero(keep)} tracks survive outlier filtering; need at least 4"
        )
    return keep
