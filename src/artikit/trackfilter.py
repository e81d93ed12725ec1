"""Track filters: static background, unreliable tracks, registration outliers.

Each filter reads a segment's tracks stacked on a leading axis (a
``SegmentTrack``), or one value per track, and returns an (N,) bool keep
mask. The static filter splits each segment's tracks at Otsu's threshold
(Otsu, 1979) on the log10 of their motion scores, so the share removed as
background is found from the scores themselves. Motion is scored on world
positions: under a moving camera, pixel motion mixes in the camera's motion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import bounded, check_bounds
from .errors import InsufficientTracksError

MAD_FLOOR = 1e-9  # keeps the outlier bound meaningful when residuals are near-identical
SCORE_FLOOR = 1e-12  # gives zero motion scores a log


@dataclass
class FilterConfig:
    static_mode: str = "world3d"  # the only value: motion is scored on world positions
    sigma_reliable: float = bounded(0.5, "[0, 1]")  # max tolerated fraction of unobserved frames
    outlier_k: float = bounded(3.0, ">= 0")  # MAD multiplier for the residual gate

    def __post_init__(self):
        check_bounds(self)
        if self.static_mode != "world3d":
            raise ValueError(f"filter.static_mode must be 'world3d', got {self.static_mode!r}: motion is "
                             "scored on world positions, since pixel motion mixes camera and part motion")


def motion_score(tracks) -> np.ndarray:
    """Each track's total world-positional variance over observed frames
    (sum of per-axis variances, ``np.var``'s to the bit), shaped (N,).

    Tracks with fewer than two observations score zero: they carry no motion
    evidence and fall with the static background.
    """
    seen, n = tracks.valid[..., None], np.count_nonzero(tracks.valid, axis=-1)[..., None]
    mean = np.where(seen, tracks.world, 0.0).sum(axis=-2, keepdims=True) / np.maximum(n, 1)[..., None]
    dev = np.where(seen, tracks.world - mean, 0.0)
    return np.where(n[..., 0] < 2, 0.0, ((dev * dev).sum(axis=-2) / np.maximum(n, 1)).sum(axis=-1))


def filter_static(tracks, cfg: FilterConfig) -> np.ndarray:
    """Keep mask without the static background: the tracks whose log motion
    score lies above Otsu's cut, the one of the sorted log scores that
    maximises k (N - k) (mean_low - mean_high)^2 (the lowest on a tie).
    Equal scores, a single track's included, are all kept."""
    n = len(tracks)
    if n == 0:
        raise ValueError("filter_static requires at least one track")
    logs = np.log10(np.maximum(motion_score(tracks), SCORE_FLOOR))
    s = np.sort(logs)
    if s[0] == s[-1]:
        return np.ones(n, dtype=bool)
    k = np.arange(1, n)
    low = np.cumsum(s)[:-1]
    spread = k * (n - k) * (low / k - (s.sum() - low) / (n - k)) ** 2
    return logs > s[np.argmax(spread)]


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
