"""Track filters: static background, unreliable tracks, registration outliers.

All filters return (kept, removed) lists that preserve input order and
partition the input. The static filter is a rank split: scores are sorted
stably (ties keep input order) and the lowest floor(p/100 * N) are removed;
at percentile 100 everything except the tracks tied at the maximum goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bounded, check_bounds
from .errors import InsufficientTracksError
from .trackio import SegmentTrack

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


def motion_score(track, mode: str):
    """Total positional variance over observed frames (sum of per-axis
    variances, ``np.var``'s to the bit); per track for a stacked track.

    Tracks with fewer than two observations score zero: they carry no motion
    evidence and fall with the static background.
    """
    coords = track.uv if mode == "image2d" else track.world
    seen, n = track.valid[..., None], np.count_nonzero(track.valid, axis=-1)[..., None]
    mean = np.where(seen, coords, 0.0).sum(axis=-2, keepdims=True) / np.maximum(n, 1)[..., None]
    dev = np.where(seen, coords - mean, 0.0)
    return np.where(n[..., 0] < 2, 0.0, ((dev * dev).sum(axis=-2) / np.maximum(n, 1)).sum(axis=-1))[()]


def filter_static(tracks, cfg: FilterConfig) -> tuple[list, list]:
    """Drop the least-moving fraction of tracks (background suppression)."""
    n = len(tracks)
    if n == 0:
        raise ValueError("filter_static requires at least one track")
    stack = SegmentTrack(None, *(np.array([getattr(tr, f) for tr in tracks]) for f in ("uv", "world", "valid")))
    scores = motion_score(stack, cfg.static_mode)
    if cfg.sigma_static >= 100.0:
        k = n - int(np.sum(scores == scores.max()))
    else:
        k = math.floor(cfg.sigma_static / 100.0 * n)
    order = np.argsort(scores, kind="stable")
    removed_idx = set(int(i) for i in order[:k])
    kept = [tr for i, tr in enumerate(tracks) if i not in removed_idx]
    removed = [tr for i, tr in enumerate(tracks) if i in removed_idx]
    return kept, removed


def filter_unreliable(tracks, cfg: FilterConfig) -> tuple[list, list]:
    """Drop tracks unobserved for more than sigma_reliable of the segment."""
    kept, removed = [], []
    for tr in tracks:
        frac = 1.0 - float(np.mean(tr.valid))
        (removed if frac > cfg.sigma_reliable else kept).append(tr)
    return kept, removed


def filter_outliers(tracks, residuals: dict, cfg: FilterConfig) -> tuple[list, list]:
    """Drop tracks whose mean registration residual is median + k * MAD above
    the rest.

    ``residuals`` maps track id to the mean residual of an independent
    per-step rigid fit. A track that produced no correspondence pairs has no
    residual and is removed (it cannot support estimation either). Raises
    InsufficientTracksError when fewer than four tracks survive.
    """
    vals = np.array([residuals[tr.id] for tr in tracks if tr.id in residuals])
    if len(vals) == 0:
        raise InsufficientTracksError("no tracks carry registration residuals")
    med = float(np.median(vals))
    mad = float(np.median(np.abs(vals - med)))
    bound = med + cfg.outlier_k * max(mad, MAD_FLOOR)
    kept, removed = [], []
    for tr in tracks:
        r = residuals.get(tr.id)
        (kept if r is not None and r <= bound else removed).append(tr)
    if len(kept) < 4:
        raise InsufficientTracksError(
            f"only {len(kept)} tracks survive outlier filtering; need at least 4"
        )
    return kept, removed
