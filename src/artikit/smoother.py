"""Trajectory smoothing as a banded convex least-squares problem.

Minimizes, independently per axis,

    E(p) = sum_t  v_t |p_t - target_t|^2
         + lambda_vel  sum_{t>=1} |p_t - p_{t-1}|^2
         + lambda_jerk sum_{t>=3} |p_t - 3 p_{t-1} + 3 p_{t-2} - p_{t-3}|^2

where v_t is 1 on observed frames and 0 otherwise, so unobserved frames are
interpolated by the difference penalties alone. The first difference terms
start at t = 1 and the third-difference terms at t = 3; no phantom samples
are invented, and the jerk penalty is skipped entirely for sequences shorter
than four frames. The normal equations form a symmetric positive definite
system of bandwidth three, solved exactly with scipy's banded Cholesky.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .bounds import bounded, check_bounds
from .errors import IllPosedError
from .trackio import Track3D

JERK_STENCIL = np.array([-1.0, 3.0, -3.0, 1.0])  # coefficients at t-3 .. t


_WEIGHTS = "smoothing weights must be >= 0, got {lambda_vel}, {lambda_jerk}"


@dataclass
class SmootherConfig:
    lambda_vel: float = bounded(0.5, ">= 0", message=_WEIGHTS)
    lambda_jerk: float = bounded(5.0, ">= 0", message=_WEIGHTS)

    def __post_init__(self):
        check_bounds(self)


def smoothing_energy(positions, targets, weights, cfg: SmootherConfig) -> float:
    """Objective value E(positions); the direct sum, usable as an oracle."""
    p = np.asarray(positions, dtype=float)
    tgt = np.asarray(targets, dtype=float)
    w = np.asarray(weights, dtype=float)
    T = len(p)
    diff = p - np.where(w[:, None] > 0, tgt, p)  # ignore targets at zero weight
    e = float(np.sum(w[:, None] * diff * diff))
    if cfg.lambda_vel > 0 and T >= 2:
        d1 = p[1:] - p[:-1]
        e += cfg.lambda_vel * float(np.sum(d1 * d1))
    if cfg.lambda_jerk > 0 and T >= 4:
        d3 = p[3:] - 3.0 * p[2:-1] + 3.0 * p[1:-2] - p[:-3]
        e += cfg.lambda_jerk * float(np.sum(d3 * d3))
    return e


def _banded_system(weights: np.ndarray, cfg: SmootherConfig) -> tuple[np.ndarray, int]:
    """Upper-form band storage of the normal-equation matrix."""
    T = len(weights)
    bw = 0
    if cfg.lambda_vel > 0 and T >= 2:
        bw = 1
    if cfg.lambda_jerk > 0 and T >= 4:
        bw = 3
    ab = np.zeros((bw + 1, T))
    ab[bw, :] = weights
    if cfg.lambda_vel > 0 and T >= 2:
        # first-difference rows (t-1, t) with coefficients (-1, 1)
        ab[bw, :-1] += cfg.lambda_vel
        ab[bw, 1:] += cfg.lambda_vel
        ab[bw - 1, 1:] += -cfg.lambda_vel
    if cfg.lambda_jerk > 0 and T >= 4:
        c = JERK_STENCIL
        for a in range(4):
            for b in range(a, 4):
                off = b - a
                # row r contributes c[a]*c[b] at (r-3+a, r-3+b) for r in 3..T-1
                ab[bw - off, b : T - 3 + b] += cfg.lambda_jerk * c[a] * c[b]
    return ab, bw


def smooth_track(track: Track3D, cfg: SmootherConfig) -> Track3D:
    """Solve for the minimizer of E; returns fully valid positions.

    The track's ``valid`` mask supplies the fidelity weights: unobserved
    frames get weight zero and come out interpolated. Raises IllPosedError
    when no frame is observed (the minimizer is not unique).
    """
    T = len(track.positions)
    weights = track.valid.astype(float)
    if not np.any(track.valid):
        raise IllPosedError("cannot smooth a track with zero observed frames")
    targets = np.where(track.valid[:, None], track.positions, 0.0)
    b = weights[:, None] * targets
    ab, bw = _banded_system(weights, cfg)
    if bw == 0:
        if np.any(weights == 0):
            raise IllPosedError(
                "zero smoothing weights with unobserved frames leave those frames unconstrained"
            )
        return Track3D(track.positions.copy(), np.ones(T, dtype=bool))
    try:
        smoothed = solveh_banded(ab, b)
    except np.linalg.LinAlgError as e:
        raise IllPosedError(f"smoothing system is not positive definite: {e}") from e
    return Track3D(smoothed, np.ones(T, dtype=bool))
