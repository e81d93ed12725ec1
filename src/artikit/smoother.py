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
The tracks of a segment are solved together: their bands are uncoupled
blocks of one band, one ``solveh_banded`` call whose solution equals the
per-track solves bit for bit.
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
    """Upper-form band storage of the normal-equation matrices of N tracks'
    (N, T) weights, (bw + 1, N, T): one uncoupled band per track."""
    T = weights.shape[-1]
    bw = 0
    if cfg.lambda_vel > 0 and T >= 2:
        bw = 1
    if cfg.lambda_jerk > 0 and T >= 4:
        bw = 3
    ab = np.zeros((bw + 1,) + weights.shape)
    ab[bw] = weights
    if cfg.lambda_vel > 0 and T >= 2:
        # first-difference rows (t-1, t) with coefficients (-1, 1)
        ab[bw, :, :-1] += cfg.lambda_vel
        ab[bw, :, 1:] += cfg.lambda_vel
        ab[bw - 1, :, 1:] += -cfg.lambda_vel
    if cfg.lambda_jerk > 0 and T >= 4:
        c = JERK_STENCIL
        for a in range(4):
            for b in range(a, 4):
                off = b - a
                # row r contributes c[a]*c[b] at (r-3+a, r-3+b) for r in 3..T-1
                ab[bw - off, :, b : T - 3 + b] += cfg.lambda_jerk * c[a] * c[b]
    return ab, bw


def smooth_track(track: Track3D, cfg: SmootherConfig) -> Track3D:
    """Solve for the minimizer of E of a track, or of each track of a stack
    ((N, T, 3) positions, (N, T) masks) in one block-banded solve that
    equals solving each alone bit for bit.

    The track's ``valid`` mask supplies the fidelity weights: unobserved
    frames get weight zero and come out interpolated. A track that cannot
    be smoothed (no observed frame, gaps without difference penalties, a
    singular system) comes back NaN and invalid, the others fully valid.
    Raises IllPosedError when no track can be smoothed.
    """
    T = track.valid.shape[-1]
    valid = track.valid.reshape(-1, T)
    weights = valid.astype(float)
    ab, bw = _banded_system(weights, cfg)
    ok = valid.any(axis=1) if bw else valid.all(axis=1)
    if not ok.any():
        raise IllPosedError(
            "zero smoothing weights with unobserved frames leave those frames unconstrained"
            if valid.any() else "cannot smooth a track with zero observed frames"
        )
    rhs = weights[:, :, None] * np.where(valid[:, :, None], track.positions.reshape(-1, T, 3), 0.0)
    out = np.full(rhs.shape, np.nan)
    try:
        out[ok] = solveh_banded(ab[:, ok].reshape(bw + 1, -1), rhs[ok].reshape(-1, 3)).reshape(-1, T, 3)
    except np.linalg.LinAlgError as e:
        # the joint factorization does not say whose block failed: solve each alone
        for i in np.flatnonzero(ok):
            try:
                out[i] = solveh_banded(ab[:, i], rhs[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        if not ok.any():
            raise IllPosedError(f"smoothing system is not positive definite: {e}") from e
    return Track3D(out.reshape(track.positions.shape), np.repeat(ok, T).reshape(track.valid.shape))
