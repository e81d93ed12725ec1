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
system of bandwidth three, solved exactly by an LDL^T factorization of the
band. The tracks of a segment are solved together: the factorization runs
frame by frame and each step is elementwise over the tracks, so the stack's
solution equals the per-track solves bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


def _solve_banded(ab: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve each of N tracks' systems, given as the upper-form band ``ab``
    (bw + 1, N, T) of ``_banded_system``, for ``rhs`` (N, T, 3) by an LDL^T
    factorization without pivoting. Returns the (N, T, 3) solutions and an
    (N,) mask of the tracks whose pivots all came out positive and finite;
    the others' solutions are void. Every step is elementwise over the
    tracks."""
    bw = ab.shape[0] - 1
    N, T = ab.shape[1:]
    # rows padded with bw zero rows at each end: S[bw + i, bw + k] = A[i, i + k]
    S = np.zeros((T + 2 * bw, 2 * bw + 1, N))
    for k in range(bw + 1):
        S[bw : bw + T - k, bw + k] = ab[bw - k, :, k:].T
    X = np.zeros((T + 2 * bw, 3, N))
    X[bw : bw + T] = rhs.transpose(1, 2, 0)
    L = np.zeros((T + 2 * bw, bw, 1, N))  # L[bw + j, k - 1] = L_{j + k, j}
    D, U = S[bw:, bw], S[bw:, bw + 1 :, None]  # A[j, j] and A[j, j + 1 .. j + bw] of pivot row j
    Ut = U.transpose(0, 2, 1, 3)
    sT, sk, sN = S.strides
    # block[j, k - 1, c - 1] = A[j + k, j + c]: what eliminating row j updates
    block = as_strided(S[bw + 1 :, bw:], (T, bw, bw, N), (sT, sT - sk, sk, sN))
    lT, lk, _, lN = L.strides
    # left[j, i] = L_{j, j - bw + i}: row j of L left of the diagonal
    left = as_strided(L[:, bw - 1 :], (T, bw, 1, N), (lT, lT - lk, 0, lN))
    with np.errstate(all="ignore"):  # a failed pivot spoils only its own track
        for j in range(T):  # factor, and substitute forward through L
            l = np.divide(U[j], D[j], out=L[bw + j])
            block[j] -= l * Ut[j]
            X[bw + j + 1 : 2 * bw + j + 1] -= l * X[bw + j]
        X[bw : bw + T] /= D[:T, None]
        for j in range(T - 1, -1, -1):  # substitute backward through L^T, column by column
            X[j : bw + j] -= left[j] * X[bw + j]
    return X[bw : bw + T].transpose(2, 0, 1), ((D[:T] > 0) & (D[:T] < np.inf)).all(axis=0)


def smooth_track(track: Track3D, cfg: SmootherConfig) -> Track3D:
    """Solve for the minimizer of E of a track, or of each track of a stack
    ((N, T, 3) positions, (N, T) masks) in one band solve that equals
    solving each alone bit for bit.

    The track's ``valid`` mask supplies the fidelity weights: unobserved
    frames get weight zero and come out interpolated. The system is
    positive definite exactly when the observed frames pin down what the
    difference penalties leave free: with a velocity term one observed
    frame (a constant is free), with the jerk term alone three (a quadratic
    is free), with neither every frame. A track short of that, or whose
    factorization still meets a pivot that is not positive, comes back NaN
    and invalid, the others fully valid. Raises IllPosedError when no track
    can be smoothed.
    """
    T = track.valid.shape[-1]
    valid = track.valid.reshape(-1, T)
    weights = valid.astype(float)
    ab, bw = _banded_system(weights, cfg)
    needed = T if bw == 0 else 1 if cfg.lambda_vel > 0 else 3
    ok = np.count_nonzero(valid, axis=1) >= needed
    if not ok.any():
        raise IllPosedError(
            "cannot smooth a track with zero observed frames" if not valid.any()
            else "zero smoothing weights with unobserved frames leave those frames unconstrained"
            if bw == 0 else "the jerk penalty alone needs three observed frames"
        )
    rhs = weights[:, :, None] * np.where(valid[:, :, None], track.positions.reshape(-1, T, 3), 0.0)
    x, solved = _solve_banded(ab[:, ok], rhs[ok])
    if not solved.any():
        raise IllPosedError("smoothing system is not positive definite")
    ok[ok] = solved
    out = np.full(rhs.shape, np.nan)
    out[ok] = x[solved]
    return Track3D(out.reshape(track.positions.shape), np.repeat(ok, T).reshape(track.valid.shape))
