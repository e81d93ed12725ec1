"""Part trajectory estimation from smoothed world-frame tracks.

Correspondences pair keyframes a fixed stride apart; a track contributes a
pair only where it was actually observed at both endpoints (smoothing fills
gaps for the fidelity term, it does not manufacture observations). They are
built from a segment's tracks stacked as one ``SegmentTrack`` into one table
with a row per pair, ordered by step and then by track row; each row records
its step and its track's row, and ``residual_stats`` gives one mean residual
per track row, from which the pipeline's outlier gate makes a keep mask.

Two estimators share the correspondence structure:

* ``fit_independent``: one closed-form rigid transform per step, all steps
  registered at once by ``register_steps`` (stacked SVD registration with a
  reflection guard); the pipeline's outlier gate reads that registration's
  residuals, and the fits reuse it when the gate drops no track,
* ``fit_regularized``: all steps constrained to powers of a single unit
  twist, ``Delta_m = exp(theta_m * hat(xi))``, in one of two charts chosen
  by BIC. The prismatic chart (omega = 0) is fitted in closed form, its
  global optimum. At that optimum a score test (Rao's) predicts, from the
  Gauss-Newton normal equations, how far freeing omega would lower the
  cost; a prediction above BIC's need for three more parameters, or a
  registration seed that beats the prismatic cost by that need, runs the
  revolute fit, and only a fitted drop above it keeps that chart. Drops
  below the rounding floor of the data's scale count as none. The revolute
  fit is solved by ``damped_gauss_newton`` (the solver
  ``artmodel.fit_twist_to_poses`` shares) over the gauge-fixed twist chart
  plus the per-step magnitudes, with analytic Jacobians of the exp-map
  point action. The fit hands the solver one model callable: at each trial
  point it moves every pair's source with the stacked ``lie`` kernels, in a
  few array calls, and returns the residuals plus a callable that
  linearizes that point. The solver calls it only for accepted points. It
  builds each step's normal blocks from sums over the step's pairs, with no
  Jacobian row built (``_pair_normal``, which the score test calls too),
  and the solver assembles the arrowhead normal matrix from those blocks
  (see ``damped_gauss_newton`` for the contract and stop rules). No matrix
  product is long enough for BLAS to split over threads, so no result
  depends on their count.

Step transforms are world-frame displacement fields and chain by left
multiplication from an anchor placed at the centroid of the part's first
observed positions. The chained world poses are one stacked pair of arrays,
quaternions and translations, with the anchor in row 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DegenerateGeometryError, DegenerateStepError, InsufficientMotionError
from .lie import (
    RigidTransform,
    Twist,
    apply_each,
    exp_map,
    log_map,
    matrix_to_quat,
    normalize_twist,
    quat_mul,
    quat_to_matrix,
    renormalize,
    retract_twist,
    se3_left_jacobian,
    skew,
    twist_tangent_basis,
)

log = logging.getLogger(__name__)

DEFAULT_STRIDE = 2
MIN_PAIRS_PER_STEP = 3
COLLINEARITY_RTOL = 1e-9  # middle singular value below this fraction of the largest
MIN_MOTION = 1e-6  # meters of peak point displacement required to fit
MAX_ITER = 100
COST_RTOL = 1e-12  # relative cost decrease that counts as converged
DAMPING_INIT = 1e-3
DAMPING_MAX = 1e12


@dataclass
class CorrespondenceSet:
    """Every observed point pair of a segment, one row each, ordered by step
    and then by track row: ``src`` at keyframe ``step``, ``dst`` at the next
    keyframe."""

    src: np.ndarray  # (P, 3)
    dst: np.ndarray  # (P, 3)
    step: np.ndarray  # (P,) index of each pair's step
    track: np.ndarray  # (P,) row of each pair's track in the segment's stack
    stride: int
    keyframes: np.ndarray  # (M+1,) frame indices
    track_count: int  # rows of the stack that ``track`` indexes

    @property
    def step_count(self) -> int:
        return len(self.keyframes) - 1


@dataclass
class TrajectoryEstimate:
    """Integrated world poses plus fit diagnostics.

    ``poses`` stacks the M+1 world poses, with the anchor in row 0.
    ``rms_residual`` is the pair residual rms of either estimator.
    ``base_twist``/``thetas`` are populated by the regularized estimator only.
    """

    mode: str
    anchor: RigidTransform
    poses: tuple  # (q (M+1, 4), t (M+1, 3))
    rms_residual: float
    base_twist: Twist | None = None
    thetas: np.ndarray | None = None
    converged: bool = True
    flags: list = field(default_factory=list)


def build_correspondences(tracks, stride: int = DEFAULT_STRIDE) -> CorrespondenceSet:
    """Collect observed point pairs at keyframes 0, stride, 2*stride, ...

    ``tracks`` is a stacked ``SegmentTrack`` (``world`` (N, T, 3) and
    ``valid`` (N, T) are read). Raises DegenerateStepError naming the first
    step with fewer than MIN_PAIRS_PER_STEP pairs.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if not len(tracks):
        raise ValueError("no tracks to build correspondences from")
    T = tracks.world.shape[1]
    keyframes = np.arange(0, T, stride)
    if len(keyframes) < 2:
        raise DegenerateStepError(
            f"segment of {T} frames yields no steps at stride {stride}"
        )
    world = tracks.world[:, keyframes]
    valid = tracks.valid[:, keyframes]
    both = valid[:, :-1] & valid[:, 1:]  # (tracks, steps): both endpoints observed
    n = np.count_nonzero(both, axis=0)
    starved = np.flatnonzero(n < MIN_PAIRS_PER_STEP)
    if len(starved):
        m = starved[0]
        raise DegenerateStepError(
            f"step {m} (frames {keyframes[m]}->{keyframes[m + 1]}) has {n[m]} pairs; "
            f"need at least {MIN_PAIRS_PER_STEP}"
        )
    step, track = np.nonzero(both.T)
    return CorrespondenceSet(world[track, step], world[track, step + 1], step, track, stride, keyframes, len(both))


# ---------------------------------------------------------------------------
# closed-form per-step registration


def register_steps(corr: CorrespondenceSet) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid transform of every step, dst ~= R @ src + t, as
    stacked ``(q (M, 4), t (M, 3))``.

    Centroids and the 9 entries of each cross-covariance are sums per step by
    ``np.bincount``, which adds a step's pairs in table order, then one stacked SVD
    with a determinant guard against reflections and one stacked ``matrix_to_quat``:
    each step equals registering it alone, bit for bit. Raises DegenerateStepError
    for a step with too few pairs and DegenerateGeometryError for the first
    (near-)collinear one, where the rotation about the line is unobservable.
    """
    src, dst, step = corr.src, corr.dst, corr.step
    M = corr.step_count
    n = np.bincount(step, minlength=M)
    if n.min() < MIN_PAIRS_PER_STEP:
        raise DegenerateStepError(f"need >= {MIN_PAIRS_PER_STEP} pairs, got {n.min()}")
    cs = np.stack([np.bincount(step, src[:, c], M) for c in range(3)], axis=1) / n[:, None]
    cd = np.stack([np.bincount(step, dst[:, c], M) for c in range(3)], axis=1) / n[:, None]
    a, b = src - cs[step], dst - cd[step]
    H = np.stack([np.bincount(step, a[:, i] * b[:, j], M) for i in range(3) for j in range(3)], axis=1)
    U, S, Vt = np.linalg.svd(H.reshape(M, 3, 3))
    flat = np.flatnonzero(S[:, 1] <= COLLINEARITY_RTOL * S[:, 0])
    if len(flat):
        raise DegenerateGeometryError(
            f"point pairs are near-collinear (singular values {S[flat[0]].tolist()})"
        )
    V, Ut = np.swapaxes(Vt, 1, 2), np.swapaxes(U, 1, 2)
    V[:, :, 2] *= np.sign(np.linalg.det(V @ Ut))[:, None]
    R = V @ Ut
    return matrix_to_quat(R), cd - (R @ cs[:, :, None])[:, :, 0]


def register_rigid(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform with dst ~= R @ src + t: the one-step
    case of ``register_steps``, with its errors. Raises ValueError unless
    ``src`` and ``dst`` are finite (n, 3) arrays of one shape."""
    src, dst = np.asarray(src, dtype=float), np.asarray(dst, dtype=float)
    for name, x in (("src", src), ("dst", dst)):
        if x.ndim != 2 or x.shape[1] != 3 or not np.isfinite(x).all():
            raise ValueError(f"{name} must be a finite (n, 3) array, got shape {x.shape}")
    if src.shape != dst.shape:
        raise ValueError(f"src {src.shape} and dst {dst.shape} differ in shape")
    n = len(src)
    q, t = register_steps(CorrespondenceSet(src, dst, np.zeros(n, dtype=int), np.arange(n), 1, np.arange(2), n))
    return RigidTransform(q[0], t[0])


def residual_stats(corr: CorrespondenceSet, steps) -> tuple[float, np.ndarray]:
    """Residual RMS over all pairs of the stacked step transforms
    ``(q (M, 4), t (M, 3))``, plus each track row's mean pair residual
    (``corr.track_count``,), NaN for a row without pairs."""
    R = quat_to_matrix(steps[0])
    norms = np.linalg.norm(corr.dst - apply_each(R[corr.step], steps[1][corr.step], corr.src), axis=1)
    total = float(np.sum(norms * norms))
    with np.errstate(invalid="ignore"):  # 0 / 0 for a row without pairs
        means = np.bincount(corr.track, norms, corr.track_count) / np.bincount(corr.track, minlength=corr.track_count)
    return float(np.sqrt(total / len(norms))), means


def integrate_poses(steps, anchor_points: np.ndarray):
    """Chain stacked step transforms ``(q (M, 4), t (M, 3))`` into world
    poses from an anchor; returns ``(anchor, (q (M+1, 4), t (M+1, 3)))``.

    The anchor has identity rotation and sits at the centroid of
    ``anchor_points`` (the part's observed first-keyframe positions). World
    poses chain by left multiplication, T_{m} = Delta_m @ T_{m-1}, with the
    floating-point operations of ``compose``, so the rows equal a chain of
    ``compose`` calls bit for bit.
    """
    pts = np.asarray(anchor_points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] != 3:
        raise ValueError(f"anchor_points must be (n, 3) with n >= 1, got {pts.shape}")
    anchor = RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]), pts.mean(axis=0))
    q, t = [anchor.q], [anchor.t]
    # one quat_to_matrix call per step: a stacked call rounds R @ t differently
    for dq, dt in zip(*steps):
        q.append(renormalize(quat_mul(dq, q[-1])))
        t.append(quat_to_matrix(dq) @ t[-1] + dt)
    return anchor, (np.array(q), np.array(t))


def choose_anchor(tracks) -> tuple[np.ndarray, int, bool]:
    """Observed positions of a stacked ``SegmentTrack`` at its earliest
    observed frame.

    Returns (points, frame index, fell_back); fell_back is True when frame 0
    had no observations and a later frame anchors the trajectory.
    """
    seen = np.flatnonzero(tracks.valid.any(axis=0))
    if not len(seen):
        raise ValueError("no observed positions in any frame")
    t = int(seen[0])
    return tracks.world[tracks.valid[:, t], t], t, t != 0


def fit_independent(corr: CorrespondenceSet, anchor_points=None, steps=None) -> TrajectoryEstimate:
    """One unconstrained rigid transform per step; ``steps`` reuses a
    ``register_steps`` of ``corr`` already made."""
    if steps is None:
        steps = register_steps(corr)
    if anchor_points is None:
        anchor_points = corr.src[corr.step == 0]
    anchor, poses = integrate_poses(steps, anchor_points)
    return TrajectoryEstimate(
        mode="independent",
        anchor=anchor,
        poses=poses,
        rms_residual=residual_stats(corr, steps)[0],
    )


# ---------------------------------------------------------------------------
# shared damped Gauss-Newton solver


def _arrowhead(H: np.ndarray, b: np.ndarray):
    """Arrowhead normal matrix ``JtJ`` and gradient ``Jtr`` from per-step
    blocks ``H`` (M, k+1, k+1) and ``b`` (M, k+1) over k chart coordinates
    and each step's own magnitude (see ``damped_gauss_newton``)."""
    M, k = b.shape[0], b.shape[1] - 1
    JtJ = np.zeros((k + M, k + M))
    JtJ[:k, :k] = H[:, :k, :k].sum(axis=0)
    JtJ[k:, :k] = H[:, k, :k]
    JtJ[:k, k:] = H[:, k, :k].T
    JtJ[np.arange(k, k + M), np.arange(k, k + M)] = H[:, k, k]
    return JtJ, np.concatenate((b[:, :k].sum(axis=0), b[:, k]))


def _predicted_decrease(JtJ: np.ndarray, Jtr: np.ndarray, lam: float) -> float:
    """Gauss-Newton model decrease of the step damped by ``lam``; infinite
    when that system is singular."""
    try:
        delta = np.linalg.solve(JtJ + lam * np.eye(len(Jtr)), -Jtr)
    except np.linalg.LinAlgError:
        return np.inf
    return float(-(Jtr @ delta) - 0.5 * (delta @ JtJ @ delta))


def damped_gauss_newton(xi: Twist, thetas: np.ndarray, model):
    """Levenberg-damped Gauss-Newton over a normalized twist's gauge-fixed
    chart plus free magnitudes; the normal matrix is an arrowhead.

    ``model(xi, thetas)`` returns ``(r, linearize)``: every residual row at
    that point (R,), and a callable ``linearize(B)`` that linearizes the same
    point along the k chart directions of basis ``B`` as per-step blocks
    ``(H, b)``: step m's ``J_m^T J_m`` (M, k+1, k+1) and ``J_m^T r_m``
    (M, k+1), J_m the Jacobian of its rows along the chart and then along its
    own magnitude. The cost is ``sum(r * r)``. Each point is evaluated once;
    ``linearize`` is called only for accepted points, so a model defers its
    work to it and reuses what the residual step computed. ``_arrowhead``
    assembles the arrowhead normal matrix from those blocks.

    A step is accepted when it lowers the cost; a relative drop below
    COST_RTOL converges. When no damping up to DAMPING_MAX lowers the cost,
    the fit has converged if a step damped by at most DAMPING_INIT (less if
    the iteration started less damped) predicted a decrease
    ``-(Jtr . d) - d.JtJ.d / 2`` of at most COST_RTOL times the cost, or if
    the gradient is as flat as an exact fit leaves it
    (``|Jtr| <= 1e-12 max(1, cost)``, cost at the rounding floor); otherwise
    it has stalled. The predicted decrease only grows as the damping falls,
    so a large damping carried over from earlier iterations cannot make a
    real gradient look negligible.

    Returns ``(xi, thetas, cost, stop)`` signed so that ``sum(thetas) >= 0``;
    ``stop`` is "converged", "stalled" or "reached MAX_ITER", and without
    convergence the best iterate comes back.
    """
    M = len(thetas)
    r, linearize = model(xi, thetas)
    cost = float(np.sum(r * r))
    lam = DAMPING_INIT
    stop = None
    for _ in range(MAX_ITER):
        JtJ, Jtr = _arrowhead(*linearize(twist_tangent_basis(xi)))
        k = len(Jtr) - M
        lam_start = lam
        while lam <= DAMPING_MAX:
            try:
                delta = np.linalg.solve(JtJ + lam * np.eye(k + M), -Jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            xi_new = retract_twist(xi, delta[:k])
            thetas_new = thetas + delta[k:]
            r_new, linearize_new = model(xi_new, thetas_new)
            cost_new = float(np.sum(r_new * r_new))
            if cost_new < cost:
                lam = max(lam / 10.0, 1e-15)
                drop = cost - cost_new
                xi, thetas, cost = xi_new, thetas_new, cost_new
                r, linearize = r_new, linearize_new
                if drop < COST_RTOL * max(cost, 1e-300) or cost == 0.0:
                    stop = "converged"
                break
            lam *= 10.0
        else:
            # no damping gave a decrease: converged if the gradient is at the
            # rounding floor of an exact fit, or if a lightly damped step
            # promised a negligible decrease
            flat = (
                cost == 0.0
                or np.linalg.norm(Jtr) <= 1e-12 * max(1.0, cost)
                or _predicted_decrease(JtJ, Jtr, min(lam_start, DAMPING_INIT)) <= COST_RTOL * cost
            )
            stop = "converged" if flat else "stalled"
        if stop:
            break
    if np.sum(thetas) < 0:
        thetas = -thetas
        xi = Twist(-xi.omega, -xi.v)
    return xi, thetas, cost, stop or "reached MAX_ITER"


# ---------------------------------------------------------------------------
# regularized joint fit


def _pair_residual(corr: CorrespondenceSet, xi: Twist, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moved sources exp(theta_m hat(xi)) src and residuals dst - moved, (P, 3) each."""
    _, R, t = exp_map(xi, thetas)
    y = apply_each(R[corr.step], t[corr.step], corr.src)
    return y, corr.dst - y


def _pair_model(corr: CorrespondenceSet, xi: Twist, thetas: np.ndarray):
    """Point-pair residual rows of all steps and their linearization, in the
    ``damped_gauss_newton`` model contract."""
    y, r = _pair_residual(corr, xi, thetas)
    return r.ravel(), partial(_pair_normal, corr.step, y, r, xi, thetas)


def tangent_map(xi: Twist, thetas: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(M, 6, k+1): per step, the tangent motion of exp(theta_m hat(xi)) along
    each chart direction of basis ``B`` (6, k), then along theta_m (xi)."""
    xvec = xi.as_vector()
    chart = se3_left_jacobian(thetas[:, None] * xvec) @ (thetas[:, None, None] * B)
    return np.concatenate((chart, np.broadcast_to(xvec[:, None], (len(thetas), 6, 1))), axis=2)


def _pair_normal(step: np.ndarray, y: np.ndarray, r: np.ndarray, xi: Twist, thetas: np.ndarray, B: np.ndarray):
    """Per-step normal blocks ``(H, b)`` of the pair residuals ``r`` at moved
    sources ``y`` (P, 3 each), from sums over each step's pairs.

    A step's tangent tau = (tau_w, tau_v) moves a residual by
    [y]x tau_w - tau_v, so its information matrix is
    G = [[sum(|y|^2 I - y y^T), [sum y]x], [-[sum y]x, n I]] and its gradient
    g = [sum r x y, -sum r]; with the tangent map D, H = D^T G D and
    b = D^T g. All sums are one ``np.bincount``, in table order.
    """
    M = len(thetas)
    y0, y1, y2 = y.T
    # columns: 1; y; y0y0, y0y1, y0y2, y1y1, y1y2, y2y2; r x y; r
    table = np.column_stack((np.ones(len(y)), y, y0 * y0, y0 * y1, y0 * y2, y1 * y1, y1 * y2, y2 * y2, np.cross(r, y), r))
    S = np.bincount((step[:, None] * 16 + np.arange(16)).ravel(), table.ravel(), M * 16).reshape(M, 16)
    yy = S[:, [4, 5, 6, 5, 7, 8, 6, 8, 9]].reshape(M, 3, 3)
    sy, eye = skew(S[:, 1:4]), np.eye(3)
    G = np.block([[np.trace(yy, axis1=1, axis2=2)[:, None, None] * eye - yy, sy], [-sy, S[:, 0, None, None] * eye]])
    g = np.concatenate((S[:, 10:13], -S[:, 13:16]), axis=1)
    D = tangent_map(xi, thetas, B)
    Dt = np.swapaxes(D, 1, 2)
    return Dt @ G @ D, (Dt @ g[:, :, None])[:, :, 0]


def _init_from_steps(corr: CorrespondenceSet, steps=None) -> tuple[Twist, np.ndarray]:
    """Seed the shared twist from the logs of the per-step registration
    ``steps`` (made here when not given).

    Logs are sign-aligned against the largest step, averaged with pair-count
    weights, normalized; magnitudes come from least-squares projection onto
    the seed.
    """
    etas = log_map(register_steps(corr) if steps is None else steps)
    weights = np.bincount(corr.step, minlength=corr.step_count)
    norms = np.linalg.norm(etas, axis=1)
    ref = etas[int(np.argmax(norms))]
    signs = np.where(etas @ ref < 0, -1.0, 1.0)
    mean = (signs[:, None] * etas * weights[:, None]).sum(axis=0) / weights.sum()
    xi0, _ = normalize_twist(Twist.from_vector(mean))
    x = xi0.as_vector()
    thetas0 = etas @ x / float(x @ x)
    return xi0, thetas0


def _fit_prismatic(corr: CorrespondenceSet) -> tuple[Twist, np.ndarray, np.ndarray]:
    """The global least-squares fit of the prismatic chart, in closed form.

    With omega = 0 every step is a translation theta_m v, so the fit
    minimizes sum_m sum_j |d_mj - theta_m v|^2 over the displacements
    d = dst - src: v is the top eigenvector of S = sum_m n_m dbar_m dbar_m^T
    (dbar_m step m's mean displacement, n_m its pair count) and
    theta_m = dbar_m . v, signed so that sum(thetas) >= 0. Returns the unit
    twist, the magnitudes and the residual rows (P, 3).
    """
    step, M = corr.step, corr.step_count
    d = corr.dst - corr.src
    n = np.bincount(step, minlength=M)
    dbar = np.stack([np.bincount(step, d[:, c], M) for c in range(3)], axis=1) / n[:, None]
    v = np.linalg.eigh((n[:, None] * dbar).T @ dbar)[1][:, -1]
    thetas = dbar @ v
    if np.sum(thetas) < 0:
        v, thetas = -v, -thetas
    return Twist(np.zeros(3), v), thetas, d - thetas[step, None] * v


def _score_drop(corr: CorrespondenceSet, xi: Twist, thetas: np.ndarray, r: np.ndarray) -> float:
    """Rao's score test for freeing omega at the prismatic optimum ``xi``,
    ``thetas`` with residual rows ``r``: the Gauss-Newton predicted cost drop
    ``Jtr^T (J^T J)^-1 Jtr`` over omega's three axes, v's two tangent
    directions and the magnitudes; infinite when that system is singular."""
    B = np.hstack((np.eye(6)[:, :3], twist_tangent_basis(xi)))
    JtJ, Jtr = _arrowhead(*_pair_normal(corr.step, corr.dst - r, r, xi, thetas, B))
    return 2.0 * _predicted_decrease(JtJ, Jtr, 0.0)  # that model drop is of half the cost


def fit_regularized(corr: CorrespondenceSet, anchor_points=None, steps=None) -> TrajectoryEstimate:
    """Joint fit of a single unit twist and per-step magnitudes.

    Minimizes sum_m sum_j |dst_mj - exp(theta_m hat(xi)) src_mj|^2 with xi
    confined to the normalized-twist gauge. The prismatic chart is fitted
    first, in closed form (``_fit_prismatic``). The revolute chart has three
    more parameters; BIC prefers it when it lowers the cost c_p by more than
    c_p (1 - exp(-3 ln N / N)), N residual rows. It is fitted, from the seed
    ``_init_from_steps`` by ``damped_gauss_newton``, only when the score test
    (``_score_drop``) predicts a drop above that need or the seed's own cost
    is below c_p by more (the score test is blind to a part turning about
    its own centroid), and kept only when its fitted drop is above the need
    too. Each test counts a drop below the rounding floor
    (machine eps * max |src|)^2 * N as none. A kept revolute fit that
    stalls or reaches MAX_ITER returns the best iterate flagged
    ``non_converged``. ``rms_residual`` comes from the chosen fit's cost.
    ``steps`` reuses a ``register_steps`` of ``corr`` for the seed.
    """
    peak = float(np.max(np.linalg.norm(corr.dst - corr.src, axis=1)))
    if peak <= MIN_MOTION:
        raise InsufficientMotionError(
            f"peak point displacement {peak:.3e} m is below {MIN_MOTION} m"
        )
    xi, thetas, r = _fit_prismatic(corr)
    cost = float(np.sum(r * r))
    N = r.size
    floor = (np.finfo(float).eps * float(np.max(np.abs(corr.src)))) ** 2 * N
    need = max(-cost * np.expm1(-3.0 * np.log(N) / N), floor)
    stop = "converged"
    seed = _init_from_steps(corr, steps)
    seed_drop = cost - float(np.sum(_pair_residual(corr, *seed)[1] ** 2))
    if _score_drop(corr, xi, thetas, r) > need or seed_drop > need:
        fit = damped_gauss_newton(*seed, partial(_pair_model, corr))
        if cost - fit[2] > need:
            xi, thetas, cost, stop = fit
    converged = stop == "converged"
    flags = []
    if not converged:
        flags.append("non_converged")
        log.warning("regularized fit %s; flagged non_converged", stop)
    q, _, t = exp_map(xi, thetas)
    if anchor_points is None:
        anchor_points = corr.src[corr.step == 0]
    anchor, poses = integrate_poses((q, t), anchor_points)
    return TrajectoryEstimate(
        mode="regularized",
        anchor=anchor,
        poses=poses,
        rms_residual=float(np.sqrt(cost / len(corr.src))),
        base_twist=xi,
        thetas=thetas,
        converged=converged,
        flags=flags,
    )
