"""Articulation model fitting and joint classification.

A regularized trajectory is one twist, chosen in point space by
``trajest``'s chart selection, so its model is built in closed form and its
type is its chart's: revolute when that chart rotates by ``theta_rot_min``
or more, else prismatic. Its poses lie on the model, whose pose rms is 0.
Only a revolute chart below the gate gets a (prismatic) pose fit.

An independent trajectory is classified in pose space: find the unit twist
xi and per-pose magnitudes Theta_m minimizing

    sum_m | log( exp(Theta_m hat(xi))^-1  T_m ) |^2

with ``trajest.damped_gauss_newton``; Theta_0 is pinned to zero. The poses
T_m are one ``lie.pose_stack`` in the anchor's frame. A trajectory is
revolute only when the free model shows enough total rotation and beats
the prismatic-constrained (omega = 0) fit's residual by
``residual_margin``; everything else is prismatic, the drawer-like default.
The reported unconstrained model is whichever of the two has the lower
residual, so the constrained residual can never undercut it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .bounds import bounded, check_bounds
from .errors import InsufficientMotionError
from .lie import (
    Twist,
    apply_each,
    exp_map,
    inverse,
    log_map,
    log_rows,
    normalize_twist,
    pose_stack,
    quat_mul,
    quat_to_matrix,
    rotation_angle,
    se3_left_jacobian,
    skew,
    transform_twist,
    twist_gauge,
)
from .trajest import TrajectoryEstimate, damped_gauss_newton, tangent_map

log = logging.getLogger(__name__)

MIN_POSE_MOTION = 1e-6  # all poses closer than this to identity: nothing to fit
AXIS_OMEGA_MIN = 1e-9


_GATES = "theta_rot_min and trans_min must be positive, got {theta_rot_min}, {trans_min}"


@dataclass
class ClassifierConfig:
    theta_rot_min: float = bounded(0.1, "> 0", message=_GATES)  # rad of total rotation needed to call revolute
    trans_min: float = bounded(0.02, "> 0", message=_GATES)  # m of total translation for a confident prismatic call
    residual_margin: float = bounded(0.2, "[0, 1)")  # independent mode only: free fit must beat constrained by this fraction

    def __post_init__(self):
        check_bounds(self)


@dataclass
class PoseTwistFit:
    twist: Twist  # normalized (|omega| = 1, or omega = 0 and |v| = 1)
    thetas: np.ndarray  # per-pose magnitudes, thetas[0] = 0
    rms: float  # tangent-space residual rms over poses 1..M
    gauge: str  # "revolute" or "prismatic"
    converged: bool


@dataclass
class ArticulationEstimate:
    joint_type: str  # "revolute" or "prismatic"
    axis_dir: np.ndarray  # unit vector
    axis_point: np.ndarray | None  # on the axis; revolute only
    twist: Twist
    thetas: np.ndarray  # rad (revolute) or m (prismatic), per pose
    pose_rms: float  # the chosen model's pose-space rms; 0 for a regularized chart's own model
    flags: list = field(default_factory=list)


def _inverse_adjoints(stack) -> np.ndarray:
    """Ad(T^-1) of every pose of a ``pose_stack``, (M, 6, 6)."""
    q, t = stack.q, stack.t
    Rt = quat_to_matrix(q).transpose(0, 2, 1)
    A = np.zeros((len(q), 6, 6))
    A[:, :3, :3] = Rt
    A[:, 3:, 3:] = Rt
    A[:, 3:, :3] = skew(-(Rt @ t[:, :, None])[:, :, 0]) @ Rt
    return A


def _pose_residual(stack, xi: Twist, thetas: np.ndarray) -> np.ndarray:
    """log(exp(theta_m hat(xi))^-1 T_m) for every pose of a ``pose_stack``, (M, 6)."""
    qi, Ri, ti = exp_map(xi, -thetas)  # exp(-theta xi) is the inverse motion
    return log_rows(quat_mul(qi, stack.q), apply_each(Ri, ti, stack.t))


def _pose_model(stack, ad_inv, xi: Twist, thetas: np.ndarray):
    """Pose-log residual rows of all stacked poses and their linearization,
    in the ``damped_gauss_newton`` model contract; ``ad_inv`` holds the
    poses' ``_inverse_adjoints``."""
    r = _pose_residual(stack, xi, thetas)
    return r.ravel(), partial(_pose_blocks, ad_inv, r, xi, thetas)


def _pose_blocks(ad_inv, r: np.ndarray, xi: Twist, thetas: np.ndarray, B: np.ndarray):
    """Per-pose normal blocks ``(A^T A, A^T r_m)`` of the pose residuals
    ``r`` (M, 6), A (6, k+1) each pose's Jacobian along the chart and its
    magnitude."""
    # d r / d u = -Jr^-1(r) Ad(T^-1) Jl(u), u = theta * xi the folded twist coords
    A = -np.linalg.inv(se3_left_jacobian(-r)) @ ad_inv @ tangent_map(xi, thetas, B)
    At = np.swapaxes(A, 1, 2)
    return At @ A, (At @ r[:, :, None])[:, :, 0]


def _validate_poses(poses):
    if len(poses) < 2:
        raise ValueError(f"need at least 2 poses, got {len(poses)}")
    if rotation_angle(poses[0]) > 1e-6 or np.linalg.norm(poses.t[0]) > 1e-6:
        raise ValueError("poses[0] must be the identity")


def fit_twist_to_poses(poses, gauge: str = "auto") -> PoseTwistFit:
    """Fit a single normalized twist plus magnitudes to a pose sequence, a
    ``pose_stack`` of M+1 rows with pose 0 the identity.

    ``gauge`` is "auto" (chart chosen from the data) or "prismatic" (omega
    pinned to zero). Raises InsufficientMotionError when every pose is within
    MIN_POSE_MOTION of the identity.
    """
    _validate_poses(poses)
    if gauge not in ("auto", "prismatic"):
        raise ValueError(f"gauge must be 'auto' or 'prismatic', got {gauge!r}")
    stack = poses[1:]
    logs = np.vstack((np.zeros(6), log_map(stack)))  # pose 0 is the identity
    mags = np.linalg.norm(logs, axis=1)
    if float(mags.max()) <= MIN_POSE_MOTION:
        raise InsufficientMotionError(
            f"all poses within {MIN_POSE_MOTION} of identity; no articulation to fit"
        )
    seed = logs[int(np.argmax(mags))]
    if gauge == "prismatic":
        vpart = seed[3:]
        if np.linalg.norm(vpart) <= 0:
            # rotation-only motion: any direction is equally bad; pick a
            # deterministic one so the constrained fit still reports a residual
            vpart = np.array([1.0, 0.0, 0.0])
        xi = Twist(np.zeros(3), vpart / np.linalg.norm(vpart))
    else:
        xi, _ = normalize_twist(Twist.from_vector(seed))
    x = xi.as_vector()
    thetas = (logs @ x / float(x @ x))[1:]  # theta_0 is pinned to zero
    xi, thetas, cost, stop = damped_gauss_newton(
        xi, thetas, partial(_pose_model, stack, _inverse_adjoints(stack))
    )
    converged = stop == "converged"
    if not converged:
        log.warning("pose twist fit (%s gauge) %s", gauge, stop)
    return PoseTwistFit(
        twist=xi,
        thetas=np.concatenate(([0.0], thetas)),
        rms=float(np.sqrt(cost / len(thetas))),
        gauge=twist_gauge(xi),
        converged=converged,
    )


def free_model_from_trajectory(trajectory: TrajectoryEstimate) -> PoseTwistFit:
    """The free-gauge ``fit_twist_to_poses`` minimizer of a regularized
    trajectory in closed form: relative pose m is exp(Theta_m Ad(anchor^-1)
    xi), Theta_m the running sum of the step magnitudes, the anchor pose 0.
    Same sign rule."""
    xi, scale = normalize_twist(
        transform_twist(inverse(trajectory.poses[0]), trajectory.base_twist)
    )
    thetas = np.concatenate(([0.0], np.cumsum(trajectory.thetas))) * scale
    if np.sum(thetas) < 0:
        thetas = -thetas
        xi = Twist(-xi.omega, -xi.v)
    return PoseTwistFit(
        twist=xi,
        thetas=thetas,
        rms=0.0,
        gauge=twist_gauge(xi),
        converged=True,
    )


def fit_joint_models(poses) -> tuple[PoseTwistFit, PoseTwistFit]:
    """(unconstrained, prismatic-constrained) fits.

    The unconstrained model is the better-scoring of the free-gauge fit and
    the constrained fit, which guarantees rms_unconstrained <= rms_prismatic.
    """
    fit_p = fit_twist_to_poses(poses, gauge="prismatic")
    fit_a = fit_twist_to_poses(poses, gauge="auto")
    fit_u = fit_a if fit_a.rms <= fit_p.rms else fit_p
    return fit_u, fit_p


def total_rotation(fit: PoseTwistFit) -> float:
    """Peak rotational excursion of a fitted model, in radians."""
    if fit.gauge != "revolute":
        return 0.0
    return float(np.max(np.abs(fit.thetas)))


def total_translation(fit: PoseTwistFit) -> float:
    """Peak translational excursion along/about the fitted axis, in meters."""
    if fit.gauge == "prismatic":
        return float(np.max(np.abs(fit.thetas)))
    # screw motion: translation per unit theta is |v| projected off the orbit;
    # use the pitch component, which is what a drawer-like motion would show
    pitch = abs(float(fit.twist.omega @ fit.twist.v))
    return pitch * float(np.max(np.abs(fit.thetas)))


def classify_joint(fit_u: PoseTwistFit, fit_p: PoseTwistFit, cfg: ClassifierConfig) -> str:
    """Revolute only with enough rotation AND a clear residual win over the
    prismatic-constrained fit; ties and sub-threshold motion are prismatic.
    """
    rotates = total_rotation(fit_u) >= cfg.theta_rot_min
    if rotates and fit_u.rms < (1.0 - cfg.residual_margin) * fit_p.rms:
        return "revolute"
    return "prismatic"


def extract_axis(twist: Twist, joint_type: str):
    """Axis direction (unit) and, for revolute joints, the axis point closest
    to the origin: p = omega x v / |omega|^2."""
    if joint_type == "revolute":
        n = float(np.linalg.norm(twist.omega))
        if n < AXIS_OMEGA_MIN:
            raise ValueError("revolute model with numerically zero omega")
        axis_dir = twist.omega / n
        axis_point = np.cross(twist.omega, twist.v) / (n * n)
        return axis_dir, axis_point
    if joint_type == "prismatic":
        n = float(np.linalg.norm(twist.v))
        if n <= 0:
            raise ValueError("prismatic model with zero direction")
        return twist.v / n, None
    raise ValueError(f"unknown joint type {joint_type!r}")


def build_articulation_estimate(
    trajectory: TrajectoryEstimate, cfg: ClassifierConfig
) -> ArticulationEstimate:
    """Classify and package the articulation model for one segment: by
    the regularized chart and the rotation gate, else in pose space."""
    poses = trajectory.poses
    def relative():  # the poses in the anchor's frame; exact: the anchor, pose 0, carries no rotation
        return pose_stack(poses.q, poses.t - poses.t[0])
    if trajectory.base_twist is None:
        fit_u, fit_p = fit_joint_models(relative())
        joint_type = classify_joint(fit_u, fit_p, cfg)
        chosen = fit_u if joint_type == "revolute" else fit_p
    else:
        fit_u = chosen = free_model_from_trajectory(trajectory)
        joint_type = "revolute" if total_rotation(fit_u) >= cfg.theta_rot_min else "prismatic"
        if joint_type != fit_u.gauge:  # a revolute chart below the gate
            chosen = fit_twist_to_poses(relative(), gauge="prismatic")
    axis_dir, axis_point = extract_axis(chosen.twist, joint_type)
    flags = list(trajectory.flags)
    if not chosen.converged:
        flags.append("non_converged")
    if total_rotation(fit_u) < cfg.theta_rot_min and total_translation(chosen) < cfg.trans_min:
        flags.append("low_motion")
    return ArticulationEstimate(
        joint_type=joint_type,
        axis_dir=axis_dir,
        axis_point=axis_point,
        twist=chosen.twist,
        thetas=chosen.thetas,
        pose_rms=chosen.rms,
        flags=flags,
    )
