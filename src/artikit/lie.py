"""se(3) twists and SE(3) rigid transforms.

Rotations are stored as unit quaternions (w, x, y, z) and renormalized after
every composition so long chains do not drift. Every map that divides by the
rotation angle switches to a second-order Taylor expansion below SMALL_ANGLE
to stay continuous through zero.

Conventions used throughout the package:

* a twist is the pair (omega, v); ``exp_map(xi, theta)`` is the screw motion
  ``exp(theta * hat(xi))``,
* transforms act on points as ``apply(T, p) = R @ p + t``,
* ``compose(a, b)`` applies ``b`` first, then ``a``,
* 6-vectors stack the rotational part first: ``(omega, v)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchAmbiguityError

# Below this rotation angle (rad) closed-form Rodrigues coefficients are
# replaced by Taylor expansions; chosen so both branches agree to ~1e-12.
SMALL_ANGLE = 1e-6

# Angles this close to pi are refused by log_map: the rotation axis is no
# longer determined by the quaternion to useful precision.
PI_MARGIN = 1e-6


def _as_vec3(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite, got {a}")
    return a


def skew(w) -> np.ndarray:
    """Cross-product matrix: skew(w) @ x == cross(w, x)."""
    w = np.asarray(w, dtype=float)
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


@dataclass
class Twist:
    """se(3) element: rotational generator ``omega`` (rad) and linear ``v`` (m)."""

    omega: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.omega = _as_vec3(self.omega, "omega")
        self.v = _as_vec3(self.v, "v")

    def as_vector(self) -> np.ndarray:
        """Stack into a 6-vector (omega, v)."""
        return np.concatenate([self.omega, self.v])

    @classmethod
    def from_vector(cls, u) -> "Twist":
        u = np.asarray(u, dtype=float)
        if u.shape != (6,):
            raise ValueError(f"twist vector must have shape (6,), got {u.shape}")
        return cls(u[:3].copy(), u[3:].copy())

    def to_dict(self) -> dict:
        return {"omega": self.omega.tolist(), "v": self.v.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Twist":
        return cls(np.asarray(d["omega"], dtype=float), np.asarray(d["v"], dtype=float))


# ---------------------------------------------------------------------------
# quaternion helpers (w, x, y, z)


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def _quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(R) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix, Shepperd's method."""
    R = np.asarray(R, dtype=float)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] >= R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    # canonical sign: w >= 0
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def _quat_from_rotvec(w: np.ndarray) -> np.ndarray:
    phi = np.linalg.norm(w)
    half = 0.5 * phi
    if phi < SMALL_ANGLE:
        # sin(phi/2)/phi = 1/2 - phi^2/48 + O(phi^4)
        k = 0.5 - phi * phi / 48.0
        q = np.array([1.0 - half * half / 2.0, k * w[0], k * w[1], k * w[2]])
    else:
        k = np.sin(half) / phi
        q = np.array([np.cos(half), k * w[0], k * w[1], k * w[2]])
    return q / np.linalg.norm(q)


@dataclass
class RigidTransform:
    """SE(3) element: unit quaternion ``q`` (w, x, y, z) plus translation ``t`` (m)."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"q must be a 4-vector, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError(f"q must be finite, got {q}")
        n = np.linalg.norm(q)
        if abs(n - 1.0) > 1e-3:
            raise ValueError(f"q must be near unit norm, got |q| = {n}")
        # renormalizing an already-unit quaternion wobbles the last ulp, which
        # would make save/load/save of a pose non-idempotent
        self.q = q if abs(n - 1.0) <= 1e-13 else q / n
        self.t = _as_vec3(self.t, "t")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @classmethod
    def from_matrix(cls, R, t) -> "RigidTransform":
        return cls(matrix_to_quat(R), np.asarray(t, dtype=float))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def as_matrix(self) -> np.ndarray:
        """Homogeneous 4x4 matrix."""
        M = np.eye(4)
        M[:3, :3] = self.rotation_matrix()
        M[:3, 3] = self.t
        return M

    def to_dict(self) -> dict:
        return {"q": self.q.tolist(), "t": self.t.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "RigidTransform":
        return cls(np.asarray(d["q"], dtype=float), np.asarray(d["t"], dtype=float))


def identity() -> RigidTransform:
    return RigidTransform.identity()


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """a after b: apply(compose(a, b), p) == apply(a, apply(b, p))."""
    q = _quat_mul(a.q, b.q)
    t = quat_to_matrix(a.q) @ b.t + a.t
    return RigidTransform(q, t)  # constructor renormalizes q


def inverse(T: RigidTransform) -> RigidTransform:
    qc = _quat_conj(T.q)
    return RigidTransform(qc, -(quat_to_matrix(qc) @ T.t))


def apply(T: RigidTransform, points) -> np.ndarray:
    """Transform a point (3,) or point array (N, 3)."""
    p = np.asarray(points, dtype=float)
    R = T.rotation_matrix()
    if p.ndim == 1:
        return R @ p + T.t
    return p @ R.T + T.t


def apply_each(R: np.ndarray, t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply stacked transforms, rotations (..., 3, 3) and translations
    (..., 3), each to its own point (..., 3).

    Equal bit for bit to ``apply`` on one point at a time; ``einsum`` and
    ``points @ R.T`` round differently.
    """
    return (R @ points[..., None])[..., 0] + t


def rotation_angle(T: RigidTransform) -> float:
    """Rotation magnitude in [0, pi]."""
    return 2.0 * np.arctan2(np.linalg.norm(T.q[1:]), abs(T.q[0]))


# ---------------------------------------------------------------------------
# exp / log


def _rodrigues_coeffs(phi: float) -> tuple[float, float]:
    # A = (1 - cos phi)/phi^2, B = (phi - sin phi)/phi^3
    if phi < SMALL_ANGLE:
        p2 = phi * phi
        return 0.5 - p2 / 24.0, 1.0 / 6.0 - p2 / 120.0
    p2 = phi * phi
    return (1.0 - np.cos(phi)) / p2, (phi - np.sin(phi)) / (p2 * phi)


def _v_matrix(w: np.ndarray) -> np.ndarray:
    """Translation mixing matrix V with exp translation t = V(w) @ rho."""
    phi = np.linalg.norm(w)
    A, B = _rodrigues_coeffs(phi)
    W = skew(w)
    return np.eye(3) + A * W + B * (W @ W)


def _v_inv_matrix(w: np.ndarray) -> np.ndarray:
    phi = np.linalg.norm(w)
    W = skew(w)
    if phi < SMALL_ANGLE:
        c = 1.0 / 12.0 + phi * phi / 720.0
    else:
        c = (1.0 - 0.5 * phi * np.sin(phi) / (1.0 - np.cos(phi))) / (phi * phi)
    return np.eye(3) - 0.5 * W + c * (W @ W)


def exp_map(xi: Twist, theta: float) -> RigidTransform:
    """Screw motion exp(theta * hat(xi)).

    Rotation by Rodrigues' formula (as a quaternion), translation through the
    V matrix; both use Taylor fallbacks below SMALL_ANGLE.
    """
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    w = xi.omega * theta
    rho = xi.v * theta
    return RigidTransform(_quat_from_rotvec(w), _v_matrix(w) @ rho)


def log_map(T: RigidTransform) -> Twist:
    """Principal log: the twist (with theta folded in) whose exp is ``T``.

    Raises BranchAmbiguityError when the rotation angle is within PI_MARGIN of
    pi, where the axis is numerically undetermined.
    """
    q = T.q if T.q[0] >= 0 else -T.q
    s = np.linalg.norm(q[1:])
    phi = 2.0 * np.arctan2(s, q[0])
    if phi >= np.pi - PI_MARGIN:
        raise BranchAmbiguityError(
            f"rotation angle {phi:.9f} rad is within {PI_MARGIN} of the pi branch cut"
        )
    if s < 1e-9:
        # q ~ (1, w/2): third-order error is far below double precision here
        w = 2.0 * q[1:] / q[0]
    else:
        w = (phi / s) * q[1:]
    return Twist(w, _v_inv_matrix(w) @ T.t)


# ---------------------------------------------------------------------------
# twist gauge (normalization) and tangent charts


def normalize_twist(xi: Twist) -> tuple[Twist, float]:
    """Project onto the unit-twist gauge; return (unit twist, scale).

    Gauge: ``|omega| = 1`` when the rotational part is non-negligible,
    otherwise ``omega = 0`` exactly and ``|v| = 1``. The returned scale
    satisfies ``scale * unit ~= xi``. Normalizing an already-normalized twist
    is a no-op up to floating-point idempotence.
    """
    nw = np.linalg.norm(xi.omega)
    nv = np.linalg.norm(xi.v)
    if nw > 1e-9 * max(1.0, nv):
        return Twist(xi.omega / nw, xi.v / nw), nw
    if nv <= 0.0:
        raise ValueError("zero twist cannot be normalized")
    return Twist(np.zeros(3), xi.v / nv), nv


def twist_gauge(xi: Twist) -> str:
    """'revolute' when the (normalized) twist has a rotational part, else 'prismatic'."""
    return "revolute" if np.linalg.norm(xi.omega) > 0.5 else "prismatic"


def _orthonormal_complement(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # pick the world axis least aligned with n, then Gram-Schmidt
    k = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[k] = 1.0
    b1 = e - n * n[k]
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(n, b1)
    return b1, b2


def twist_tangent_basis(xi: Twist) -> np.ndarray:
    """Basis of the gauge-fixed tangent at a normalized twist, as 6 x k columns.

    Revolute gauge: omega moves on the unit sphere (2 dof) and v is free
    (3 dof), k = 5. Prismatic gauge: omega is pinned to zero and v moves on
    the unit sphere, k = 2.
    """
    if twist_gauge(xi) == "revolute":
        b1, b2 = _orthonormal_complement(xi.omega)
        B = np.zeros((6, 5))
        B[:3, 0] = b1
        B[:3, 1] = b2
        B[3:, 2:] = np.eye(3)
        return B
    c1, c2 = _orthonormal_complement(xi.v)
    B = np.zeros((6, 2))
    B[3:, 0] = c1
    B[3:, 1] = c2
    return B


def retract_twist(xi: Twist, delta: np.ndarray) -> Twist:
    """Move a normalized twist along chart coordinates and re-project."""
    B = twist_tangent_basis(xi)
    u = xi.as_vector() + B @ np.asarray(delta, dtype=float)
    if twist_gauge(xi) == "revolute":
        w = u[:3]
        return Twist(w / np.linalg.norm(w), u[3:])
    v = u[3:]
    return Twist(np.zeros(3), v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# derivatives of the exp map


def _q_block(w: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Translation-rotation coupling block of the SE(3) left Jacobian.

    Derived from d/dw [V(w) rho] plus the frame correction skew(t) V(w),
    where t = V(w) rho. All angle coefficients have Taylor fallbacks.
    """
    phi = np.linalg.norm(w)
    W = skew(w)
    P = skew(rho)
    wxr = np.cross(w, rho)
    wwxr = np.cross(w, wxr)
    A, B = _rodrigues_coeffs(phi)
    if phi < SMALL_ANGLE:
        p2 = phi * phi
        alpha = -1.0 / 12.0 + p2 / 180.0  # A'(phi)/phi
        beta = -1.0 / 60.0 + p2 / 1260.0  # B'(phi)/phi
    else:
        p2 = phi * phi
        p4 = p2 * p2
        alpha = (phi * np.sin(phi) - 2.0 * (1.0 - np.cos(phi))) / p4
        beta = (phi * (1.0 - np.cos(phi)) - 3.0 * (phi - np.sin(phi))) / (p4 * phi)
    dtdw = (
        alpha * np.outer(wxr, w)
        + beta * np.outer(wwxr, w)
        - A * P
        - B * (skew(wxr) + W @ P)
    )
    V = np.eye(3) + A * W + B * (W @ W)
    t = V @ rho
    return dtdw + skew(t) @ V


def se3_left_jacobian(u) -> np.ndarray:
    """6x6 left Jacobian J with exp(hat(u + d)) ~= exp(hat(J @ d)) exp(hat(u)).

    ``u`` stacks (w, rho) like Twist.as_vector().
    """
    u = np.asarray(u, dtype=float)
    w, rho = u[:3], u[3:]
    Jw = _v_matrix(w)
    J = np.zeros((6, 6))
    J[:3, :3] = Jw
    J[3:, 3:] = Jw
    J[3:, :3] = _q_block(w, rho)
    return J


def se3_adjoint(T: RigidTransform) -> np.ndarray:
    """6x6 adjoint: exp(hat(Ad(T) u)) == T exp(hat(u)) T^-1."""
    R = T.rotation_matrix()
    A = np.zeros((6, 6))
    A[:3, :3] = R
    A[3:, 3:] = R
    A[3:, :3] = skew(T.t) @ R
    return A


def transform_twist(T: RigidTransform, xi: Twist) -> Twist:
    """Express a twist in the frame reached by ``T`` (adjoint action)."""
    return Twist.from_vector(se3_adjoint(T) @ xi.as_vector())
