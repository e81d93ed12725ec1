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

Stacks: ``exp_map`` with a 1-D array of M magnitudes, ``log_map`` and
``inverse`` of a pair of stacked quaternions and translations,
``se3_left_jacobian`` of (M, 6) rows, ``skew`` of (M, 3) rows, ``quat_mul`` and
``quat_to_matrix`` of (M, 4) rows and ``matrix_to_quat`` of (M, 3, 3) rows all
work on every row at once (see each docstring), Taylor or Shepperd branch
chosen per row, with cross products written by component. Each map has one
formula: one ``exp_map``, ``log_map``, ``inverse``, ``matrix_to_quat`` or
``se3_left_jacobian`` is a one-row stack. A camera path is one ``pose_stack``,
a record array of (T, 4) ``q`` and (T, 3) ``t`` whose row i has pose i's own
``.q`` and ``.t``; ``RigidTransform``'s check is its one-row case.
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
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {a}")
    return a


def skew(w) -> np.ndarray:
    """Cross-product matrix: skew(w) @ x == cross(w, x); (M, 3, 3) for (M, 3) rows."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 2:
        S = np.zeros((len(w), 3, 3))
        S[:, 0, 1], S[:, 0, 2] = -w[:, 2], w[:, 1]
        S[:, 1, 0], S[:, 1, 2] = w[:, 2], -w[:, 0]
        S[:, 2, 0], S[:, 2, 1] = -w[:, 1], w[:, 0]
        return S
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


# ---------------------------------------------------------------------------
# quaternion helpers (w, x, y, z)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b of quaternions (4,), or of (M, 4) rows."""
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    ).T


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z); (M, 3, 3) for (M, 4) rows."""
    w, x, y, z = np.asarray(q).T
    R = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return R if R.ndim == 2 else np.moveaxis(R, -1, 0)


def row_norms(x: np.ndarray) -> np.ndarray:
    """Norms of (M, n) rows, each ``np.linalg.norm`` of its row bit for bit."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def matrix_to_quat(R) -> np.ndarray:
    """Unit quaternion (w, x, y, z), w >= 0, of a rotation matrix by Shepperd's
    method; (M, 4) rows for (M, 3, 3). A mask picks each row's branch, and a
    branch runs on its own rows only; one matrix is row 0 of that stack."""
    R = np.asarray(R, dtype=float)
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R.reshape(-1, 9).T
    tr = r00 + r11 + r22
    # K[a, b] = 4 q_a q_b, each diagonal entry rounded as in its own branch
    K = np.array([[tr + 1.0, r21 - r12, r02 - r20, r10 - r01],
                  [r21 - r12, 1.0 + r00 - r11 - r22, r01 + r10, r02 + r20],
                  [r02 - r20, r01 + r10, 1.0 + r11 - r00 - r22, r12 + r21],
                  [r10 - r01, r02 + r20, r12 + r21, 1.0 + r22 - r00 - r11]])
    branch = np.where(tr > 0.0, 0, np.where((r00 >= r11) & (r00 >= r22), 1, np.where(r11 >= r22, 2, 3)))
    q = np.empty((len(tr), 4))
    for b in np.unique(branch).tolist():
        rows = branch == b
        s = np.sqrt(K[b, b, rows]) * 2.0
        q[rows] = (K[b][:, rows] / s).T
        q[rows, b] = 0.25 * s
    q = np.where(q[:, :1] < 0, -q, q)
    q /= row_norms(q)[:, None]
    return q if R.ndim == 3 else q[0]


def renormalize(q: np.ndarray) -> np.ndarray:
    """``q`` over its norm, unless that is within 1e-13 of 1: renormalizing a
    unit quaternion wobbles the last ulp, so save/load/save would not be
    idempotent."""
    n = np.linalg.norm(q)
    return q if abs(n - 1.0) <= 1e-13 else q / n


def _unit_rows(q: np.ndarray, t: np.ndarray, stacked: bool = True) -> np.ndarray:
    """Quaternions (M, 4), each renormalized as ``renormalize`` does once every
    row is checked: q and t finite, |q| within 1e-3 of 1. A fault raises
    ValueError naming the first bad row ``poses[m]``, unless not ``stacked``."""
    with np.errstate(over="ignore"):  # a huge q is refused below, not warned about
        n = row_norms(q)
    off = np.abs(n - 1.0)
    good = (off <= 1e-3) & np.isfinite(t).all(axis=1)  # a NaN or infinite q has no finite norm
    if not good.all():
        m = int(np.argmin(good))
        fault = (f"q must be finite, got {q[m]}" if not np.isfinite(q[m]).all()
                 else f"q must be near unit norm, got |q| = {n[m]}" if not off[m] <= 1e-3
                 else f"t must be finite, got {t[m]}")
        raise ValueError(f"poses[{m}]: {fault}" if stacked else fault)
    return q / np.where(off > 1e-13, n, 1.0)[:, None]  # x / 1.0 is x, bit for bit


@dataclass
class RigidTransform:
    """SE(3) element: unit quaternion ``q`` (w, x, y, z) plus translation ``t`` (m)."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        q, t = np.asarray(self.q, dtype=float), np.asarray(self.t, dtype=float)
        for name, v, n in (("q", q, 4), ("t", t, 3)):
            if v.shape != (n,):
                raise ValueError(f"{name} must be a {n}-vector, got shape {v.shape}")
        self.q, self.t = _unit_rows(q[None], t[None], stacked=False)[0], t

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

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


# one row of a pose stack: a unit quaternion (w, x, y, z) and a translation (m)
POSE = np.dtype([("q", float, (4,)), ("t", float, (3,))])


def pose_stack(q, t=None) -> np.recarray:
    """T poses as one record array with fields ``q`` (T, 4) and ``t`` (T, 3),
    from (T, 4) quaternions and (T, 3) translations, or from ``q`` alone as
    anything ``np.asarray`` turns into POSE rows, such as a list of a stack's
    rows. Each row equals ``RigidTransform(q, t)`` bit for bit; a fault
    raises ValueError naming the first bad row."""
    rows = np.array(q, dtype=POSE) if t is None else np.rec.fromarrays((q, t), dtype=POSE)
    if rows.ndim != 1:
        raise ValueError(f"poses must be one row per pose, got shape {rows.shape}")
    rows["q"] = _unit_rows(rows["q"], rows["t"])
    return rows.view(np.recarray)


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """a after b: apply(compose(a, b), p) == apply(a, apply(b, p))."""
    q = quat_mul(a.q, b.q)
    t = quat_to_matrix(a.q) @ b.t + a.t
    return RigidTransform(q, t)  # constructor renormalizes q


def inverse(T):
    """Inverse transform, a one-row stack: a pair ``(q, t)`` of (M, 4)
    quaternions and (M, 3) translations gives arrays ``(q, R, t)``, R contiguous."""
    if isinstance(T, RigidTransform):
        q, _, t = inverse((T.q[None], T.t[None]))
        return RigidTransform(q[0], t[0])
    qc = T[0] * np.array([1.0, -1.0, -1.0, -1.0])
    R = np.ascontiguousarray(quat_to_matrix(qc))
    return qc, R, -(R @ T[1][:, :, None])[:, :, 0]


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


def exp_map(xi: Twist, theta):
    """Screw motion exp(theta * hat(xi)).

    Rotation by Rodrigues' formula (as a quaternion), translation through the
    V matrix; both use Taylor fallbacks below SMALL_ANGLE. A 1-D ``theta`` of
    M magnitudes returns the M motions stacked as arrays ``(q, R, t)``:
    quaternions (M, 4), rotations (M, 3, 3) and translations (M, 3); a
    scalar ``theta`` returns row 0 of that stack as a RigidTransform.
    """
    if np.ndim(theta) > 1:
        raise ValueError(f"theta must be a scalar or a 1-D array, got shape {np.shape(theta)}")
    if np.ndim(theta) == 1:
        q, t = _exp_rows(xi, np.asarray(theta, dtype=float))
        return q, quat_to_matrix(q), t
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    q, t = _exp_rows(xi, np.array([theta], dtype=float))
    return RigidTransform(q[0], t[0])


def log_map(T):
    """Principal log: the twist (with theta folded in) whose exp is ``T``.

    Raises BranchAmbiguityError when the rotation angle is within PI_MARGIN of
    pi, where the axis is numerically undetermined. ``T`` may also be a stack
    given as the pair ``(q, t)`` of quaternions (M, 4) and translations
    (M, 3); the logs come back as (M, 6) rows (omega, v), and the error names
    the first pose near pi.
    """
    if isinstance(T, RigidTransform):
        return Twist.from_vector(_log_rows(T.q[None], T.t[None], stacked=False)[0])
    return _log_rows(*T)


# ---------------------------------------------------------------------------
# stacked exp / log: each formula on every row at once


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of the rows of (..., 3) arrays, by component."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def _split_small(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows at or above SMALL_ANGLE, phi with the other rows set to 1): the
    closed forms are evaluated on the second and never divide by zero."""
    big = phi >= SMALL_ANGLE
    return big, np.where(big, phi, 1.0)


def _rodrigues_rows(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    big, p = _split_small(phi)
    p2, s2 = phi * phi, p * p
    A = np.where(big, (1.0 - np.cos(p)) / s2, 0.5 - p2 / 24.0)
    B = np.where(big, (p - np.sin(p)) / (s2 * p), 1.0 / 6.0 - p2 / 120.0)
    return A, B


def _exp_rows(xi: Twist, thetas: np.ndarray):
    if not np.all(np.isfinite(thetas)):
        raise ValueError(f"thetas must be finite, got {thetas}")
    w = thetas[:, None] * xi.omega
    rho = thetas[:, None] * xi.v
    phi = np.linalg.norm(w, axis=1)
    big, p = _split_small(phi)
    half = 0.5 * phi
    k = np.where(big, np.sin(0.5 * p) / p, 0.5 - phi * phi / 48.0)
    q = np.column_stack((np.where(big, np.cos(half), 1.0 - half * half / 2.0), k[:, None] * w))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    A, B = _rodrigues_rows(phi)
    wxr = _cross(w, rho)
    return q, rho + A[:, None] * wxr + B[:, None] * _cross(w, wxr)


def _log_rows(q: np.ndarray, t: np.ndarray, stacked: bool = True) -> np.ndarray:
    q = np.where(q[:, :1] < 0, -q, q)
    s = np.linalg.norm(q[:, 1:], axis=1)
    phi = 2.0 * np.arctan2(s, q[:, 0])
    near = np.flatnonzero(phi >= np.pi - PI_MARGIN)
    if len(near):
        m = int(near[0])
        where = f"pose {m}: " if stacked else ""
        raise BranchAmbiguityError(
            f"{where}rotation angle {phi[m]:.9f} rad is within {PI_MARGIN} of the pi branch cut"
        )
    tiny = s < 1e-9
    w = np.where(
        tiny[:, None], 2.0 * q[:, 1:] / q[:, :1], (phi / np.where(tiny, 1.0, s))[:, None] * q[:, 1:]
    )
    psi = np.linalg.norm(w, axis=1)
    big, p = _split_small(psi)
    c = np.where(
        big,
        (1.0 - 0.5 * p * np.sin(p) / (1.0 - np.cos(p))) / (p * p),
        1.0 / 12.0 + psi * psi / 720.0,
    )
    wxt = _cross(w, t)
    return np.column_stack((w, t - 0.5 * wxt + c[:, None] * _cross(w, wxt)))


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
    b2 = _cross(n, b1)
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


def se3_left_jacobian(u) -> np.ndarray:
    """6x6 left Jacobian J with exp(hat(u + d)) ~= exp(hat(J @ d)) exp(hat(u)).

    ``u`` stacks (w, rho) like Twist.as_vector(); (M, 6) rows give the M
    Jacobians stacked, (M, 6, 6). The translation-rotation block is
    d/dw [V(w) rho] plus the frame correction skew(t) V(w), t = V(w) rho; all
    angle coefficients have Taylor fallbacks.
    """
    u = np.asarray(u, dtype=float)
    rows = u if u.ndim == 2 else u[None]
    w, rho = rows[:, :3], rows[:, 3:]
    phi = np.linalg.norm(w, axis=1)
    A, B = (c[:, None, None] for c in _rodrigues_rows(phi))
    big, p = _split_small(phi)
    p2, s2 = phi * phi, p * p
    s4 = s2 * s2
    # A'(phi)/phi and B'(phi)/phi
    alpha = np.where(big, (p * np.sin(p) - 2.0 * (1.0 - np.cos(p))) / s4, -1.0 / 12.0 + p2 / 180.0)
    beta = np.where(
        big,
        (p * (1.0 - np.cos(p)) - 3.0 * (p - np.sin(p))) / (s4 * p),
        -1.0 / 60.0 + p2 / 1260.0,
    )
    W = skew(w)
    P = skew(rho)
    wxr = _cross(w, rho)
    wwxr = _cross(w, wxr)
    dtdw = (
        (alpha[:, None] * wxr + beta[:, None] * wwxr)[:, :, None] * w[:, None, :]
        - A * P
        - B * (skew(wxr) + W @ P)
    )
    V = np.eye(3) + A * W + B * (W @ W)
    t = (V @ rho[:, :, None])[:, :, 0]
    J = np.zeros((len(rows), 6, 6))
    J[:, :3, :3] = V
    J[:, 3:, 3:] = V
    J[:, 3:, :3] = dtdw + skew(t) @ V
    return J if u.ndim == 2 else J[0]


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
