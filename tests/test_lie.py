"""Rigid-motion layer: exp/log, Jacobians, gauges, adjoints.

The independent oracle for the exponential is scipy's dense matrix
exponential of the 4x4 twist matrix; Jacobians are checked against finite
differences of that oracle.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from artikit import lie
from artikit.errors import BranchAmbiguityError

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def vectors(n: int, bound: float):
    return hnp.arrays(float, n, elements=st.floats(-bound, bound, allow_subnormal=False))


def hat4(xi: lie.Twist, theta: float) -> np.ndarray:
    M = np.zeros((4, 4))
    M[:3, :3] = lie.skew(xi.omega)
    M[:3, 3] = xi.v
    return M * theta


def rand_twist(rng) -> lie.Twist:
    return lie.Twist(rng.normal(size=3), rng.normal(size=3))


def test_skew_is_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(lie.skew(a) @ b, np.cross(a, b))
        assert np.allclose(lie.skew(a).T, -lie.skew(a))


def test_exp_matches_dense_matrix_exponential():
    rng = np.random.default_rng(1)
    for _ in range(200):
        xi = rand_twist(rng)
        theta = rng.uniform(-2.5, 2.5)
        ours = lie.exp_map(xi, theta).as_matrix()
        oracle = expm(hat4(xi, theta))
        assert np.max(np.abs(ours - oracle)) < 1e-12


def test_exp_small_angle_matches_oracle():
    rng = np.random.default_rng(2)
    for scale in (1e-5, 1e-7, 1e-9, 1e-12, 0.0):
        xi = rand_twist(rng)
        ours = lie.exp_map(xi, scale).as_matrix()
        oracle = expm(hat4(xi, scale))
        assert np.max(np.abs(ours - oracle)) < 1e-14


def test_exp_log_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(300):
        xi = rand_twist(rng)
        nw = np.linalg.norm(xi.omega)
        theta = rng.uniform(0.0, 3.0 / max(nw, 1e-9))
        T = lie.exp_map(xi, theta)
        if lie.rotation_angle(T) >= np.pi - 1e-5:
            continue
        back = lie.exp_map(lie.log_map(T), 1.0)
        D = lie.compose(back, lie.inverse(T))
        assert lie.rotation_angle(D) < 1e-10
        assert np.linalg.norm(D.t) < 1e-10


def test_log_principal_branch_magnitude():
    rng = np.random.default_rng(4)
    for _ in range(50):
        xi = rand_twist(rng)
        T = lie.exp_map(xi, rng.uniform(0.1, 2.0))
        w = lie.log_map(T)
        assert np.linalg.norm(w.omega) <= np.pi


def test_log_refuses_angle_near_pi():
    w = np.array([0.0, 0.0, 1.0])
    T = lie.exp_map(lie.Twist(w, np.zeros(3)), np.pi)
    with pytest.raises(BranchAmbiguityError, match=r"^rotation angle 3\.14"):
        lie.log_map(T)
    T2 = lie.exp_map(lie.Twist(w, np.zeros(3)), np.pi - 1e-8)
    with pytest.raises(BranchAmbiguityError):
        lie.log_map(T2)
    T3 = lie.exp_map(lie.Twist(w, np.zeros(3)), np.pi - 1e-4)
    assert abs(np.linalg.norm(lie.log_map(T3).omega) - (np.pi - 1e-4)) < 1e-9


def test_quat_matrix_round_trip_all_branches():
    rng = np.random.default_rng(5)
    axes = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])]
    cases = [lie.exp_map(lie.Twist(a, np.zeros(3)), 3.0).rotation_matrix() for a in axes]
    cases += [
        lie.exp_map(rand_twist(rng), rng.uniform(0, 3)).rotation_matrix() for _ in range(100)
    ]
    for R in cases:
        q = lie.matrix_to_quat(R)
        assert q[0] >= 0.0
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert np.max(np.abs(lie.quat_to_matrix(q) - R)) < 1e-12


def test_compose_apply_inverse_consistency():
    rng = np.random.default_rng(6)
    for _ in range(50):
        A = lie.exp_map(rand_twist(rng), rng.uniform(0, 2))
        B = lie.exp_map(rand_twist(rng), rng.uniform(0, 2))
        p = rng.normal(size=3)
        assert np.allclose(lie.apply(lie.compose(A, B), p), lie.apply(A, lie.apply(B, p)))
        assert np.allclose(lie.apply(lie.inverse(A), lie.apply(A, p)), p, atol=1e-12)
    pts = rng.normal(size=(7, 3))
    out = lie.apply(A, pts)
    assert out.shape == (7, 3)
    assert np.allclose(out[2], lie.apply(A, pts[2]))


def test_se3_left_jacobian_finite_difference():
    rng = np.random.default_rng(7)
    eps = 1e-7
    for _ in range(40):
        u = rng.normal(size=6)
        J = lie.se3_left_jacobian(u)
        T0 = expm(hat4(lie.Twist.from_vector(u), 1.0))
        for k in range(6):
            d = np.zeros(6)
            d[k] = eps
            Tp = expm(hat4(lie.Twist.from_vector(u + d), 1.0))
            D = Tp @ np.linalg.inv(T0)
            w = lie.log_map(lie.RigidTransform(lie.matrix_to_quat(D[:3, :3]), D[:3, 3]))
            fd = w.as_vector() / eps
            assert np.linalg.norm(fd - J[:, k]) < 1e-5 * max(1.0, np.linalg.norm(J[:, k]))


def test_left_jacobian_eigen_property():
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = rng.normal(size=6)
        J = lie.se3_left_jacobian(u)
        assert np.linalg.norm(J @ u - u) < 1e-12 * max(1.0, np.linalg.norm(u))


def test_adjoint_conjugation_identity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        T = lie.exp_map(rand_twist(rng), rng.uniform(0, 2))
        u = rand_twist(rng)
        lhs = lie.compose(T, lie.compose(lie.exp_map(u, 0.3), lie.inverse(T)))
        rhs = lie.exp_map(lie.transform_twist(T, u), 0.3)
        D = lie.compose(lhs, lie.inverse(rhs))
        assert lie.rotation_angle(D) < 1e-10
        assert np.linalg.norm(D.t) < 1e-10


def test_normalize_twist_gauges():
    w = np.array([0.0, 0.0, 2.0])
    v = np.array([1.0, 0.0, 0.0])
    unit, scale = lie.normalize_twist(lie.Twist(w, v))
    assert np.allclose(unit.omega, [0, 0, 1])
    assert scale == 2.0

    unit, scale = lie.normalize_twist(lie.Twist(np.zeros(3), np.array([0.0, 3.0, 0.0])))
    assert np.allclose(unit.omega, 0)
    assert np.allclose(unit.v, [0, 1, 0])
    assert scale == 3.0

    with pytest.raises(ValueError):
        lie.normalize_twist(lie.Twist(np.zeros(3), np.zeros(3)))


def test_normalized_twist_reproduces_motion():
    rng = np.random.default_rng(10)
    for _ in range(50):
        xi = rand_twist(rng)
        unit, scale = lie.normalize_twist(xi)
        a = lie.exp_map(xi, 0.7)
        b = lie.exp_map(unit, 0.7 * scale)
        D = lie.compose(a, lie.inverse(b))
        assert lie.rotation_angle(D) < 1e-12
        assert np.linalg.norm(D.t) < 1e-12


def test_tangent_basis_revolute():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        xi = lie.Twist(w, rng.normal(size=3))
        B = lie.twist_tangent_basis(xi)
        assert B.shape == (6, 5)
        assert np.allclose(B.T @ B, np.eye(5), atol=1e-12)
        # rotational directions stay perpendicular to omega: the unit-norm
        # gauge admits no radial component
        assert np.allclose(B[:3, :2].T @ w, 0, atol=1e-12)
        assert np.allclose(B[:3, 2:], 0)


def test_tangent_basis_prismatic():
    xi = lie.Twist(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    B = lie.twist_tangent_basis(xi)
    assert B.shape == (6, 2)
    assert np.allclose(B[:3], 0)
    assert np.allclose(B.T @ B, np.eye(2), atol=1e-12)


def test_retract_preserves_gauge():
    rng = np.random.default_rng(12)
    w = rng.normal(size=3)
    w /= np.linalg.norm(w)
    xi = lie.Twist(w, rng.normal(size=3))
    out = lie.retract_twist(xi, rng.normal(size=5) * 0.3)
    assert abs(np.linalg.norm(out.omega) - 1.0) < 1e-12

    xp = lie.Twist(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    outp = lie.retract_twist(xp, rng.normal(size=2) * 0.3)
    assert np.all(outp.omega == 0)
    assert abs(np.linalg.norm(outp.v) - 1.0) < 1e-12


def test_twist_vector_and_dict_round_trips():
    xi = lie.Twist(np.array([0.1, -0.2, 0.3]), np.array([1.0, 2.0, -3.0]))
    assert np.all(lie.Twist.from_vector(xi.as_vector()).as_vector() == xi.as_vector())
    back = lie.Twist(**xi.to_dict())
    assert np.all(back.omega == xi.omega) and np.all(back.v == xi.v)

    T = lie.exp_map(xi, 0.8)
    back = lie.RigidTransform(**T.to_dict())
    assert np.all(back.q == T.q) and np.all(back.t == T.t)


def test_rigid_transform_validation():
    with pytest.raises(ValueError):
        lie.RigidTransform(np.array([1.0, 0, 0]), np.zeros(3))
    with pytest.raises(ValueError):
        lie.RigidTransform(np.array([2.0, 0, 0, 0]), np.zeros(3))
    with pytest.raises(ValueError):
        lie.RigidTransform(np.array([np.nan, 0, 0, 0]), np.zeros(3))


def unit_quats():
    return vectors(4, 1.0).filter(lambda q: np.linalg.norm(q) > 0.1).map(lambda q: q / np.linalg.norm(q))


# |q| - 1 on either side of renormalizing (1e-13) and inside the 1e-3 bound
good_rows = st.tuples(unit_quats(), st.sampled_from([0.0, 1e-14, -1e-14, 1e-12, -1e-12, 5e-4, -5e-4]),
                      vectors(3, 5.0)).map(lambda r: (r[0] * (1.0 + r[1]), r[2]))
spoilt = st.sampled_from([np.nan, np.inf, -np.inf])
bad_rows = st.one_of(
    st.tuples(unit_quats().map(lambda q: 2.0 * q), vectors(3, 5.0)),
    st.tuples(unit_quats(), st.integers(0, 3), spoilt, vectors(3, 5.0)).map(
        lambda r: (np.where(np.arange(4) == r[1], r[2], r[0]), r[3])),
    st.tuples(unit_quats(), vectors(3, 5.0), st.integers(0, 2), spoilt).map(
        lambda r: (r[0], np.where(np.arange(3) == r[2], r[3], r[1]))),
)


@PROPERTY
@given(rows=st.lists(good_rows, max_size=8) | st.lists(good_rows | bad_rows, min_size=1, max_size=8))
def test_pose_stack_rows_are_rigid_transforms(rows):
    """Each row of a pose stack is ``RigidTransform(q, t)`` bit for bit, and
    a bad stack raises with RigidTransform's text for its first bad row."""
    q = np.array([r[0] for r in rows]).reshape(-1, 4)
    t = np.array([r[1] for r in rows]).reshape(-1, 3)
    want = []
    for m, (qm, tm) in enumerate(rows):
        try:
            want.append(lie.RigidTransform(qm, tm))
        except ValueError as e:
            with pytest.raises(ValueError) as ei:
                lie.pose_stack(q, t)
            assert str(ei.value) == f"poses[{m}]: {e}"
            return
        n = np.linalg.norm(qm)
        assert want[-1].q.tobytes() == (qm if abs(n - 1.0) <= 1e-13 else qm / n).tobytes()
    stack = lie.pose_stack(q, t)
    assert isinstance(stack, np.recarray) and stack.q.shape == q.shape and stack.t.shape == t.shape
    for row, T in zip(stack, want, strict=True):
        assert row.q.tobytes() == T.q.tobytes() and row.t.tobytes() == T.t.tobytes()
    again = lie.pose_stack(list(stack))  # a list of its rows, as a concatenation gives
    assert again.tobytes() == stack.tobytes()


def test_pose_stack_refuses_what_is_not_one_row_per_pose():
    with pytest.raises(ValueError, match=r"one row per pose, got shape \(\)"):
        lie.pose_stack(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))
    with pytest.raises(ValueError, match="mismatch"):
        lie.pose_stack(np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), np.zeros((2, 3)))


def test_rotation_angle_values():
    w = np.array([0.0, 1.0, 0.0])
    for theta in (0.0, 0.3, 1.7, 3.0):
        T = lie.exp_map(lie.Twist(w, np.zeros(3)), theta)
        assert abs(lie.rotation_angle(T) - theta) < 1e-12


# ---------------------------------------------------------------------------
# properties over generated inputs


@PROPERTY
@given(w=vectors(3, 2.0), v=vectors(3, 3.0))
def test_log_inverts_exp_away_from_pi(w, v):
    assume(np.linalg.norm(w) < np.pi - 0.1)
    u = lie.log_map(lie.exp_map(lie.Twist(w, v), 1.0))
    assert np.allclose(u.as_vector(), np.concatenate([w, v]), rtol=0.0, atol=1e-9)


@PROPERTY
@given(q=vectors(4, 1.0), t=vectors(3, 3.0))
def test_exp_inverts_log_away_from_pi(q, t):
    assume(np.linalg.norm(q) > 0.1)
    T = lie.RigidTransform(q / np.linalg.norm(q), t)
    assume(lie.rotation_angle(T) < np.pi - 0.1)
    back = lie.exp_map(lie.log_map(T), 1.0)
    assert np.allclose(back.as_matrix(), T.as_matrix(), rtol=0.0, atol=1e-9)


@PROPERTY
@given(a=vectors(6, 2.0), u=vectors(6, 2.0), theta=st.floats(-2.0, 2.0))
def test_transform_twist_is_conjugation(a, u, theta):
    T = lie.exp_map(lie.Twist.from_vector(a), 1.0)
    xi = lie.Twist.from_vector(u)
    conj = lie.compose(T, lie.compose(lie.exp_map(xi, theta), lie.inverse(T)))
    moved = lie.exp_map(lie.transform_twist(T, xi), theta)
    assert np.allclose(moved.as_matrix(), conj.as_matrix(), rtol=0.0, atol=1e-9)


def in_gauge(xi: lie.Twist) -> bool:
    if np.any(xi.omega != 0):
        return abs(np.linalg.norm(xi.omega) - 1.0) < 1e-12
    return abs(np.linalg.norm(xi.v) - 1.0) < 1e-12


@PROPERTY
@given(u=vectors(6, 3.0))
def test_normalize_twist_lands_in_gauge(u):
    assume(np.linalg.norm(u) > 1e-6)
    unit, scale = lie.normalize_twist(lie.Twist.from_vector(u))
    assert in_gauge(unit)
    assert scale > 0
    # the gauge drops an omega below 1e-9 of |v|
    assert np.allclose(scale * unit.as_vector(), u, rtol=1e-12, atol=1e-9 * np.linalg.norm(u))
    again, one = lie.normalize_twist(unit)
    assert np.allclose(again.as_vector(), unit.as_vector(), rtol=1e-14, atol=1e-15)
    assert abs(one - 1.0) < 1e-14


@PROPERTY
@given(u=vectors(6, 3.0), delta=vectors(5, 3.0), prismatic=st.booleans())
def test_retract_twist_stays_in_gauge(u, delta, prismatic):
    if prismatic:
        u[:3] = 0.0
    assume(np.linalg.norm(u[3:] if prismatic else u[:3]) > 1e-3)
    xi, _ = lie.normalize_twist(lie.Twist.from_vector(u))
    gauge = lie.twist_gauge(xi)
    out = lie.retract_twist(xi, delta[: lie.twist_tangent_basis(xi).shape[1]])
    assert in_gauge(out)
    assert lie.twist_gauge(out) == gauge
    if gauge == "prismatic":
        assert np.all(out.omega == 0)


# ---------------------------------------------------------------------------
# stacked kernels, row by row, against the matrix exponential and the scalar calls

# magnitudes mixing ordinary angles, angles below SMALL_ANGLE and exact zeros
magnitudes = st.lists(
    st.floats(-2.0, 2.0) | st.floats(-1e-7, 1e-7) | st.just(0.0), min_size=1, max_size=6
)


@PROPERTY
@given(u=vectors(6, 1.5), thetas=magnitudes)
def test_stacked_exp_matches_matrix_exponential(u, thetas):
    xi = lie.Twist.from_vector(u)
    q, R, t = lie.exp_map(xi, np.array(thetas))
    assert q.shape == (len(thetas), 4) and R.shape == (len(thetas), 3, 3) and t.shape == (len(thetas), 3)
    for m, th in enumerate(thetas):
        oracle = expm(hat4(xi, th))
        assert np.allclose(R[m], oracle[:3, :3], rtol=0.0, atol=1e-12)
        assert np.allclose(t[m], oracle[:3, 3], rtol=0.0, atol=1e-12)
        T = lie.exp_map(xi, th)  # a scalar magnitude is a one-row stack
        assert np.array_equal(T.q, q[m]) and np.array_equal(T.t, t[m])


@pytest.mark.parametrize("theta", [np.zeros((2, 3)), np.zeros((1, 1)), [[0.5]], np.zeros((2, 1, 1))])
def test_exp_refuses_theta_of_two_or_more_dimensions(theta):
    with pytest.raises(ValueError, match=r"theta must be a scalar or a 1-D array, got shape \("):
        lie.exp_map(rand_twist(np.random.default_rng(0)), theta)


@PROPERTY
@given(u=vectors(6, 1.5), thetas=magnitudes)
def test_stacked_log_matches_scalar(u, thetas):
    xi = lie.Twist.from_vector(u)
    poses = [lie.exp_map(xi, th) for th in thetas]
    assume(all(lie.rotation_angle(T) < np.pi - 0.1 for T in poses))
    logs = lie.log_map((np.array([T.q for T in poses]), np.array([T.t for T in poses])))
    assert logs.shape == (len(thetas), 6)
    for m, T in enumerate(poses):
        assert np.allclose(logs[m], lie.log_map(T).as_vector(), rtol=0.0, atol=1e-12)


@PROPERTY
@given(u=vectors(6, 1.0), thetas=magnitudes, data=st.data())
def test_stacked_log_names_first_pose_near_pi(u, thetas, data):
    xi = lie.Twist.from_vector(u)
    poses = [lie.exp_map(xi, th) for th in thetas]
    assume(all(lie.rotation_angle(T) < np.pi - 0.1 for T in poses))
    j = data.draw(st.integers(0, len(poses)), label="position")
    off = data.draw(st.sampled_from([0.0, 1e-9, 0.5 * lie.PI_MARGIN]), label="below pi")
    axis = np.array([0.0, 0.6, 0.8])
    poses.insert(j, lie.exp_map(lie.Twist(axis, np.array([0.1, 0.0, 0.2])), np.pi - off))
    stack = (np.array([T.q for T in poses]), np.array([T.t for T in poses]))
    with pytest.raises(BranchAmbiguityError, match=rf"^pose {j}: "):
        lie.log_map(stack)


@PROPERTY
@given(rows=st.lists(vectors(6, 2.0) | vectors(6, 1e-7), min_size=1, max_size=6))
def test_stacked_left_jacobian_matches_scalar(rows):
    # rows mixing the Taylor and closed-form branches, each as its own call
    u = np.array(rows)
    J = lie.se3_left_jacobian(u)
    assert J.shape == (len(u), 6, 6)
    for m in range(len(u)):
        assert np.allclose(J[m], lie.se3_left_jacobian(u[m]), rtol=0.0, atol=1e-12)


def rotation_about(axis: int, angle: float) -> np.ndarray:
    q = np.zeros(4)
    q[0], q[1 + axis] = np.cos(angle / 2), np.sin(angle / 2)
    return lie.quat_to_matrix(q)


# a random rotation, the identity, or a turn near pi about x, y or z (trace
# <= 0, so Shepperd's x, y or z branch)
rotations = (
    vectors(4, 1.0)
    .filter(lambda q: np.linalg.norm(q) > 0.1)
    .map(lambda q: lie.quat_to_matrix(q / np.linalg.norm(q)))
    | st.just(np.eye(3))
    | st.builds(rotation_about, st.sampled_from([0, 1, 2]), st.floats(np.pi - 0.5, np.pi + 0.5))
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(rows=st.lists(rotations, min_size=1, max_size=8))
def test_stacked_matrix_to_quat_matches_one_matrix_calls(rows):
    # every branch runs on its own rows only: one evaluated elsewhere would
    # take the square root of a negative number and warn
    R = np.array(rows)
    q = lie.matrix_to_quat(R)
    assert q.shape == (len(R), 4)
    for m in range(len(R)):
        one = lie.matrix_to_quat(R[m])
        assert one.shape == (4,)
        assert q[m].tobytes() == one.tobytes()
        assert one[0] >= 0.0
        assert np.max(np.abs(lie.quat_to_matrix(one) - R[m])) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacked_matrix_to_quat_takes_each_branch_on_its_rows():
    near_pi = [rotation_about(axis, np.pi - 0.01) for axis in range(3)]
    # 0.1 rad about x or y: two of the x, y, z branches' radicands round to
    # -1.1e-16 on this row, so a branch evaluated outside its rows warns
    R = np.array([near_pi[2], np.eye(3), near_pi[0], rotation_about(0, 0.1), near_pi[1],
                  rotation_about(1, 0.1)])
    q = lie.matrix_to_quat(R)
    # the largest component names the branch
    assert np.argmax(np.abs(q), axis=1).tolist() == [3, 0, 1, 0, 2, 0]
    for m in range(len(R)):
        assert q[m].tobytes() == lie.matrix_to_quat(R[m]).tobytes()
    assert lie.matrix_to_quat(np.zeros((0, 3, 3))).shape == (0, 4)
