"""Trajectory estimation: registration, correspondences, twist-constrained
fits, the shared solver's linearizations and stop rules, and the regularized
fit's chart decision."""

import itertools
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import suite_util
from artikit import pipeline, synth
from artikit.artmodel import (
    _inverse_adjoints,
    _pose_model,
    _pose_residual,
)
from artikit.errors import (
    DegenerateGeometryError,
    DegenerateStepError,
    InsufficientMotionError,
)
from artikit.lie import (
    Twist,
    apply,
    apply_each,
    exp_map,
    inverse,
    normalize_twist,
    pose_stack,
    quat_mul,
    retract_twist,
    rotation_angle,
    twist_gauge,
    twist_tangent_basis,
    quat_to_matrix,
)
from artikit import trajest
from artikit.trackio import SegmentTrack
from artikit.trajest import (
    MAX_ITER,
    _fit_prismatic,
    _pair_model,
    _pair_residual,
    CorrespondenceSet,
    build_correspondences,
    choose_anchor,
    damped_gauss_newton,
    fit_independent,
    fit_regularized,
    integrate_poses,
    register_rigid,
    register_steps,
    residual_stats,
)
from suite_util import compose, pose


def rand_transform(rng, max_angle=1.0, max_t=0.5):
    w = rng.normal(size=3)
    w = w / np.linalg.norm(w) * rng.uniform(0.05, max_angle)
    return pose(exp_map(Twist(w, np.zeros(3)), 1.0).q, rng.uniform(-max_t, max_t, 3))


def transform_err(A, B):
    D = compose(A, inverse(B))
    return rotation_angle(D) + float(np.linalg.norm(D.t))


def screw_tracks(xi, thetas, base, valid=None):
    """World tracks riding exp(theta_t * hat(xi))."""
    T = len(thetas)
    n = len(base)
    world = np.zeros((n, T, 3))
    for t, th in enumerate(thetas):
        world[:, t] = apply(exp_map(xi, float(th)), base)
    if valid is None:
        valid = np.ones((n, T), dtype=bool)
    return SegmentTrack(np.arange(n), world, valid)


# ---------------------------------------------------------------------------
# registration


def test_register_recovers_exact_transform():
    rng = np.random.default_rng(0)
    for _ in range(100):
        T = rand_transform(rng)
        X = rng.uniform(-0.5, 0.5, (8, 3))
        assert transform_err(register_rigid(X, apply(T, X)), T) < 1e-12


def test_register_never_reflects():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, (20, 3))
    Y = X.copy()
    Y[:, 0] *= -1  # a mirror image: the best proper rotation is NOT a reflection
    R = quat_to_matrix(register_rigid(X, Y).q)
    assert np.linalg.det(R) > 0.99


def test_register_planar_cloud_is_fine():
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (12, 3))
    X[:, 2] = 0.0  # a door-like planar cloud
    T = rand_transform(rng)
    assert transform_err(register_rigid(X, apply(T, X)), T) < 1e-12


def test_register_collinear_raises():
    t = np.linspace(0, 1, 10)
    X = np.stack([t, 2 * t, -t], axis=1)
    with pytest.raises(DegenerateGeometryError):
        register_rigid(X, X + [0.1, 0.0, 0.0])


def test_register_shape_mismatch():
    with pytest.raises(ValueError):
        register_rigid(np.zeros((4, 3)), np.zeros((5, 3)))


@pytest.mark.parametrize(
    "bad, shape",
    [(np.zeros((5, 2)), "(5, 2)"), (np.zeros(6), "(6,)"), (np.array([[0.0, 1.0, np.nan]] * 5), "(5, 3)")],
    ids=["five-by-two", "one-dimensional", "nan"],
)
@pytest.mark.parametrize("side", ["src", "dst"])
def test_register_rejects_what_is_not_a_finite_n_by_3_array(bad, shape, side):
    good = np.random.default_rng(7).uniform(-1.0, 1.0, (5, 3))
    args = (bad, good) if side == "src" else (good, bad)
    with pytest.raises(ValueError, match=rf"^{side} must be a finite \(n, 3\) array, got shape {re.escape(shape)}$"):
        register_rigid(*args)


def reference_register(src, dst):
    """One step's registration as a per-step loop computes it: rotation, translation."""
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    U, S, Vt = np.linalg.svd((src - cs).T @ (dst - cd))
    R = Vt.T @ np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))]) @ U.T
    return R, cd - R @ cs


def pair_table(src, dst, step, M):
    """A stride-1 table of the given pairs over M steps, each pair on a
    track row of its own."""
    return CorrespondenceSet(src, dst, step, np.arange(len(step)), 1, np.arange(M + 1), len(step))


def noisy_steps(rng, M):
    """A pair table of M steps of 3 to 39 noisy pairs each, one rigid
    transform per step."""
    src, dst = [], []
    for _ in range(M):
        n = int(rng.integers(3, 40))
        src.append(rng.uniform(-0.5, 0.5, (n, 3)))
        dst.append(apply(rand_transform(rng), src[-1]) + rng.normal(0.0, 0.01, (n, 3)))
    step = np.repeat(np.arange(M), [len(s) for s in src])
    return pair_table(np.concatenate(src), np.concatenate(dst), step, M)


def test_register_steps_matches_per_step_registration():
    rng = np.random.default_rng(12)
    for M in (1, 2, 9):
        corr = noisy_steps(rng, M)
        steps = register_steps(corr)
        q, t = steps.q, steps.t
        for m in range(M):
            s = corr.step == m
            one = register_rigid(corr.src[s], corr.dst[s])
            R, tt = reference_register(corr.src[s], corr.dst[s])
            assert np.max(np.abs(q[m] - one.q)) <= 1e-12 and np.max(np.abs(t[m] - one.t)) <= 1e-12
            assert np.max(np.abs(quat_to_matrix(q[m]) - R)) <= 1e-12
            assert np.max(np.abs(t[m] - tt)) <= 1e-12


def test_register_steps_raises_on_a_near_collinear_step():
    corr = noisy_steps(np.random.default_rng(13), 4)
    s = corr.step == 2
    line = np.linspace(0.0, 1.0, np.count_nonzero(s))[:, None] * [1.0, 2.0, -1.0]
    corr.src[s], corr.dst[s] = line, line + [0.1, 0.0, 0.0]
    with pytest.raises(DegenerateGeometryError):
        register_steps(corr)


# ---------------------------------------------------------------------------
# correspondences


def test_correspondences_structure():
    rng = np.random.default_rng(3)
    tracks = screw_tracks(
        Twist(np.array([0, 0, 1.0]), np.zeros(3)),
        np.linspace(0, 0.5, 9),
        rng.uniform(-0.5, 0.5, (6, 3)) + [1.0, 0, 0],
    )
    corr = build_correspondences(tracks, stride=2)
    assert list(corr.keyframes) == [0, 2, 4, 6, 8]
    assert corr.step_count == 4
    assert np.array_equal(np.bincount(corr.step), [6, 6, 6, 6])


def test_correspondences_require_both_endpoints():
    rng = np.random.default_rng(4)
    base = rng.uniform(-0.5, 0.5, (5, 3)) + [1.0, 0, 0]
    valid = np.ones((5, 9), dtype=bool)
    valid[0, 2] = False  # track 0 missing at keyframe 2
    tracks = screw_tracks(
        Twist(np.array([0, 0, 1.0]), np.zeros(3)), np.linspace(0, 0.5, 9), base, valid
    )
    corr = build_correspondences(tracks, stride=2)
    n = np.bincount(corr.step)
    assert n[0] == 4  # step 0->2 loses track 0
    assert n[1] == 4  # step 2->4 loses it too
    assert n[2] == 5
    assert 0 not in corr.track[corr.step == 0]


def test_residual_stats_has_one_mean_per_row_and_nan_without_pairs():
    rng = np.random.default_rng(4)
    valid = np.ones((6, 9), dtype=bool)
    valid[4, ::2] = False  # row 4 is never seen at a keyframe
    tracks = screw_tracks(
        Twist(np.array([0, 0, 1.0]), np.zeros(3)), np.linspace(0, 0.5, 9),
        rng.uniform(-0.5, 0.5, (6, 3)) + [1.0, 0, 0], valid,
    )
    tracks.world += rng.normal(0.0, 0.001, tracks.world.shape)
    corr = build_correspondences(tracks, stride=2)
    steps = register_steps(corr)
    means = residual_stats(corr, steps)[1]
    assert means.shape == (6,)
    assert np.isnan(means[4]) and np.all(np.isfinite(np.delete(means, 4)))
    # each row's mean is over that row's pairs alone
    q, t = steps.q, steps.t
    for k in (0, 5):
        r = [np.linalg.norm(corr.dst[p] - quat_to_matrix(q[m]) @ corr.src[p] - t[m])
             for m in range(corr.step_count) for p in np.flatnonzero((corr.step == m) & (corr.track == k))]
        assert len(r) == corr.step_count
        assert means[k] == pytest.approx(np.mean(r), rel=1e-12)


def test_correspondences_too_few_pairs_raises():
    rng = np.random.default_rng(5)
    tracks = screw_tracks(
        Twist(np.array([0, 0, 1.0]), np.zeros(3)),
        np.linspace(0, 0.5, 5),
        rng.uniform(-0.5, 0.5, (2, 3)),
    )
    with pytest.raises(DegenerateStepError) as ei:
        build_correspondences(tracks, stride=2)
    assert "step 0" in str(ei.value)


def test_correspondences_name_the_first_starved_step():
    rng = np.random.default_rng(5)
    valid = np.ones((5, 9), dtype=bool)
    valid[0, [2, 8]] = False  # off steps 0, 1 and 3
    valid[1, [4, 8]] = False  # off steps 1, 2 and 3
    valid[2, 8] = False  # off step 3
    valid[3, 2] = False  # off steps 0 and 1
    tracks = screw_tracks(
        Twist(np.array([0, 0, 1.0]), np.zeros(3)), np.linspace(0, 0.5, 9),
        rng.uniform(-0.5, 0.5, (5, 3)) + [1.0, 0, 0], valid,
    )
    # pairs per step: 3, 2, 4, 2
    with pytest.raises(DegenerateStepError) as ei:
        build_correspondences(tracks, stride=2)
    assert str(ei.value) == "step 1 (frames 2->4) has 2 pairs; need at least 3"


@st.composite
def fed_masks(draw):
    """An (N, T) observation mask and a stride under which every step has
    at least three pairs: three rows, placed at random, are always
    observed."""
    N, T = draw(st.integers(3, 10)), draw(st.integers(2, 16))
    stride = draw(st.integers(1, T - 1))
    valid = draw(hnp.arrays(bool, (N, T)))
    valid[draw(st.permutations(range(N)))[:3]] = True
    return valid, stride


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mask=fed_masks(), seed=st.integers(0, 2**32 - 1))
def test_pair_table_holds_every_pair_observed_at_both_keyframes(mask, seed):
    valid, stride = mask
    N, T = valid.shape
    world = np.random.default_rng(seed).normal(size=(N, T, 3))
    corr = build_correspondences(SegmentTrack(np.arange(N), world, valid), stride)
    kf = np.arange(0, T, stride)
    assert np.array_equal(corr.keyframes, kf) and corr.step_count == len(kf) - 1
    assert corr.track_count == N and corr.stride == stride
    expected = [(m, k) for m in range(len(kf) - 1) for k in range(N) if valid[k, kf[m]] and valid[k, kf[m + 1]]]
    assert list(zip(corr.step.tolist(), corr.track.tolist())) == expected
    assert np.array_equal(corr.src, world[corr.track, kf[corr.step]])
    assert np.array_equal(corr.dst, world[corr.track, kf[corr.step + 1]])
    M = corr.step_count
    steps = pose_stack(np.tile([1.0, 0.0, 0.0, 0.0], (M, 1)), np.zeros((M, 3)))
    means = residual_stats(corr, steps)[1]
    paired = np.isin(np.arange(N), [k for _, k in expected])
    assert np.array_equal(np.isnan(means), ~paired)


def test_correspondences_single_keyframe_raises():
    rng = np.random.default_rng(6)
    tracks = screw_tracks(
        Twist(np.array([0, 0, 1.0]), np.zeros(3)), [0.0], rng.normal(size=(4, 3))
    )
    with pytest.raises(DegenerateStepError):
        build_correspondences(tracks, stride=2)


# ---------------------------------------------------------------------------
# independent fits and pose chaining


def test_fit_independent_recovers_scripted_steps():
    rng = np.random.default_rng(7)
    n, T = 10, 7
    world = np.zeros((n, T, 3))
    world[:, 0] = rng.uniform(-0.5, 0.5, (n, 3))
    steps = []
    for m in range(T - 1):
        S = rand_transform(rng, max_angle=0.4, max_t=0.2)
        steps.append(S)
        world[:, m + 1] = apply(S, world[:, m])
    corr = build_correspondences(SegmentTrack(np.arange(n), world, np.ones((n, T), bool)), stride=1)
    est = fit_independent(corr)
    assert est.mode == "independent"
    registered = register_steps(corr)
    assert len(registered) == T - 1
    for got, want in zip(registered, steps):
        assert transform_err(got, want) < 1e-11
    assert est.rms_residual < 1e-12
    means = residual_stats(corr, register_steps(corr))[1]
    assert means.shape == (n,) and np.all(means < 1e-12)


def test_integrate_poses_equals_a_compose_chain_bit_for_bit():
    """Row for row, the stacked chain equals a chain of one-row ``compose``
    calls from its row 0, the anchor, also with step quaternions just inside
    the 1e-13 band in which ``pose_stack`` keeps a quaternion
    unrenormalized: their products leave the band at some steps and stay
    inside it at others."""
    rng = np.random.default_rng(8)
    steps = pose_stack([
        (T.q * (1.0 + s * 0.99e-13), T.t)
        for T, s in zip([rand_transform(rng, 0.3, 0.1) for _ in range(40)], rng.choice([-1, 1], 40))
    ])
    pts = rng.uniform(-1, 1, (6, 3))
    poses = integrate_poses(steps, pts)
    assert isinstance(poses, np.recarray) and len(poses) == len(steps) + 1
    anchor = poses[0]
    assert np.array_equal(anchor.q, [1.0, 0.0, 0.0, 0.0]) and np.array_equal(anchor.t, pts.mean(axis=0))
    cur, band = anchor, []
    for m, S in enumerate(steps):
        band.append(abs(np.linalg.norm(quat_mul(S.q, cur.q)) - 1.0) <= 1e-13)
        cur = compose(S, cur)
        assert np.array_equal(poses.q[m + 1], cur.q) and np.array_equal(poses.t[m + 1], cur.t), m
    assert 0 < sum(band) < len(band)  # both sides of the renormalization rule


def test_choose_anchor_falls_back():
    rng = np.random.default_rng(9)
    base = rng.uniform(-0.5, 0.5, (4, 3))
    valid = np.ones((4, 6), dtype=bool)
    pts, frame, fell_back = choose_anchor(
        screw_tracks(Twist(np.array([0, 0, 1.0]), np.zeros(3)), np.zeros(6), base, valid)
    )
    assert frame == 0 and not fell_back and len(pts) == 4

    valid2 = valid.copy()
    valid2[:, 0] = False
    _, frame2, fell_back2 = choose_anchor(
        screw_tracks(Twist(np.array([0, 0, 1.0]), np.zeros(3)), np.zeros(6), base, valid2)
    )
    assert frame2 == 1 and fell_back2


# ---------------------------------------------------------------------------
# regularized fits


def test_regularized_recovers_revolute_twist():
    rng = np.random.default_rng(10)
    axis_dir = np.array([0.3, -0.5, 0.81])
    axis_dir /= np.linalg.norm(axis_dir)
    axis_point = np.array([0.4, 0.1, 0.9])
    xi = Twist(axis_dir, -np.cross(axis_dir, axis_point))
    thetas = np.linspace(0.0, 0.8, 11)
    base = axis_point + rng.uniform(-0.3, 0.3, (8, 3)) + 0.4 * np.array([1.0, 0, 0])
    est = fit_regularized(build_correspondences(screw_tracks(xi, thetas, base), stride=1))
    assert est.mode == "regularized"
    assert est.converged
    unit, _ = normalize_twist(xi)
    got = est.base_twist
    # same axis line and pitch up to sign
    s = np.sign(np.dot(got.omega, unit.omega))
    assert np.linalg.norm(s * got.omega - unit.omega) < 1e-7
    assert np.linalg.norm(s * got.v - unit.v) < 1e-7
    # per-step magnitudes reproduce the scripted increments
    inc = np.diff(thetas)
    assert np.allclose(np.abs(est.thetas), inc, atol=1e-7)
    assert est.rms_residual < 1e-9


def test_regularized_recovers_prismatic_twist():
    rng = np.random.default_rng(11)
    d = np.array([0.6, 0.8, 0.0])
    xi = Twist(np.zeros(3), d)
    thetas = np.linspace(0, 0.3, 9)
    base = rng.uniform(-0.4, 0.4, (6, 3))
    est = fit_regularized(build_correspondences(screw_tracks(xi, thetas, base), stride=2))
    assert np.all(est.base_twist.omega == 0)
    s = np.sign(np.dot(est.base_twist.v, d))
    assert np.linalg.norm(s * est.base_twist.v - d) < 1e-9
    assert est.rms_residual < 1e-12


def test_regularized_theta_sign_convention():
    rng = np.random.default_rng(12)
    xi = Twist(np.array([0, 0, 1.0]), np.zeros(3))
    base = rng.uniform(-0.3, 0.3, (6, 3)) + [1.0, 0, 0]
    # strictly decreasing configuration: magnitudes flip so their sum is >= 0
    est = fit_regularized(
        build_correspondences(screw_tracks(xi, np.linspace(0, -0.6, 8), base), stride=1)
    )
    assert float(np.sum(est.thetas)) >= 0.0


def test_regularized_insufficient_motion():
    rng = np.random.default_rng(13)
    base = rng.uniform(-0.5, 0.5, (5, 3))
    tracks = screw_tracks(Twist(np.array([0, 0, 1.0]), np.zeros(3)), np.zeros(7), base)
    with pytest.raises(InsufficientMotionError):
        fit_regularized(build_correspondences(tracks, stride=1))


def test_regularized_matches_independent_on_noiseless_screw():
    """With perfect screw data the constrained fit can do no worse."""
    rng = np.random.default_rng(14)
    axis_point = np.array([0.2, 0.0, 1.0])
    w = np.array([0.0, 1.0, 0.0])
    xi = Twist(w, -np.cross(w, axis_point))
    base = axis_point + rng.uniform(-0.3, 0.3, (7, 3)) + [0.5, 0, 0]
    corr = build_correspondences(screw_tracks(xi, np.linspace(0, 0.7, 9), base), stride=1)
    ind = fit_independent(corr)
    reg = fit_regularized(corr)
    assert reg.rms_residual <= ind.rms_residual + 1e-9
    for a, b in zip(reg.poses, ind.poses, strict=True):
        assert transform_err(a, b) < 1e-6


# ---------------------------------------------------------------------------
# the linearization against central differences


def central_difference_check(residual, model, xi, thetas, h=1e-6, tol=1e-7):
    """Compare a solver model's residuals with ``residual``, and the normal
    matrix and gradient assembled from its per-step blocks with J^T J and
    J^T r of the central-difference Jacobian J of ``residual`` along each
    chart direction (through retract_twist) and each magnitude."""
    B = twist_tangent_basis(xi)
    k, M = B.shape[1], len(thetas)
    r, linearize = model(xi, thetas)
    assert np.array_equal(r, residual(xi, thetas))
    H, b = linearize(B)
    assert H.shape == (M, k + 1, k + 1) and b.shape == (M, k + 1)
    J = np.empty((len(r), k + M))
    for j in range(k):
        e = h * np.eye(k)[j]
        J[:, j] = (residual(retract_twist(xi, e), thetas) - residual(retract_twist(xi, -e), thetas)) / (2 * h)
    for m in range(M):
        e = h * np.eye(M)[m]
        J[:, k + m] = (residual(xi, thetas + e) - residual(xi, thetas - e)) / (2 * h)
    JtJ, Jtr = trajest._arrowhead(H, b)
    assert np.max(np.abs(JtJ - J.T @ J)) < tol
    assert np.max(np.abs(Jtr - J.T @ r)) < tol


@pytest.mark.parametrize("gauge", ["revolute", "prismatic"])
def test_pair_linearization_matches_central_differences(gauge):
    rng = np.random.default_rng(15)
    if gauge == "revolute":
        w = np.array([0.36, 0.48, 0.8])
        xi = Twist(w, -np.cross(w, [0.3, -0.1, 0.9]) + 0.05 * w)
    else:
        xi = Twist(np.zeros(3), np.array([0.6, 0.0, 0.8]))
    thetas = np.array([0.0, 0.2, 3e-8, -0.15, 0.4])
    base = rng.uniform(-0.3, 0.3, (7, 3)) + [0.5, 0, 1.0]
    tracks = screw_tracks(xi, np.concatenate(([0.0], np.cumsum(thetas))), base)
    tracks.world += rng.normal(0.0, 0.01, tracks.world.shape)  # so that residuals and curvature terms are non-zero
    corr = build_correspondences(tracks, stride=1)
    start = retract_twist(xi, 0.05 * np.ones(twist_tangent_basis(xi).shape[1]))
    central_difference_check(
        lambda x, th: _pair_residual(corr, x, th)[1].ravel(),
        partial(_pair_model, corr),
        start,
        thetas + 0.01,
    )


@pytest.mark.parametrize("gauge", ["revolute", "prismatic"])
def test_pose_linearization_matches_central_differences(gauge):
    rng = np.random.default_rng(16)
    if gauge == "revolute":
        w = np.array([0.0, 0.6, 0.8])
        xi = Twist(w, -np.cross(w, [0.2, 0.4, 1.0]))
    else:
        xi = Twist(np.zeros(3), np.array([0.48, -0.6, 0.64]))
    thetas = np.array([0.1, 2e-8, 0.3, -0.2, 0.5])
    # poses off the model, so that residuals are non-zero
    poses = [
        compose(exp_map(Twist(rng.normal(0, 0.02, 3), rng.normal(0, 0.01, 3)), 1.0), exp_map(xi, th))
        for th in thetas
    ]
    stack = pose_stack(poses)
    start = retract_twist(xi, 0.05 * np.ones(twist_tangent_basis(xi).shape[1]))
    central_difference_check(
        lambda x, th: _pose_residual(stack, x, th).ravel(),
        partial(_pose_model, stack, _inverse_adjoints(stack)),
        start,
        thetas + 0.01,
    )


# ---------------------------------------------------------------------------
# the solver's stop reasons


def toy_model(scale, level=lambda xi, thetas: 1.0):
    """Three residual rows over a prismatic chart (k = 2) and one magnitude,
    with a fixed Jacobian, plus a fourth row outside its column space worth
    ``level(xi, thetas)``: the cost stays near ``level`` while the gradient
    scales with ``scale``."""
    J = np.array([[1.0, 0.0, 0.5], [0.0, 2.0, 0.0], [0.3, 0.0, 1.0], [0.0, 0.0, 0.0]])

    def model(xi, thetas):
        r = np.append(scale * np.array([1.0, -1.0, 0.5]), np.sqrt(level(xi, thetas)))
        return r, lambda B: ((J.T @ J)[None], (J.T @ r)[None])

    return model


PRISMATIC = Twist(np.zeros(3), np.array([0.0, 0.0, 1.0]))


def only_tiny_steps_decrease(xi, thetas):
    # the first iteration accepts a step only at a large damping, and the
    # next starts from that damping and finds no decrease; judged at that
    # damping, the predicted decrease would be negligible even at scale 1e-3
    return 0.5 if 0.0 < abs(thetas[0] - 1.0) < 1e-12 else 1.0


@pytest.mark.parametrize(
    "level, final",
    [(lambda xi, thetas: 1.0, 1.0), (only_tiny_steps_decrease, 0.5)],
    ids=["no-decrease", "damping-carried-over"],
)
@pytest.mark.parametrize("scale, stop", [(1e-7, "converged"), (1e-3, "stalled")])
def test_solver_without_decrease_converges_only_on_negligible_prediction(scale, stop, level, final):
    # no step lowers the cost (after the first accepted one); with scale 1e-7
    # the gradient (~1e-7) is far above the exact-fit floor but the predicted
    # decrease (~1e-14) is below COST_RTOL times the cost
    model = toy_model(scale, level)
    xi, thetas, cost, reason = damped_gauss_newton(PRISMATIC, np.array([1.0]), model)
    r, _ = model(xi, thetas)
    assert reason == stop
    assert cost == float(np.sum(r * r)) and abs(cost - final) < 1e-5


def test_solver_reports_max_iter():
    calls = itertools.count(1)
    out = damped_gauss_newton(
        PRISMATIC, np.array([1.0]), toy_model(1e-3, lambda xi, th: 1.0 / next(calls))
    )
    assert out[3] == "reached MAX_ITER"
    assert next(calls) > MAX_ITER


def test_regularized_fit_evaluates_each_point_once(monkeypatch):
    rng = np.random.default_rng(21)
    w = np.array([0.36, 0.48, 0.8])
    xi = Twist(w, -np.cross(w, [0.3, -0.1, 0.9]))
    base = rng.uniform(-0.3, 0.3, (9, 3)) + [0.5, 0, 1.0]
    tracks = screw_tracks(xi, np.linspace(0.0, 0.6, 8), base)
    tracks.world += rng.normal(0.0, 0.005, tracks.world.shape)  # so that the fit takes several iterations
    corr = build_correspondences(tracks, stride=1)
    seen = []

    def recording_model(corr, x, th):
        seen.append((tuple(x.as_vector()), tuple(th)))
        return _pair_model(corr, x, th)

    monkeypatch.setattr(trajest, "_pair_model", recording_model)
    est = fit_regularized(corr)
    assert est.converged and len(seen) > 3
    assert len(set(seen)) == len(seen)
    # the reported rms is the solver's final cost over the pair count
    r = _pair_residual(corr, est.base_twist, est.thetas)[1]
    assert abs(est.rms_residual - np.sqrt(np.sum(r * r) / len(r))) < 1e-15


# ---------------------------------------------------------------------------
# the chart decision: closed-form prismatic fit, score test and BIC


def suite_estimate(scene: int, noisy: bool, redraw: int = 0) -> dict:
    """stage_estimate's output on one suite scene (regularized mode)."""
    cfg = suite_util.pipeline_config(noisy=noisy)
    ts, _ = synth.generate(suite_util.scene_config(scene, noisy, redraw))
    (seg,) = pipeline.extract_hand_segments(ts, cfg.segmenter)
    tracks, counts = pipeline.stage_filter(ts, seg, cfg)
    tracks = pipeline.stage_smooth(tracks, cfg, counts)
    return pipeline.stage_estimate(tracks, cfg, counts)


@pytest.mark.parametrize(
    "scene, noisy, redraw",
    [pytest.param(i, True, 1, id=f"noisy-{i}-redraw-1") for i in (34, 40, 49)]
    + [pytest.param(i, True, 2, id=f"noisy-{i}-redraw-2") for i in (32, 37, 41, 44, 48)]
    + [pytest.param(i, False, 0, id=f"clean-{i}") for i in (25, 37, 44)],
)
def test_prismatic_motion_gets_a_converged_prismatic_chart(scene, noisy, redraw):
    """Noise draws on which a revolute-chart fit reached MAX_ITER, and clean
    scenes whose two charts' costs differ only at the rounding floor."""
    traj = suite_estimate(scene, noisy, redraw)["traj"]
    assert traj.converged and traj.flags == []
    assert twist_gauge(traj.base_twist) == "prismatic"


@pytest.mark.parametrize("sigma", [0.0, 0.001, 0.002])
def test_rotation_about_the_part_centroid_is_revolute(sigma):
    """Twenty tracks turning 1.2 rad over 46 frames about an axis through
    their own centroid: the prismatic magnitudes are noise there, so the
    score test sees nothing, and the registration seed's cost must run the
    revolute fit."""
    c = np.array([0.3, -0.2, 1.1])
    for draw in range(6):
        rng = np.random.default_rng(draw)
        base = rng.uniform(-0.15, 0.15, (20, 3))
        base += c - base.mean(axis=0)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        _, R, t = exp_map(Twist(axis, -np.cross(axis, c)), np.linspace(0.0, 1.2, 46))
        world = apply_each(R[None], t[None], base[:, None]) + rng.normal(0.0, sigma, (20, 46, 3))
        tracks = SegmentTrack(np.arange(20), world, np.ones((20, 46), dtype=bool))
        est = pipeline.stage_estimate(tracks, pipeline.PipelineConfig(), {})["estimate"]
        assert est.joint_type == "revolute" and est.flags == [], (draw, est.joint_type, est.flags)
        assert abs(abs(est.axis_dir @ axis) - 1.0) < 1e-3


@pytest.mark.parametrize("scene", range(suite_util.N_REVOLUTE, suite_util.N_SCENES))
def test_closed_form_prismatic_fit_matches_solver(scene):
    """The solver cannot improve the closed form, and from the mean
    displacement's direction it converges to no lower cost. From there it
    stops at COST_RTOL, which leaves v up to 1e-6 off on the 2 cm scene (the
    cost is that flat in v), so that fit's v is held to 1e-5 only."""
    corr = suite_estimate(scene, noisy=True)["corr"]
    model = partial(_pair_model, corr)
    xi, thetas, r = _fit_prismatic(corr)
    cost = float(np.sum(r * r))
    at = damped_gauss_newton(xi, thetas, model)
    assert at[3] == "converged" and twist_gauge(at[0]) == "prismatic"
    assert np.max(np.abs(xi.as_vector() - at[0].as_vector())) < 1e-9
    assert np.max(np.abs(thetas - at[1])) < 1e-9
    d = corr.dst - corr.src
    v0 = d.sum(axis=0) / np.linalg.norm(d.sum(axis=0))
    thetas0 = np.bincount(corr.step, d @ v0) / np.bincount(corr.step)
    ref = damped_gauss_newton(Twist(np.zeros(3), v0), thetas0, model)
    assert ref[3] == "converged" and twist_gauge(ref[0]) == "prismatic"
    assert cost <= ref[2] * (1.0 + 1e-12)  # equal up to rounding at best
    assert np.max(np.abs(xi.v - ref[0].v)) < 1e-5


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    u=hnp.arrays(float, 3, elements=st.floats(-1.0, 1.0, allow_subnormal=False)),
    noise=st.floats(0.0, 0.01),
)
def test_closed_form_prismatic_cost_is_minimal(seed, u, noise):
    """Random per-step translations plus noise: no unit direction, with its
    best magnitudes, fits with a lower cost, near the optimum or far off."""
    assume(np.linalg.norm(u) > 1e-3)
    rng = np.random.default_rng(seed)
    M = int(rng.integers(2, 8))
    counts = rng.integers(3, 10, M)
    step = np.repeat(np.arange(M), counts)
    src = rng.uniform(-1.0, 1.0, (len(step), 3))
    dst = src + rng.normal(0.0, 0.1, (M, 3))[step] + rng.normal(0.0, noise, src.shape)
    xi, thetas, r = _fit_prismatic(pair_table(src, dst, step, M))
    d = dst - src
    cost = float(np.sum(r * r))
    assert np.array_equal(r, d - thetas[step, None] * xi.v)
    assert np.sum(thetas) >= 0 and abs(np.linalg.norm(xi.v) - 1.0) < 1e-12
    for v in (u, xi.v + 1e-4 * u):
        v = v / np.linalg.norm(v)
        best = np.bincount(step, d @ v, M) / counts
        assert cost <= float(np.sum((d - best[step, None] * v) ** 2)) * (1.0 + 1e-12)
