"""Trajectory smoothing against a dense normal-equations oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solveh_banded

from artikit.errors import IllPosedError
from artikit.smoother import SmootherConfig, _banded_system, _solve_banded, smooth_track, smoothing_energy
from artikit.trackio import Track3D


def dense_normal_matrix(weights, cfg):
    """The full T x T normal matrix of one axis: data term diag(w), velocity
    differences on consecutive frames, jerk by the third-difference stencil."""
    T = len(weights)
    A = np.diag(weights.astype(float))
    for t in range(1, T):
        d = np.zeros(T)
        d[t] = 1.0
        d[t - 1] = -1.0
        A += cfg.lambda_vel * np.outer(d, d)
    if T >= 4:
        for t in range(3, T):
            d = np.zeros(T)
            d[t] = -1.0
            d[t - 1] = 3.0
            d[t - 2] = -3.0
            d[t - 3] = 1.0
            A += cfg.lambda_jerk * np.outer(d, d)
    return A


def dense_smooth(targets, weights, cfg):
    """Independent oracle: assemble the full quadratic and solve densely."""
    rhs = weights[:, None] * np.where(weights[:, None] > 0, targets, 0.0)
    return np.linalg.solve(dense_normal_matrix(weights, cfg), rhs)


def noisy_problem(rng, T, vis_rate=0.8):
    t = np.arange(T)
    clean = np.stack([np.sin(0.2 * t), 0.05 * t, np.cos(0.15 * t)], axis=1)
    noisy = clean + rng.normal(0, 0.05, (T, 3))
    valid = rng.random(T) < vis_rate
    if not valid.any():
        valid[rng.integers(T)] = True
    noisy[~valid] = np.nan
    return Track3D(noisy, valid)


def test_matches_dense_oracle():
    rng = np.random.default_rng(0)
    cfg = SmootherConfig(lambda_vel=0.5, lambda_jerk=5.0)
    for _ in range(25):
        T = int(rng.integers(4, 50))
        tr = noisy_problem(rng, T)
        out = smooth_track(tr, cfg)
        w = tr.valid.astype(float)
        targets = np.where(tr.valid[:, None], tr.positions, 0.0)
        oracle = dense_smooth(targets, w, cfg)
        scale = max(1.0, np.abs(oracle).max())
        assert np.max(np.abs(out.positions - oracle)) < 1e-9 * scale
        assert np.all(out.valid)


@pytest.mark.parametrize("lambdas", [(0.5, 5.0), (0.0, 5.0), (0.5, 0.0)])
def test_matches_lapack_banded_cholesky(lambdas):
    """Against LAPACK's banded Cholesky (scipy's ``solveh_banded``, a test
    dependency) on the band the smoother builds, one track at a time, on
    stacks of up to 420 tracks and up to 600 frames."""
    rng = np.random.default_rng(6)
    cfg = SmootherConfig(*lambdas)
    for N, T in [(1, 5), (48, 47), (420, 70), (60, 600)]:
        valid = rng.random((N, T)) < 0.8
        valid[:, :3] = True
        positions = np.cumsum(rng.normal(0.0, 0.01, (N, T, 3)), axis=1)
        out = smooth_track(Track3D(positions, valid), cfg)
        ab, _ = _banded_system(valid.astype(float), cfg)
        rhs = np.where(valid[:, :, None], positions, 0.0)
        lapack = np.stack([solveh_banded(ab[:, i], rhs[i]) for i in range(N)])
        assert out.valid.all()
        err = np.abs(out.positions - lapack).max(axis=(1, 2))
        assert (err <= 1e-12 * np.abs(lapack).max(axis=(1, 2))).all()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_drops_exactly_the_rank_deficient_tracks(data):
    """A track is dropped exactly when its normal matrix is singular: the
    observed frames do not pin down what the difference penalties leave free."""
    N = data.draw(st.integers(1, 6))
    T = data.draw(st.integers(1, 12))
    valid = data.draw(hnp.arrays(bool, (N, T)))
    cfg = SmootherConfig(data.draw(st.sampled_from([0.0, 0.5])), data.draw(st.sampled_from([0.0, 5.0])))
    singular = [np.linalg.matrix_rank(dense_normal_matrix(v, cfg)) < T for v in valid]
    try:
        out = smooth_track(Track3D(np.ones((N, T, 3)), valid), cfg)
    except IllPosedError:
        assert all(singular)
        return
    assert (~out.valid.all(axis=1)).tolist() == singular


def test_failed_pivot_voids_only_its_track():
    """A pivot that is not positive marks its own track unsolved, quietly,
    and leaves the other tracks' solutions as they are alone."""
    rng = np.random.default_rng(7)
    ab, _ = _banded_system(np.ones((4, 8)), SmootherConfig())
    ab[-1, 1, 4] = -1.0  # track 1's diagonal at frame 4: indefinite
    ab[:, 3] = 0.0  # track 3: a zero pivot, then 0 / 0
    rhs = rng.normal(size=(4, 8, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, solved = _solve_banded(ab, rhs)
    assert solved.tolist() == [True, False, True, False]
    assert np.array_equal(x[[0, 2]], _solve_banded(ab[:, [0, 2]], rhs[[0, 2]])[0])


def test_short_track_velocity_only_oracle():
    rng = np.random.default_rng(1)
    cfg = SmootherConfig(lambda_vel=0.7, lambda_jerk=4.0)
    for T in (1, 2, 3):
        pos = rng.normal(size=(T, 3))
        tr = Track3D(pos.copy(), np.ones(T, dtype=bool))
        out = smooth_track(tr, cfg)
        oracle = dense_smooth(pos, np.ones(T), cfg)  # T < 4 has no jerk rows
        assert np.max(np.abs(out.positions - oracle)) < 1e-12


def test_energy_never_increases():
    rng = np.random.default_rng(2)
    cfg = SmootherConfig()
    for _ in range(20):
        tr = noisy_problem(rng, int(rng.integers(5, 60)))
        out = smooth_track(tr, cfg)
        targets = np.where(tr.valid[:, None], tr.positions, 0.0)
        w = tr.valid.astype(float)
        e_in = smoothing_energy(targets, targets, w, cfg)
        e_out = smoothing_energy(out.positions, targets, w, cfg)
        assert e_out <= e_in + 1e-12


def test_zero_weights_identity_when_fully_visible():
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(10, 3))
    out = smooth_track(Track3D(pos.copy(), np.ones(10, bool)), SmootherConfig(0.0, 0.0))
    assert np.array_equal(out.positions, pos)


def test_zero_weights_with_gaps_is_ill_posed():
    pos = np.zeros((5, 3))
    valid = np.array([True, True, False, True, True])
    with pytest.raises(IllPosedError):
        smooth_track(Track3D(pos, valid), SmootherConfig(0.0, 0.0))


def test_no_observations_is_ill_posed():
    with pytest.raises(IllPosedError):
        smooth_track(Track3D(np.zeros((6, 3)), np.zeros(6, bool)), SmootherConfig())


def test_interpolates_gaps():
    # a straight-line track with a hole: the smoother must fill the hole
    # near the line, not at the origin
    t = np.arange(12, dtype=float)
    pos = np.stack([t, np.zeros(12), np.zeros(12)], axis=1)
    valid = np.ones(12, dtype=bool)
    valid[5:7] = False
    pos[5:7] = np.nan
    out = smooth_track(Track3D(pos, valid), SmootherConfig(0.5, 5.0))
    assert abs(out.positions[5, 0] - 5.0) < 0.3
    assert abs(out.positions[6, 0] - 6.0) < 0.3


def test_rigid_equivariance():
    """Rotating and shifting the observations rotates and shifts the output."""
    from artikit.lie import Twist, apply, exp_map

    rng = np.random.default_rng(4)
    cfg = SmootherConfig()
    tr = noisy_problem(rng, 30)
    out = smooth_track(Track3D(tr.positions.copy(), tr.valid.copy()), cfg)
    T = exp_map(Twist(rng.normal(size=3), rng.normal(size=3)), 0.8)
    moved = tr.positions.copy()
    moved[tr.valid] = apply(T, moved[tr.valid])
    out2 = smooth_track(Track3D(moved, tr.valid.copy()), cfg)
    assert np.max(np.abs(out2.positions - apply(T, out.positions))) < 1e-9


def per_track(positions, valid, cfg):
    """``smooth_track`` of each track alone; None where it raises."""
    out = []
    for pos, v in zip(positions, valid):
        try:
            out.append(smooth_track(Track3D(pos, v), cfg).positions)
        except IllPosedError:
            out.append(None)
    return out


def assert_stack_matches(positions, valid, cfg):
    """The stacked solve equals per-track calls bit for bit and drops the
    same tracks; it raises only when every track is dropped."""
    alone = per_track(positions, valid, cfg)
    try:
        out = smooth_track(Track3D(positions, valid), cfg)
    except IllPosedError:
        assert all(p is None for p in alone)
        return
    for i, p in enumerate(alone):
        if p is None:
            assert not out.valid[i].any() and np.isnan(out.positions[i]).all()
        else:
            assert out.valid[i].all() and np.array_equal(out.positions[i], p)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_stack_equals_per_track_calls(data):
    N = data.draw(st.integers(1, 6))
    T = data.draw(st.integers(1, 12))
    positions = data.draw(hnp.arrays(float, (N, T, 3), elements=st.floats(-5.0, 5.0, allow_subnormal=False)))
    valid = data.draw(hnp.arrays(bool, (N, T)))
    cfg = SmootherConfig(data.draw(st.sampled_from([0.0, 0.5])), data.draw(st.sampled_from([0.0, 5.0])))
    assert_stack_matches(positions, valid, cfg)


def test_stack_drops_only_the_singular_track():
    # jerk alone leaves a quadratic free: with one observed frame of six the
    # track's system is singular and that track alone is dropped
    rng = np.random.default_rng(5)
    valid = np.ones((3, 6), dtype=bool)
    valid[1, 1:] = False
    cfg = SmootherConfig(0.0, 5.0)
    assert per_track(rng.normal(size=(3, 6, 3)), valid, cfg)[1] is None
    assert_stack_matches(rng.normal(size=(3, 6, 3)), valid, cfg)
    out = smooth_track(Track3D(rng.normal(size=(3, 6, 3)), valid), cfg)
    assert out.valid.all(axis=1).tolist() == [True, False, True]


def test_config_validation():
    with pytest.raises(ValueError):
        SmootherConfig(lambda_vel=-0.1)
    with pytest.raises(ValueError):
        SmootherConfig(lambda_jerk=-1.0)
