"""Static, reliability and residual-outlier track filters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from artikit.errors import InsufficientTracksError
from artikit.trackfilter import (
    FilterConfig,
    filter_outliers,
    filter_static,
    filter_unreliable,
    motion_score,
)
from artikit.trackio import SegmentTrack


def make_track(tid, world, valid=None, uv=None):
    world = np.asarray(world, dtype=float)
    T = len(world)
    if valid is None:
        valid = np.ones(T, dtype=bool)
    if uv is None:
        uv = world[:, :2].copy()
    return SegmentTrack(tid, np.asarray(uv, dtype=float), world, np.asarray(valid, dtype=bool))


def line_track(tid, length, step):
    pts = np.zeros((5, 3))
    pts[:, 0] = np.arange(5) * step
    return make_track(tid, pts)


def test_motion_score_hand_example():
    # x coordinates 0, 2 with mean 1: var over both axes summed
    world = np.array([[0.0, 0, 0], [2.0, 0, 0]])
    tr = make_track(0, world)
    assert motion_score(tr, "world3d") == pytest.approx(1.0)
    # image mode reads pixel coordinates instead
    tr2 = make_track(0, world, uv=np.array([[0.0, 0.0], [0.0, 4.0]]))
    assert motion_score(tr2, "image2d") == pytest.approx(4.0)


def test_motion_score_needs_two_observations():
    tr = make_track(0, np.random.default_rng(0).normal(size=(4, 3)), valid=[True, False, False, False])
    assert motion_score(tr, "world3d") == 0.0


def test_motion_score_of_a_stack_equals_np_var_per_track():
    rng = np.random.default_rng(6)
    N, T = 12, 40
    world = rng.normal(size=(N, T, 3)) * rng.uniform(0.01, 10.0, (N, 1, 1))
    uv = rng.normal(size=(N, T, 2)) * 100.0
    valid = rng.random((N, T)) < rng.uniform(0.0, 1.0, (N, 1))
    valid[0], valid[1] = False, np.arange(T) == 3  # no observation, one observation
    world[~valid] = np.nan
    stack = SegmentTrack(None, uv, world, valid)
    for mode, coords in (("world3d", world), ("image2d", uv)):
        scores = motion_score(stack, mode)
        for i in range(N):
            pts = coords[i][valid[i]]
            want = float(np.sum(np.var(pts, axis=0))) if len(pts) >= 2 else 0.0
            assert scores[i] == want
            assert motion_score(SegmentTrack(i, uv[i], world[i], valid[i]), mode) == want


def test_static_filter_removes_exact_count():
    tracks = [line_track(i, 5, step=0.1 * (i + 1)) for i in range(10)]
    kept, removed = filter_static(tracks, FilterConfig(sigma_static=50.0, static_mode="world3d"))
    assert len(removed) == 5
    assert [t.id for t in removed] == [0, 1, 2, 3, 4]
    assert [t.id for t in kept] == [5, 6, 7, 8, 9]


def test_static_filter_rounds_down():
    tracks = [line_track(i, 5, step=0.1 * (i + 1)) for i in range(7)]
    kept, removed = filter_static(tracks, FilterConfig(sigma_static=50.0, static_mode="world3d"))
    assert len(removed) == 3  # floor(0.5 * 7)


def test_static_filter_zero_percentile_keeps_all():
    tracks = [line_track(i, 5, step=0.1) for i in range(4)]
    kept, removed = filter_static(tracks, FilterConfig(sigma_static=0.0, static_mode="world3d"))
    assert removed == [] and len(kept) == 4


def test_static_filter_full_percentile_keeps_max_ties():
    slow = [line_track(i, 5, step=0.01) for i in range(3)]
    fast = [line_track(10 + i, 5, step=1.0) for i in range(2)]
    kept, removed = filter_static(slow + fast, FilterConfig(sigma_static=100.0, static_mode="world3d"))
    assert [t.id for t in kept] == [10, 11]
    assert len(removed) == 3


def test_static_filter_tie_break_is_input_order():
    tracks = [line_track(i, 5, step=0.5) for i in range(4)]  # identical scores
    kept, removed = filter_static(tracks, FilterConfig(sigma_static=50.0, static_mode="world3d"))
    assert [t.id for t in removed] == [0, 1]
    assert [t.id for t in kept] == [2, 3]


def test_static_filter_partitions_and_preserves_order():
    rng = np.random.default_rng(1)
    tracks = [make_track(i, rng.normal(size=(6, 3))) for i in range(9)]
    kept, removed = filter_static(tracks, FilterConfig(sigma_static=33.0, static_mode="world3d"))
    assert len(kept) + len(removed) == 9
    assert [t.id for t in kept] == sorted(t.id for t in kept)
    assert [t.id for t in removed] == sorted(t.id for t in removed)


def test_unreliable_boundary_is_strict():
    # exactly half unobserved survives at sigma_reliable = 0.5; more does not
    half = make_track(0, np.zeros((4, 3)), valid=[True, True, False, False])
    worse = make_track(1, np.zeros((4, 3)), valid=[True, False, False, False])
    kept, removed = filter_unreliable([half, worse], FilterConfig(sigma_reliable=0.5))
    assert [t.id for t in kept] == [0]
    assert [t.id for t in removed] == [1]


def test_outlier_gate_hand_fixture():
    tracks = [make_track(i, np.zeros((3, 3))) for i in range(5)]
    residuals = {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 100.0}
    kept, removed = filter_outliers(tracks, residuals, FilterConfig(outlier_k=3.0))
    assert [t.id for t in removed] == [4]
    assert len(kept) == 4


def test_outlier_missing_residual_removed():
    tracks = [make_track(i, np.zeros((3, 3))) for i in range(5)]
    residuals = {0: 1.0, 1: 1.1, 2: 0.9, 3: 1.0}  # track 4 has no pairs
    kept, removed = filter_outliers(tracks, residuals, FilterConfig(outlier_k=3.0))
    assert [t.id for t in removed] == [4]


def test_outlier_insufficient_survivors_raises():
    tracks = [make_track(i, np.zeros((3, 3))) for i in range(4)]
    residuals = {0: 1.0, 1: 1.0, 2: 1.0, 3: 50.0}
    with pytest.raises(InsufficientTracksError):
        filter_outliers(tracks, residuals, FilterConfig(outlier_k=3.0))


def test_outlier_no_residuals_raises():
    tracks = [make_track(i, np.zeros((3, 3))) for i in range(4)]
    with pytest.raises(InsufficientTracksError):
        filter_outliers(tracks, {}, FilterConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(sigma_static=101.0)
    with pytest.raises(ValueError):
        FilterConfig(static_mode="pixels")
    with pytest.raises(ValueError):
        FilterConfig(sigma_reliable=1.5)
    with pytest.raises(ValueError):
        FilterConfig(outlier_k=-1.0)


# ---------------------------------------------------------------------------
# partition invariant over generated inputs


@st.composite
def filter_inputs(draw):
    n = draw(st.integers(1, 10))
    T = draw(st.integers(1, 6))
    coords = st.floats(-5.0, 5.0, allow_subnormal=False)
    tracks = [
        make_track(i, draw(hnp.arrays(float, (T, 3), elements=coords)),
                   valid=draw(hnp.arrays(bool, T)))
        for i in range(n)
    ]
    residuals = {i: r for i in range(n)
                 if (r := draw(st.none() | st.floats(0.0, 1.0))) is not None}
    cfg = FilterConfig(sigma_static=draw(st.floats(0.0, 100.0)),
                       static_mode=draw(st.sampled_from(["image2d", "world3d"])),
                       sigma_reliable=draw(st.floats(0.0, 1.0)),
                       outlier_k=draw(st.floats(0.0, 5.0)))
    return tracks, residuals, cfg


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(inputs=filter_inputs())
def test_filters_partition_their_input(inputs):
    tracks, residuals, cfg = inputs
    results = [filter_static(tracks, cfg), filter_unreliable(tracks, cfg)]
    try:
        results.append(filter_outliers(tracks, residuals, cfg))
    except InsufficientTracksError:
        pass  # fewer than four survivors: nothing is returned
    for kept, removed in results:
        # every input track lands on exactly one side, in input order
        assert sorted([id(t) for t in kept + removed]) == sorted(id(t) for t in tracks)
        for side in (kept, removed):
            ids = [t.id for t in side]
            assert ids == sorted(ids)
            assert all(t is tracks[t.id] for t in side)
