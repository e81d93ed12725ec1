"""Static, reliability and residual-outlier track filters."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import suite_util
from artikit.errors import InsufficientTracksError
from artikit.pipeline import PipelineConfig, run_pipeline, stage_filter
from artikit.segmenter import Segment
from artikit.synth import generate
from artikit.trackfilter import (
    MAD_FLOOR,
    FilterConfig,
    filter_outliers,
    filter_static,
    filter_unreliable,
    motion_score,
)
from artikit.trackio import CameraIntrinsics, SegmentTrack, Track, TrackSet


def make_tracks(world, valid=None):
    """Tracks stacked on the leading axis of ``world`` (N, T, 3), ids 0..N-1."""
    world = np.asarray(world, dtype=float)
    if valid is None:
        valid = np.ones(world.shape[:2], dtype=bool)
    return SegmentTrack(np.arange(len(world)), world, np.asarray(valid, dtype=bool))


def line_tracks(steps):
    """One five-frame track along x per step length."""
    world = np.zeros((len(steps), 5, 3))
    world[:, :, 0] = np.arange(5) * np.asarray(steps, dtype=float)[:, None]
    return make_tracks(world)


def test_motion_score_hand_example():
    # x coordinates 0, 2 with mean 1: var over both axes summed
    world = np.array([[[0.0, 0, 0], [2.0, 0, 0]]])
    assert motion_score(make_tracks(world)) == pytest.approx([1.0])
    # the axes' variances add: y coordinates 0, 4 add 4
    world[0, 1, 1] = 4.0
    assert motion_score(make_tracks(world)) == pytest.approx([5.0])


def test_motion_score_needs_two_observations():
    tr = make_tracks(np.random.default_rng(0).normal(size=(1, 4, 3)), valid=[[True, False, False, False]])
    assert motion_score(tr)[0] == 0.0


def test_motion_score_of_a_stack_equals_np_var_per_track():
    rng = np.random.default_rng(6)
    N, T = 12, 40
    world = rng.normal(size=(N, T, 3)) * rng.uniform(0.01, 10.0, (N, 1, 1))
    valid = rng.random((N, T)) < rng.uniform(0.0, 1.0, (N, 1))
    valid[0], valid[1] = False, np.arange(T) == 3  # no observation, one observation
    world[~valid] = np.nan
    stack = SegmentTrack(np.arange(N), world, valid)
    scores = motion_score(stack)
    for i in range(N):
        pts = world[i][valid[i]]
        want = float(np.sum(np.var(pts, axis=0))) if len(pts) >= 2 else 0.0
        assert scores[i] == want
        assert motion_score(stack.take([i]))[0] == want


def test_static_filter_removes_exact_count():
    # five barely moving tracks, one track seen only once (it scores zero and
    # still has a log through SCORE_FLOOR) and four moving ones: the cut falls
    # in the gap, so the static majority goes whatever its share
    tracks = line_tracks([1e-4] * 3 + [0.1, 0.2] + [2e-4] * 2 + [0.5] + [0.15, 0.3])
    tracks.valid[7, 1:] = False
    keep = filter_static(tracks, FilterConfig(static_mode="world3d"))
    assert keep.dtype == bool and keep.shape == (10,)
    assert list(np.flatnonzero(~keep)) == [0, 1, 2, 5, 6, 7]


def test_static_filter_equal_scores_keep_every_track():
    for steps in ([0.5] * 4, [0.0] * 3, [0.3]):  # identical scores, all zero, a single track
        keep = filter_static(line_tracks(steps), FilterConfig(static_mode="world3d"))
        assert keep.all() and keep.shape == (len(steps),)


def test_static_filter_partitions_and_preserves_order():
    tracks = make_tracks(np.random.default_rng(1).normal(size=(9, 6, 3)))
    keep = filter_static(tracks, FilterConfig(static_mode="world3d"))
    scores = motion_score(tracks)
    assert 0 < np.count_nonzero(~keep) < 9
    assert scores[keep].min() > scores[~keep].max()
    assert list(tracks.take(keep).id) == list(np.flatnonzero(keep))


@pytest.mark.parametrize("n_dynamic, n_static", [(20, 48), (12, 80)])
def test_static_majority_segments_are_typed_right_or_skipped(n_dynamic, n_static):
    """Every eighth noisy suite scene (revolute and prismatic) with more
    background tracks than part tracks: each segment is typed right or
    skipped, never typed wrong."""
    for i in range(0, suite_util.N_SCENES, 8):
        ts, gt = generate(replace(suite_util.scene_config(i, noisy=True), n_dynamic=n_dynamic, n_static=n_static))
        doc = run_pipeline(ts, suite_util.pipeline_config(noisy=True))
        assert len(doc["results"]) + len(doc["skipped"]) == 1, i
        assert [r["type"] for r in doc["results"]] in ([], [gt[0].joint_type]), i


def test_unreliable_boundary_is_strict():
    # exactly half unobserved survives at sigma_reliable = 0.5; more does not
    tracks = make_tracks(np.zeros((2, 4, 3)), valid=[[True, True, False, False], [True, False, False, False]])
    assert list(filter_unreliable(tracks, FilterConfig(sigma_reliable=0.5))) == [True, False]


def test_outlier_gate_hand_fixture():
    keep = filter_outliers(np.array([1.0, 1.0, 1.0, 1.0, 100.0]), FilterConfig(outlier_k=3.0))
    assert list(keep) == [True, True, True, True, False]


def test_outlier_missing_residual_removed():
    residuals = np.array([1.0, 1.1, 0.9, 1.0, np.nan])  # track 4 has no pairs
    keep = filter_outliers(residuals, FilterConfig(outlier_k=3.0))
    assert list(keep) == [True, True, True, True, False]


def test_outlier_insufficient_survivors_raises():
    with pytest.raises(InsufficientTracksError):
        filter_outliers(np.array([1.0, 1.0, 1.0, 50.0]), FilterConfig(outlier_k=3.0))


def test_outlier_no_residuals_raises():
    with pytest.raises(InsufficientTracksError):
        filter_outliers(np.full(4, np.nan), FilterConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(static_mode="pixels")
    with pytest.raises(ValueError, match=r"^filter\.static_mode must be 'world3d', got 'image2d': motion is "
                                         r"scored on world positions"):
        FilterConfig(static_mode="image2d")
    with pytest.raises(ValueError):
        FilterConfig(sigma_reliable=1.5)
    with pytest.raises(ValueError):
        FilterConfig(outlier_k=-1.0)


# ---------------------------------------------------------------------------
# keep masks over generated inputs


@st.composite
def filter_inputs(draw):
    n = draw(st.integers(1, 10))
    T = draw(st.integers(1, 6))
    coords = st.floats(-5.0, 5.0, allow_subnormal=False)
    tracks = make_tracks(draw(hnp.arrays(float, (n, T, 3), elements=coords)),
                         valid=draw(hnp.arrays(bool, (n, T))))
    residuals = draw(hnp.arrays(float, n, elements=st.just(np.nan) | st.floats(0.0, 1.0)))
    cfg = FilterConfig(sigma_reliable=draw(st.floats(0.0, 1.0)),
                       outlier_k=draw(st.floats(0.0, 5.0)))
    return tracks, residuals, cfg, draw(st.permutations(range(n)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(inputs=filter_inputs())
def test_filters_partition_their_input(inputs):
    tracks, residuals, cfg, order = inputs
    n = len(tracks)
    static = filter_static(tracks, cfg)
    for keep in (static, filter_unreliable(tracks, cfg)):
        assert keep.dtype == bool and keep.shape == (n,)

    # the static filter keeps at least one track, every kept score above
    # every removed one; permuting the tracks permutes the mask, and copies
    # of one track, all scored alike, are all kept
    scores = motion_score(tracks)
    assert static.any()
    if not static.all():
        assert scores[static].min() > scores[~static].max()
    assert np.array_equal(filter_static(tracks.take(order), cfg), static[order])
    assert filter_static(tracks.take([order[0]] * n), cfg).all()

    try:
        keep = filter_outliers(residuals, cfg)
    except InsufficientTracksError:
        pass  # fewer than four survivors: nothing is returned
    else:
        assert keep.dtype == bool and keep.shape == (n,)
        vals = residuals[~np.isnan(residuals)]
        med = np.median(vals)
        bound = med + cfg.outlier_k * max(np.median(np.abs(vals - med)), MAD_FLOOR)
        assert np.array_equal(keep, np.isfinite(residuals) & (residuals <= bound))

    # stage_filter: its counts plus the rows it keeps are all the tracks,
    # here lifted from pixels at the world x and y by unit intrinsics and
    # identity camera poses
    T = tracks.world.shape[1]
    ts = TrackSet(CameraIntrinsics(1.0, 1.0, 0.0, 0.0),
                  suite_util.still_camera(T), np.zeros(T, dtype=bool),
                  [Track(i, tracks.world[i, :, :2], tracks.world[i, :, 2], tracks.valid[i]) for i in range(n)])
    try:
        kept, counts = stage_filter(ts, Segment(0, T - 1), PipelineConfig(filter=cfg))
    except InsufficientTracksError:
        return  # every track removed
    assert counts["static"] + counts["unreliable"] + len(kept) == n
    assert list(kept.id) == sorted(kept.id)
