"""Scene specs: the gate's suite, frame offsets of multi-interaction recordings."""

import sys
from pathlib import Path

import numpy as np
import pytest

import workloads as W

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tests"))
import suite_util  # noqa: E402


@pytest.mark.parametrize("i", range(W.SUITE_SCENES))
def test_suite_scene_is_the_gates(i):
    ours = W.suite_scene(i)
    gate = suite_util.scene_config(i, noisy=True)
    cfg = ours.config
    assert cfg.seed == gate.seed
    assert cfg.joint.joint_type == gate.joint.joint_type
    np.testing.assert_array_equal(cfg.joint.axis_dir, gate.joint.axis_dir)
    np.testing.assert_array_equal(cfg.joint.motion_profile, gate.joint.motion_profile)
    if gate.joint.axis_point is None:
        assert cfg.joint.axis_point is None
    else:
        np.testing.assert_array_equal(cfg.joint.axis_point, gate.joint.axis_point)
    for a, b in zip(cfg.camera_path, gate.camera_path, strict=True):
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.t, b.t)
    for name in ("hand_window", "n_dynamic", "n_static", "noise_sigma", "occlusion_rate",
                 "invalid_depth_rate"):
        assert getattr(cfg, name) == getattr(gate, name), name
    inter = ours.interaction
    assert inter.window == gate.hand_window
    assert inter.joint_type == gate.joint.joint_type


def test_seed_orders_the_suite_round_only():
    default = [r.label for r in W.suite_round(W.DEFAULT_SEED, 0)]
    assert default == [f"suite-{i}" for i in W.SUITE_ROUND]
    for seed in (1, 2, 99):
        labels = [r.label for r in W.suite_round(seed, 0)]
        assert sorted(labels) == sorted(default)
        assert labels == [r.label for r in W.suite_round(seed, 0)]
    assert [r.label for r in W.suite_round(1, 0)] != default


def test_multiseg_windows_are_offset_by_the_blocks_before():
    rec = W.multiseg_round(5, 0)[0]
    frames = [b.config.frame_count for b in rec.blocks]
    starts = np.concatenate([[0], np.cumsum(frames)[:-1]])
    assert len(rec.interactions) == len(W.MULTISEG_SCENES) == 8
    for inter, block, start in zip(rec.interactions, rec.blocks, starts, strict=True):
        s, e = block.config.hand_window
        assert inter.window == (start + s, start + e)
        np.testing.assert_array_equal(inter.axis_dir, block.interaction.axis_dir)

    ts, gt = W.synthesize(rec)
    assert ts.frame_count == sum(frames)
    assert [j.segment for j in gt] == [i.window for i in rec.interactions]
    assert [j.joint_type for j in gt] == [i.joint_type for i in rec.interactions]
    hand = np.zeros(ts.frame_count, dtype=bool)
    for s, e in (i.window for i in rec.interactions):
        hand[s : e + 1] = True
    np.testing.assert_array_equal(ts.hand, hand)
    # track k of the recording is track k of every block
    block_ts, _ = W.synth.generate(rec.blocks[3].config)
    sl = slice(int(starts[3]), int(starts[3]) + frames[3])
    for k in (0, 30, 67):
        np.testing.assert_array_equal(ts.tracks[k].uv[sl], block_ts.tracks[k].uv)
        np.testing.assert_array_equal(ts.tracks[k].depth[sl], block_ts.tracks[k].depth)


def test_large_recording_places_one_fixed_interaction():
    windows = set()
    for seed in (0, 1, 2):
        rec = W.large_round(seed, 0)[0]
        assert sum(b.config.frame_count for b in rec.blocks) == W.LARGE_FRAMES
        assert [b.interaction is not None for b in rec.blocks] == [False, True, False]
        assert all(b.config.n_dynamic + b.config.n_static == 600 for b in rec.blocks)
        (inter,) = rec.interactions
        before = rec.blocks[0].config.frame_count
        assert inter.window == (before + W.LARGE_WINDOW[0], before + W.LARGE_WINDOW[1])
        assert rec.blocks[1].config.seed == 600
        windows.add(inter.window)
    assert len(windows) == 3


def test_round_composition_does_not_depend_on_the_seed():
    for name, make in W.ROUNDS.items():
        sizes = {len(make(seed, k)) for seed in (0, 1, 7) for k in (0, 1)}
        assert len(sizes) == 1, name
