"""Scene specs for the benchmark's workloads.

Every workload uses the acceptance suite's noise model (5 mm 3-D noise,
20 % occlusion, 5 % invalid depth). The benchmark builds the specs and keeps
its own record of each scripted interaction (type, axis, frame window); the
program only ever sees the generated recordings.

The interactions the estimator sees are fixed per workload, noise draw
included; the workload seed draws everything else (the order of recordings
and of interactions, where an interaction sits, the frames around it). Two
measurements on this code are why: with other noise draws the regularized
fit's gauge fault ends a varying number of prismatic fits
``non_converged`` (3 to 5 of the suite's 25 prismatic scenes, depending on
the draw), and the error medians over random halves of the suite spread by
15 % (angle) and 47 % (line distance) between halves. Fixed interactions
keep the failed share and the accuracy metrics exact from seed to seed.

A recording is one or more synthesized blocks played back to back. Every
block has the same track count, so track ``k`` of the recording is track
``k`` of each block. An interaction's window is its block's hand window
shifted by the frames of the blocks before it; blocks without an
interaction carry no hand signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from artikit import synth
from artikit.artmodel import ClassifierConfig
from artikit.pipeline import PipelineConfig
from artikit.smoother import SmootherConfig
from artikit.trackfilter import FilterConfig
from artikit.trackio import Track, TrackSet

DEFAULT_SEED = 0
NOISE = {"noise_sigma": 0.005, "occlusion_rate": 0.20, "invalid_depth_rate": 0.05}

# the acceptance gate's noisy suite (tests/suite_util.py)
SUITE_FRAMES = 70
SUITE_WINDOW = (10, 55)
SUITE_SCENES = 50
SUITE_REVOLUTE = 25

LARGE_FRAMES = 600
LARGE_DYNAMIC = 420
LARGE_STATIC = 180
LARGE_BLOCK = 80  # frames of the block holding the interaction
LARGE_WINDOW = (10, 69)

# every sixth gate scene from scene 2: revolute 2, 8, 14, 20 and prismatic
# 26, 32, 38, 44. None of them is one of the four scenes the gauge fault
# fails (37, 45, 48, 49); suite-noisy measures those.
MULTISEG_SCENES = (2, 8, 14, 20, 26, 32, 38, 44)

@dataclass(frozen=True)
class Interaction:
    """One scripted joint as the benchmark specified it, in recording frames."""

    joint_type: str
    axis_dir: np.ndarray  # unit
    axis_point: np.ndarray | None  # revolute only
    window: tuple  # (start, end) inclusive


@dataclass
class Block:
    config: synth.SynthConfig
    interaction: Interaction | None  # None: no hand signal in this block


@dataclass
class Recording:
    label: str
    blocks: list  # Block, played back to back
    pipeline: PipelineConfig

    @property
    def interactions(self) -> list:
        """Every scripted interaction, its window in recording frames."""
        out, offset = [], 0
        for b in self.blocks:
            if b.interaction is not None:
                s, e = b.interaction.window
                out.append(Interaction(b.interaction.joint_type, b.interaction.axis_dir,
                                       b.interaction.axis_point, (s + offset, e + offset)))
            offset += b.config.frame_count
        return out


def pipeline_config(jobs: int) -> PipelineConfig:
    """The suite's estimation settings: 3-D motion scores (the camera
    moves) and a classifier gate below the smallest scripted rotation."""
    return PipelineConfig(
        filter=FilterConfig(static_mode="world3d"),
        smoother=SmootherConfig(),
        classifier=ClassifierConfig(theta_rot_min=0.05),
        jobs=jobs,
    )


def _block(seed, joint_type, axis_dir, axis_point, profile, window, camera_target,
           start_deg, sweep_deg, n_dynamic, n_static) -> Block:
    """A SynthConfig plus the benchmark's own record of its interaction.

    ``window`` None makes a block without an interaction.
    """
    axis_dir = np.asarray(axis_dir, dtype=float)
    axis_dir = axis_dir / np.linalg.norm(axis_dir)
    frames = len(profile)
    cfg = synth.SynthConfig(
        seed=int(seed),
        joint=synth.JointSpec(joint_type, axis_dir, profile, axis_point),
        camera_path=synth.arc_camera_path(
            frames, camera_target, start_deg=start_deg, sweep_deg=sweep_deg
        ),
        hand_window=window,
        n_dynamic=n_dynamic,
        n_static=n_static,
        **NOISE,
    )
    if window is None:
        return Block(cfg, None)
    point = None if axis_point is None else np.array(axis_point, dtype=float)
    return Block(cfg, Interaction(joint_type, axis_dir, point, tuple(window)))


# ---------------------------------------------------------------------------
# suite-noisy: every other scene of each type from the gate's noisy suite

# revolute 0, 2, ..., 24 (5 to 60 degrees) and prismatic 25, 27, ..., 49
# (2 to 40 cm): both magnitude ranges, end points included, at half the
# density, so that a run fits the benchmark's time budget (all 50 scenes
# take about 60 s)
SUITE_ROUND = tuple(range(0, SUITE_REVOLUTE, 2)) + tuple(range(SUITE_REVOLUTE, SUITE_SCENES, 2))


def suite_scene(i: int) -> Block:
    """Scene ``i`` of the gate's noisy suite, noise draw included.

    Axis directions on a Fibonacci sphere, 25 revolute scenes sweeping
    5..60 degrees, 25 prismatic sweeping 2..40 cm, an arc camera per scene.
    """
    axis_dir = synth.fibonacci_sphere(SUITE_SCENES)[i]
    layout = np.random.default_rng(9000 + i)
    if i < SUITE_REVOLUTE:
        magnitude = float(np.deg2rad(np.linspace(5.0, 60.0, SUITE_REVOLUTE))[i])
        axis_point = np.array([0.4, -0.2, 1.0]) + layout.uniform(-0.15, 0.15, 3)
        joint_type, target = "revolute", axis_point
    else:
        magnitude = float(np.linspace(0.02, 0.40, SUITE_REVOLUTE)[i - SUITE_REVOLUTE])
        axis_point = None
        joint_type, target = "prismatic", np.array([0.0, 0.0, 1.2])
    profile = synth.ramp_profile(SUITE_FRAMES, SUITE_WINDOW, magnitude)
    return _block(1000 + i, joint_type, axis_dir, axis_point, profile, SUITE_WINDOW,
                  target, 180.0 + 7.0 * i, 25.0, 48, 20)


def suite_round(seed: int, k: int) -> list:
    """The SUITE_ROUND scenes, one recording each; the seed orders them (the
    default seed keeps the gate's order)."""
    order = SUITE_ROUND
    if seed != DEFAULT_SEED:
        order = np.random.default_rng([seed, 1, k]).permutation(SUITE_ROUND)
    return [Recording(f"suite-{int(i)}", [suite_scene(int(i))], pipeline_config(jobs=1))
            for i in order]


# ---------------------------------------------------------------------------
# recording-large: 600 tracks x 600 frames, one revolute interaction

LARGE_AXIS_DIR = (0.36, 0.48, 0.8)
LARGE_AXIS_POINT = (0.4, -0.2, 1.0)
LARGE_MAGNITUDE = float(np.deg2rad(40.0))


def _large_block(seed, profile, window, start_deg) -> Block:
    return _block(seed, "revolute", LARGE_AXIS_DIR, np.array(LARGE_AXIS_POINT), profile,
                  window, np.array(LARGE_AXIS_POINT), start_deg, 0.1 * len(profile),
                  LARGE_DYNAMIC, LARGE_STATIC)


def large_round(seed: int, k: int) -> list:
    """One recording: the fixed interaction block at a seeded position, the
    part at rest before (closed) and after it (open) in seeded frames."""
    rng = np.random.default_rng([seed, 2, k])
    before = int(rng.integers(200, 331))
    after = LARGE_FRAMES - LARGE_BLOCK - before
    pad_seeds = rng.integers(2**31, size=2)
    blocks = [
        _large_block(pad_seeds[0], np.zeros(before), None, float(rng.uniform(0, 360))),
        _large_block(600, synth.ramp_profile(LARGE_BLOCK, LARGE_WINDOW, LARGE_MAGNITUDE),
                     LARGE_WINDOW, 200.0),
        _large_block(pad_seeds[1], np.full(after, LARGE_MAGNITUDE), None,
                     float(rng.uniform(0, 360))),
    ]
    return [Recording(f"large-{seed}-{k}", blocks, pipeline_config(jobs=1))]


# ---------------------------------------------------------------------------
# scene-multiseg: eight gate scenes back to back, default worker count


def multiseg_round(seed: int, k: int) -> list:
    """One recording of eight interactions; the seed orders them."""
    order = np.random.default_rng([seed, 3, k]).permutation(MULTISEG_SCENES)
    blocks = [suite_scene(int(i)) for i in order]
    return [Recording(f"multiseg-{seed}-{k}", blocks, pipeline_config(jobs=0))]


def warmup_recording() -> Recording:
    """A small revolute scene that takes every stage once, before timing."""
    point = np.array([0.4, -0.2, 1.0])
    block = _block(7, "revolute", (0.0, 0.0, 1.0), point, synth.ramp_profile(40, (5, 34), 0.5),
                   (5, 34), point, 200.0, 20.0, 24, 8)
    return Recording("warm-up", [block], pipeline_config(jobs=1))


ROUNDS = {
    "suite-noisy": suite_round,
    "recording-large": large_round,
    "scene-multiseg": multiseg_round,
}


# ---------------------------------------------------------------------------
# synthesis of a whole recording


def synthesize(rec: Recording) -> tuple:
    """Generate every block and play them back to back.

    Returns the TrackSet and the ground-truth joints with their windows in
    recording frames, as ``synth.generate`` reports them for one block.
    """
    parts = [synth.generate(b.config) for b in rec.blocks]
    if len(parts) == 1:
        return parts[0]
    sets = [ts for ts, _ in parts]
    for b, ts in zip(rec.blocks, sets):
        if b.interaction is None:
            ts.hand[:] = False
    tracks = [
        Track(
            k,
            np.concatenate([ts.tracks[k].uv for ts in sets]),
            np.concatenate([ts.tracks[k].depth for ts in sets]),
            np.concatenate([ts.tracks[k].vis for ts in sets]),
        )
        for k in range(len(sets[0].tracks))
    ]
    ts = TrackSet(
        intrinsics=sets[0].intrinsics,
        cam_poses=[p for s in sets for p in s.cam_poses],
        hand=np.concatenate([s.hand for s in sets]),
        tracks=tracks,
    )
    gt, offset = [], 0
    for b, (block_ts, block_gt) in zip(rec.blocks, parts):
        if b.interaction is not None:
            for j in block_gt:
                s, e = j.segment
                gt.append(synth.GroundTruthJoint((s + offset, e + offset), j.joint_type,
                                                 j.axis_dir, j.axis_point))
        offset += block_ts.frame_count
    return ts, gt
