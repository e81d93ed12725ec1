"""End-to-end pipeline: config layering, staging files, failure isolation."""

import json
import math
import threading

import numpy as np
import pytest

import suite_util
from artikit import pipeline, trajest
from artikit.artmodel import ClassifierConfig
from artikit.errors import IllPosedError, TrackFileError
from artikit.evalkit import axis_distance
from artikit.pipeline import (
    PipelineConfig,
    effective_config,
    export_ply,
    extract_hand_segments,
    load_segment_data,
    process_segment,
    run_pipeline,
    save_segment_data,
    stage_filter,
    stage_smooth,
)
from artikit.segmenter import Segment, SegmenterConfig
from artikit.smoother import SmootherConfig
from artikit.synth import JointSpec, SynthConfig, generate
from artikit.trackfilter import FilterConfig
from artikit.trajest import register_steps


AXIS_DIR = np.array([0.0, 0.0, 1.0])
AXIS_POINT = np.array([0.4, 0.0, 1.0])


def two_block_recording():
    """100 frames, motion ramping inside hand block A only.

    Block B waves the hand over a part that is no longer moving, which must
    fail estimation without taking block A down with it.
    """
    T = 100
    profile = np.zeros(T)
    ramp = np.linspace(0.0, 0.5, 31)
    profile[10:41] = ramp
    profile[41:] = 0.5
    cfg = SynthConfig(
        seed=21,
        joint=JointSpec("revolute", AXIS_DIR, profile, axis_point=AXIS_POINT),
        camera_path=suite_util.still_camera(T),
        n_dynamic=15,
        n_static=8,
    )
    ts, _ = generate(cfg)
    hand = np.zeros(T, dtype=bool)
    hand[10:41] = True
    hand[60:91] = True
    ts.hand = hand
    return ts


def quiet_pipeline_config(**kw):
    base = dict(
        filter=FilterConfig(static_mode="world3d"),
        smoother=SmootherConfig(lambda_vel=0.0, lambda_jerk=0.0),
        classifier=ClassifierConfig(theta_rot_min=0.05),
        jobs=1,
    )
    base.update(kw)
    return PipelineConfig(**base)


# ---------------------------------------------------------------------------
# configuration layering


def test_effective_config_precedence():
    file_doc = {"stride": 3, "filter": {"sigma_reliable": 0.6}}
    cfg = effective_config(file_doc, {"filter.sigma_reliable": 0.7, "mode": None})
    assert cfg.stride == 3  # file value survives when no flag overrides it
    assert cfg.filter.sigma_reliable == 0.7  # flag beats file
    assert cfg.mode == "regularized"  # None means "flag not given"
    assert cfg.segmenter.w_h == 6


def test_effective_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        effective_config({"sigma_reliable": 0.6}, {})  # section name missing
    with pytest.raises(ValueError, match="unknown config key 'seed'"):
        effective_config({"seed": 3}, {})  # synthesis takes the seed, not the pipeline
    # a key inside a section is named with its section; a config written for
    # the removed rank split (filter.sigma_static) fails the same way
    for leaf in ("sigma_statik", "sigma_static"):
        with pytest.raises(ValueError) as ei:
            effective_config({"filter": {"outlier_k": 2.0, leaf: 50}}, {})
        assert str(ei.value) == f"bad configuration: unknown config key 'filter.{leaf}'"
    with pytest.raises(ValueError):
        effective_config(None, {"mode": "fancy"})


NAN_CHECKED_FIELDS = [
    "classifier.theta_rot_min",
    "classifier.trans_min",
    "max_depth",
    "smoother.lambda_vel",
    "smoother.lambda_jerk",
    "filter.outlier_k",
]


@pytest.mark.parametrize("dotted", NAN_CHECKED_FIELDS)
def test_effective_config_rejects_nan_and_keeps_infinity(dotted):
    # NaN fails every comparison, so a check written as "x < 0" lets it through
    section, _, leaf = dotted.rpartition(".")
    file_text = f'{{"{section}": {{"{leaf}": NaN}}}}' if section else f'{{"{leaf}": NaN}}'
    with pytest.raises(ValueError, match="bad configuration"):
        effective_config(None, {dotted: math.nan})
    with pytest.raises(ValueError, match="bad configuration"):
        effective_config(json.loads(file_text), {})
    cfg = effective_config(None, {dotted: math.inf})
    assert getattr(getattr(cfg, section) if section else cfg, leaf) == math.inf


INTEGER_FIELDS = ["stride", "jobs", "segmenter.w_h", "segmenter.t_min", "segmenter.t_max"]


@pytest.mark.parametrize("text", ["NaN", "2.5", "true"])
@pytest.mark.parametrize("dotted", INTEGER_FIELDS)
def test_effective_config_rejects_non_integer_counts(dotted, text):
    # NaN passes "x < 1", 2.5 truncates to uneven keyframes, true is an int subclass
    section, _, leaf = dotted.rpartition(".")
    file_text = f'{{"{section}": {{"{leaf}": {text}}}}}' if section else f'{{"{leaf}": {text}}}'
    value = json.loads(text)
    with pytest.raises(ValueError, match=f"bad configuration: {leaf} must be an integer"):
        effective_config(None, {dotted: value})
    with pytest.raises(ValueError, match=f"bad configuration: {leaf} must be an integer"):
        effective_config(json.loads(file_text), {})


@pytest.mark.parametrize("dotted", INTEGER_FIELDS)
def test_effective_config_accepts_numpy_integers(dotted):
    cfg = effective_config(None, {dotted: np.int64(40)})
    section, _, leaf = dotted.rpartition(".")
    assert getattr(getattr(cfg, section) if section else cfg, leaf) == 40


def test_config_dict_round_trip():
    cfg = quiet_pipeline_config(stride=4, mode="independent")
    back = PipelineConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


# ---------------------------------------------------------------------------
# hand segmentation on a track set


def test_extract_hand_segments_shifts_by_window():
    ts = two_block_recording()
    segs = extract_hand_segments(ts, SegmenterConfig())
    assert [(s.start, s.end) for s in segs] == [(12, 43), (62, 93)]


# ---------------------------------------------------------------------------
# full runs


def test_noiseless_run_recovers_hinge():
    ts = two_block_recording()
    hand = np.zeros(100, dtype=bool)
    hand[10:41] = True  # only the moving block this time
    ts.hand = hand
    doc = run_pipeline(ts, quiet_pipeline_config())
    assert doc["version"] == 1
    assert doc["skipped"] == []
    assert len(doc["results"]) == 1
    rec = doc["results"][0]
    assert rec["segment"] == {"start": 12, "end": 43}
    assert rec["type"] == "revolute"
    got_dir = np.asarray(rec["axis_dir"])
    assert abs(abs(float(got_dir @ AXIS_DIR)) - 1.0) < 1e-7
    assert axis_distance(rec["axis_point"], got_dir, AXIS_POINT, AXIS_DIR) < 1e-7
    assert rec["rms"] < 1e-7
    traj = rec["trajectory"]
    assert traj["mode"] == "regularized"
    assert traj["stride"] == 2
    assert traj["keyframes"][0] == 0
    assert len(traj["world_poses"]) == len(traj["keyframes"])
    assert set(rec["filter_counts"]) == {"static", "unreliable", "unsmoothable", "outliers"}
    assert rec["filter_counts"]["static"] > 0  # background points were dropped


def test_failed_segment_does_not_poison_the_run():
    ts = two_block_recording()
    doc = run_pipeline(ts, quiet_pipeline_config())
    assert len(doc["results"]) == 1
    assert doc["results"][0]["segment"] == {"start": 12, "end": 43}
    assert len(doc["skipped"]) == 1
    skip = doc["skipped"][0]
    assert skip["segment"] == {"start": 62, "end": 93}
    assert skip["stage"] == "estimate"
    assert skip["error"]["type"] == "InsufficientMotionError"
    assert skip["error"]["message"]


def edge_recording(case: str):
    """two_block_recording with all its tracks, or its depths, made degenerate."""
    ts = two_block_recording()
    if case == "no tracks":
        ts.tracks = []
    elif case == "one track":
        ts.tracks = ts.tracks[:1]
    elif case == "all static":
        ts.tracks = ts.tracks[15:]  # the background points
    elif case == "gaps":
        for tr in ts.tracks:
            tr.vis[20] = False  # unobserved in the first window: zero smoothing weights cannot fill it
    else:
        for tr in ts.tracks:
            tr.depth[:] = np.nan if case == "NaN depth" else 0.0
    return ts


NO_MOTION = {
    "regularized": "peak point displacement 0.000e+00 m is below 1e-06 m",
    "independent": "all poses within 1e-06 of identity; no articulation to fit",
}
FILTERED_OUT = ("filter", "InsufficientTracksError", "all 23 tracks removed by static/reliability filtering")


@pytest.mark.parametrize("mode", ["regularized", "independent"])
@pytest.mark.parametrize("case", ["no tracks", "one track", "all static", "NaN depth", "zero depth", "gaps"])
def test_degenerate_segments_end_in_skip_records(case, mode):
    expected = {
        "no tracks": [("filter", "InsufficientTracksError", "segment has no tracks")] * 2,
        "one track": [("estimate", "DegenerateStepError",
                       "step 0 (frames 0->2) has 1 pairs; need at least 3")] * 2,
        "all static": [("estimate", "InsufficientMotionError", NO_MOTION[mode])] * 2,
        "NaN depth": [FILTERED_OUT] * 2,
        "zero depth": [FILTERED_OUT] * 2,
        "gaps": [("smooth", "IllPosedError", "no track in the segment could be smoothed"),
                 ("estimate", "InsufficientMotionError", NO_MOTION[mode])],
    }[case]
    doc = run_pipeline(edge_recording(case), quiet_pipeline_config(mode=mode))
    assert doc["results"] == []
    got = [(r["stage"], r["error"]["type"], r["error"]["message"]) for r in doc["skipped"]]
    assert got == expected


@pytest.mark.parametrize("mode", ["regularized", "independent"])
@pytest.mark.parametrize("scene, dropped", [(17, 0), (0, 2)])
def test_each_step_is_registered_once_unless_the_gate_drops_tracks(monkeypatch, mode, scene, dropped):
    """The outlier gate's registration serves the fit (in regularized mode
    the revolute fit's seed) when no track is dropped; the kept tracks are
    registered again only when some are."""
    calls = []

    def spy(corr):
        calls.append(corr.step_count)
        return register_steps(corr)

    monkeypatch.setattr(trajest, "register_steps", spy)
    monkeypatch.setattr(pipeline, "register_steps", spy)
    ts, _ = generate(suite_util.scene_config(scene, noisy=True))
    (rec,) = run_pipeline(ts, suite_util.pipeline_config(True, mode))["results"]
    assert rec["type"] == "revolute"  # in regularized mode, the revolute fit ran
    assert rec["filter_counts"]["outliers"] == dropped
    assert calls == [len(rec["trajectory"]["keyframes"]) - 1] * (2 if dropped else 1)


@pytest.mark.parametrize("scene", [1, 5, 7, 10, 14])
def test_default_config_types_noisy_suite_scenes_under_camera_motion(scene):
    """Noisy revolute scenes that motion scored on pixels typed prismatic,
    without a flag: the default config scores motion in the world frame."""
    ts, gt = generate(suite_util.scene_config(scene, noisy=True))
    doc = run_pipeline(ts, PipelineConfig())
    assert doc["skipped"] == []
    assert [r["type"] for r in doc["results"]] == [gt[0].joint_type] == ["revolute"]


def test_results_doc_keeps_segment_order():
    ts = two_block_recording()
    cfg = quiet_pipeline_config()
    records = [process_segment(ts, seg, cfg) for seg in extract_hand_segments(ts, cfg.segmenter)]
    skip = pipeline.skip_record(Segment(0, 5), "filter", TrackFileError("x"))
    doc = pipeline.results_doc([records[1], skip, records[0]])
    assert doc == {"version": 1, "results": [records[0]], "skipped": [skip, records[1]]}
    assert doc == pipeline.results_doc([skip, *records])


def test_parallel_run_matches_serial():
    ts = two_block_recording()
    serial = run_pipeline(ts, quiet_pipeline_config(jobs=1))
    parallel = run_pipeline(ts, quiet_pipeline_config(jobs=4))
    assert serial == parallel


def test_segments_run_in_order_on_calling_thread(monkeypatch):
    ts = two_block_recording()
    calls = []
    original = pipeline.process_segment

    def recording(ts_, seg, cfg):
        calls.append((threading.get_ident(), seg))
        return original(ts_, seg, cfg)

    monkeypatch.setattr(pipeline, "process_segment", recording)
    docs = [run_pipeline(ts, quiet_pipeline_config(jobs=j)) for j in (0, 4)]
    segs = extract_hand_segments(ts, SegmenterConfig())
    assert len(segs) == 2
    assert calls == [(threading.get_ident(), s) for s in segs * 2]
    assert docs[0] == docs[1]


def test_empty_hand_signal_gives_empty_results():
    ts = two_block_recording()
    ts.hand = np.zeros(100, dtype=bool)
    doc = run_pipeline(ts, quiet_pipeline_config())
    assert doc == {"version": 1, "results": [], "skipped": []}


def test_independent_mode_records_no_twist_fit_flags():
    ts = two_block_recording()
    hand = np.zeros(100, dtype=bool)
    hand[10:41] = True
    ts.hand = hand
    doc = run_pipeline(ts, quiet_pipeline_config(mode="independent"))
    rec = doc["results"][0]
    assert rec["trajectory"]["mode"] == "independent"
    assert rec["type"] == "revolute"  # classification still runs on the poses


def test_process_segment_returns_skip_record_on_garbage_window():
    ts = two_block_recording()
    # a window with almost no static-part motion
    rec = process_segment(ts, Segment(60, 93), quiet_pipeline_config())
    assert "error" in rec and rec["stage"] in ("filter", "estimate")


# ---------------------------------------------------------------------------
# stage intermediate files


def test_segment_data_round_trip(tmp_path):
    ts = two_block_recording()
    cfg = quiet_pipeline_config()
    seg = Segment(12, 43)
    tracks, counts = stage_filter(ts, seg, cfg)
    # punch a hole so the null encoding for unobserved rows is exercised
    tracks.world[0, 5] = np.nan
    tracks.valid[0, 5] = False
    path = tmp_path / "seg.json"
    save_segment_data(path, "filter", [(seg, tracks, counts)], skipped=[])
    entries, skipped = load_segment_data(path)
    assert skipped == []
    (seg2, tracks2, counts2) = entries[0]
    assert (seg2.start, seg2.end) == (12, 43)
    assert counts2 == counts
    assert len(tracks2) == len(tracks)
    assert np.array_equal(tracks2.id, tracks.id)
    assert np.array_equal(tracks2.valid, tracks.valid)
    assert np.array_equal(tracks2.world, tracks.world, equal_nan=True)


def test_segment_data_without_tracks_loads_an_empty_stack(tmp_path):
    path = tmp_path / "seg.json"
    path.write_text(json.dumps({"version": 1, "stage": "filter", "skipped": [], "segments": [
        {"segment": {"start": 0, "end": 2}, "filter_counts": {}, "tracks": []}]}))
    (seg, tracks, counts), = load_segment_data(path)[0]
    assert len(tracks) == 0
    assert (tracks.id.shape, tracks.world.shape, tracks.valid.shape) == ((0,), (0, 3, 3), (0, 3))
    with pytest.raises(IllPosedError):
        stage_smooth(tracks, PipelineConfig(), counts)
    assert counts == {"unsmoothable": 0}


def test_segment_data_rejects_wrong_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 2, "segments": []}')
    with pytest.raises(TrackFileError):
        load_segment_data(path)
    path.write_text('{"version": 1, "segments": [{"segment": {"start": 0}}]}')
    with pytest.raises(TrackFileError):
        load_segment_data(path)


# ---------------------------------------------------------------------------
# mesh export


def test_export_ply_writes_axis_and_trail(tmp_path):
    doc = {
        "results": [
            {
                "segment": {"start": 12, "end": 43},
                "type": "revolute",
                "axis_dir": [0.0, 0.0, 1.0],
                "axis_point": [0.4, 0.0, 1.0],
                "trajectory": {
                    "world_poses": [
                        {"q": [1.0, 0.0, 0.0, 0.0], "t": [0.1 * k, 0.0, 1.0]}
                        for k in range(5)
                    ]
                },
            },
            {
                "segment": {"start": 62, "end": 93},
                "type": "prismatic",
                "axis_dir": [1.0, 0.0, 0.0],
                "axis_point": None,
                "trajectory": {
                    "world_poses": [{"q": [1.0, 0.0, 0.0, 0.0], "t": [0.0, 0.2, 1.1]}]
                },
            },
        ]
    }
    paths = export_ply(tmp_path, doc)
    assert [p.name for p in paths] == ["segment_00012_00043.ply", "segment_00062_00093.ply"]

    text = paths[0].read_text().splitlines()
    assert text[0] == "ply" and text[1] == "format ascii 1.0"
    n_vertex = int(next(l for l in text if l.startswith("element vertex")).split()[-1])
    assert n_vertex == 2 + 5
    body = text[text.index("end_header") + 1 :]
    verts = np.array([[float(x) for x in l.split()] for l in body[:n_vertex]])
    assert np.allclose(verts[0], [0.4, 0.0, 0.0])  # axis endpoints 1 m out
    assert np.allclose(verts[1], [0.4, 0.0, 2.0])
    assert body[n_vertex] == "0 1"

    # prismatic: the line is centered on the first trail position
    text2 = paths[1].read_text().splitlines()
    body2 = text2[text2.index("end_header") + 1 :]
    assert np.allclose([float(x) for x in body2[0].split()], [-1.0, 0.2, 1.1])
    assert np.allclose([float(x) for x in body2[1].split()], [1.0, 0.2, 1.1])
