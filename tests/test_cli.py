"""Command-line driver, exercised in process through main() and, for the
locale, in a fresh interpreter."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from artikit import cli
from artikit.cli import _overrides, build_parser, main
from artikit.jsonio import load_json
from artikit.lie import RigidTransform
from artikit.pipeline import PipelineConfig, effective_config
from artikit.synth import JointSpec, SynthConfig, generate
from artikit.trackio import load_trackset, save_trackset

ROOT = Path(__file__).resolve().parents[1]


def scene_doc(**overrides):
    doc = {
        "seed": 5,
        "frames": 50,
        "joint": {
            "type": "revolute",
            "axis_dir": [0.0, 0.0, 1.0],
            "axis_point": [0.4, -0.2, 1.0],
            "motion": {"kind": "ramp", "magnitude": 0.6},
        },
        "hand_window": [8, 40],
        "camera": {"kind": "arc"},
        "n_dynamic": 14,
        "n_static": 7,
        "noise_sigma": 0.0,
    }
    doc.update(overrides)
    return doc


def pipeline_cfg():
    return {
        "filter": {"static_mode": "world3d"},
        "smoother": {"lambda_vel": 0.0, "lambda_jerk": 0.0},
        "classifier": {"theta_rot_min": 0.05},
        "jobs": 1,
    }


@pytest.fixture
def workdir(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(scene_doc()))
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps(pipeline_cfg()))
    assert main(["synth", "--config", str(scene),
                 "--out-tracks", str(tmp_path / "tracks.json"),
                 "--out-gt", str(tmp_path / "gt.json")]) == 0
    return tmp_path


def run_and_stage(workdir, tracks: str) -> tuple:
    """Results of ``run`` and of the four stage commands on one track file."""
    c = str(workdir / "pipeline.json")
    assert main(["run", "--tracks", tracks, "--out", str(workdir / "run.json"), "--config", c]) == 0
    steps = [
        ["segment", "--tracks", tracks, "--out", str(workdir / "segments.json")],
        ["filter", "--tracks", tracks, "--segments", str(workdir / "segments.json"),
         "--out", str(workdir / "filtered.json")],
        ["smooth", "--segdata", str(workdir / "filtered.json"), "--out", str(workdir / "smoothed.json")],
        ["estimate", "--segdata", str(workdir / "smoothed.json"), "--out", str(workdir / "staged.json")],
    ]
    for argv in steps:
        assert main(argv + ["--config", c]) == 0
    return (workdir / "run.json").read_bytes(), (workdir / "staged.json").read_bytes()


def test_run_matches_stage_composition(workdir):
    run, staged = run_and_stage(workdir, str(workdir / "tracks.json"))
    assert run == staged

    doc = load_json(workdir / "run.json")
    assert doc["version"] == 1
    assert len(doc["results"]) == 1
    assert doc["results"][0]["type"] == "revolute"


def test_stage_composition_matches_run_with_skips_at_several_stages(workdir):
    # three hand windows: the part rests in the first (skipped at estimate),
    # no track is visible in the second (skipped at filter), the third hinges
    T = 150
    profile = np.zeros(T)
    profile[110:141] = np.linspace(0.0, 0.5, 31)
    profile[141:] = 0.5
    ts, _ = generate(SynthConfig(
        seed=21,
        joint=JointSpec("revolute", np.array([0.0, 0.0, 1.0]), profile,
                        axis_point=np.array([0.4, 0.0, 1.0])),
        camera_path=[RigidTransform.identity() for _ in range(T)],
        n_dynamic=15,
        n_static=8,
    ))
    ts.hand = np.zeros(T, dtype=bool)
    ts.hand[10:41] = ts.hand[60:91] = ts.hand[110:141] = True
    for tr in ts.tracks:
        tr.vis[60:91] = False
    save_trackset(workdir / "skips.json", ts)

    run, staged = run_and_stage(workdir, str(workdir / "skips.json"))
    assert run == staged
    doc = json.loads(run)
    assert [(r["segment"]["start"], r["stage"]) for r in doc["skipped"]] == [
        (12, "estimate"), (62, "filter")]
    assert [r["segment"]["start"] for r in doc["results"]] == [112]


def config_dotted_keys() -> dict:
    """Every settable config value by dotted key, with its default."""
    out = {}
    for key, val in PipelineConfig().to_dict().items():
        if isinstance(val, dict):
            out.update({f"{key}.{leaf}": v for leaf, v in val.items()})
        else:
            out[key] = val
    return out


def test_every_tuning_flag_sets_its_config_key():
    defaults = config_dotted_keys()
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    seen = set()
    for command, parser in sub.choices.items():
        required = [x for a in parser._actions if a.required for x in (a.option_strings[0], "x")]
        assert _overrides(parser.parse_args(required)) == {}  # absent flags set nothing
        for action in parser._actions:
            if action.default is not argparse.SUPPRESS or isinstance(action, argparse._HelpAction):
                continue
            assert action.dest in defaults, f"{command} {action.option_strings[0]}"
            value = defaults[action.dest]
            args = parser.parse_args(required + [action.option_strings[0], str(value)])
            assert _overrides(args) == {action.dest: value}
            assert effective_config(None, _overrides(args)).to_dict() == PipelineConfig().to_dict()
            seen.add(action.dest)
    assert seen == set(defaults)  # every settable value has a flag


def test_worker_count_does_not_change_output(workdir):
    c = str(workdir / "pipeline.json")
    assert main(["run", "--tracks", str(workdir / "tracks.json"),
                 "--out", str(workdir / "serial.json"), "--config", c, "--jobs", "1"]) == 0
    assert main(["run", "--tracks", str(workdir / "tracks.json"),
                 "--out", str(workdir / "parallel.json"), "--config", c, "--jobs", "4"]) == 0
    assert (workdir / "serial.json").read_bytes() == (workdir / "parallel.json").read_bytes()


def test_flag_beats_config_file(workdir, capsys):
    cfg = workdir / "tweaked.json"
    cfg.write_text(json.dumps({"segmenter": {"t_min": 40}}))
    assert main(["segment", "--tracks", str(workdir / "tracks.json"),
                 "--out", str(workdir / "segs.json"),
                 "--config", str(cfg), "--tmin", "10"]) == 0
    err = capsys.readouterr().err
    echo = next(l for l in err.splitlines() if l.startswith("config: "))
    effective = json.loads(echo[len("config: "):])
    assert effective["segmenter"]["t_min"] == 10  # flag wins over the file
    assert effective["segmenter"]["w_h"] == 6  # untouched default survives


def test_synth_seed_override(workdir):
    scene = str(workdir / "scene.json")
    a, b, c = (workdir / n for n in ("a.json", "b.json", "c.json"))
    assert main(["synth", "--config", scene, "--out-tracks", str(a), "--seed", "9"]) == 0
    assert main(["synth", "--config", scene, "--out-tracks", str(b), "--seed", "9"]) == 0
    assert main(["synth", "--config", scene, "--out-tracks", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()  # scene file says seed 5


@pytest.mark.parametrize("extra", [{}, {"note": math.nan}], ids=["orjson-accepts", "orjson-refuses"])
def test_scene_seed_beyond_64_bits_is_read_exactly(tmp_path, extra):
    """A 128-bit seed, as SeedSequence().entropy gives, is not rounded to a float."""
    out = {}
    for name, seed in (("file", 2**64 + 1), ("rounded", 2**64)):
        scene = tmp_path / f"{name}.json"
        scene.write_text(json.dumps(scene_doc(seed=seed, **extra)))
        out[name] = tmp_path / f"{name}-tracks.json"
        assert main(["synth", "--config", str(scene), "--out-tracks", str(out[name])]) == 0
    out["flag"] = tmp_path / "flag-tracks.json"
    assert main(["synth", "--config", str(tmp_path / "rounded.json"), "--out-tracks", str(out["flag"]),
                 "--seed", str(2**64 + 1)]) == 0
    assert out["file"].read_bytes() == out["flag"].read_bytes()
    assert out["file"].read_bytes() != out["rounded"].read_bytes()


def test_integer_config_value_beyond_64_bits_is_read_exactly(tmp_path):
    p = tmp_path / "pipeline.json"
    p.write_text(json.dumps({"stride": 2**64, "segmenter": {"t_max": 2**70}}))
    cfg = effective_config(load_json(p), {})
    assert (cfg.stride, cfg.segmenter.t_max) == (2**64, 2**70)


def test_eval_prints_table_and_writes_report(workdir, capsys):
    c = str(workdir / "pipeline.json")
    assert main(["run", "--tracks", str(workdir / "tracks.json"),
                 "--out", str(workdir / "pred.json"), "--config", c]) == 0
    capsys.readouterr()
    assert main(["eval", "--pred", str(workdir / "pred.json"),
                 "--gt", str(workdir / "gt.json"),
                 "--out", str(workdir / "report.json")]) == 0
    out = capsys.readouterr().out
    assert "theta_err[deg]" in out
    assert "revolute" in out
    report = load_json(workdir / "report.json")
    assert report["type_accuracy"] == 1.0
    assert report["records"][0]["theta_err"] < 0.01


JOINT = {"segment": {"start": 10, "end": 40}, "type": "revolute",
         "axis_dir": [0.0, 0.0, 1.0], "axis_point": [0.4, -0.2, 1.0]}
BAD_JOINTS = {
    "missing-type": ({k: v for k, v in JOINT.items() if k != "type"}, "type"),
    "unknown-type": (dict(JOINT, type="hinge"), "type"),
    "axis-dir-string": (dict(JOINT, axis_dir="a"), "axis_dir"),
    "axis-dir-four": (dict(JOINT, axis_dir=[0.0, 0.0, 1.0, 0.0]), "axis_dir"),
    "axis-dir-zero": (dict(JOINT, axis_dir=[0.0, 0.0, 0.0]), "axis_dir"),
    "axis-dir-nan": (dict(JOINT, axis_dir=[0.0, math.nan, 1.0]), "axis_dir"),
    "axis-point-two": (dict(JOINT, axis_point=[0.4, -0.2]), "axis_point"),
    "segment-reversed": (dict(JOINT, segment={"start": 40, "end": 10}), "segment"),
    "segment-fraction": (dict(JOINT, segment={"start": 10.9, "end": 40}), "segment"),
    "segment-string": (dict(JOINT, segment={"start": "10", "end": 40}), "segment"),
    "segment-boolean": (dict(JOINT, segment={"start": True, "end": 40}), "segment"),
    "not-an-object": ([1, 2, 3], "not an object"),
    # ground truth only: a revolute prediction need not carry an axis point
    "revolute-without-point": (dict(JOINT, axis_point=None), "axis_point"),
}


@pytest.mark.parametrize("side, case", [
    (side, case) for case in sorted(BAD_JOINTS) for side in ("pred", "gt")
    if side == "gt" or case != "revolute-without-point"
])
def test_malformed_joint_entry_exits_2_naming_file_index_and_field(tmp_path, capsys, side, case):
    entry, field = BAD_JOINTS[case]
    files = {"pred": tmp_path / "pred.json", "gt": tmp_path / "gt.json"}
    for name, path in files.items():
        entries = [JOINT, entry] if name == side else [JOINT]
        path.write_text(json.dumps({"version": 1, "results": entries} if name == "pred" else entries))
    rc = main(["eval", "--pred", str(files["pred"]), "--gt", str(files["gt"])])
    assert rc == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("{")]
    assert len(err_lines) == 1
    msg = json.loads(err_lines[0])
    assert msg["error"] == "TrackFileError"
    assert msg["message"].startswith(f"{files[side]}[1]: {field}")


def test_export_ply_writes_meshes(workdir):
    c = str(workdir / "pipeline.json")
    ply_dir = workdir / "meshes"
    assert main(["run", "--tracks", str(workdir / "tracks.json"),
                 "--out", str(workdir / "out.json"), "--config", c,
                 "--export-ply", str(ply_dir)]) == 0
    files = sorted(ply_dir.glob("*.ply"))
    assert len(files) == 1
    assert files[0].read_text().startswith("ply\n")


def test_malformed_input_exits_2_with_json_error(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text('{"version": 1,\n  broken')
    rc = main(["segment", "--tracks", str(bad), "--out", str(workdir / "o.json")])
    assert rc == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("{")]
    msg = json.loads(err_lines[-1])
    assert set(msg) == {"error", "message"}
    assert "line 2" in msg["message"]


def test_track_file_not_utf8_exits_2_with_json_error(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_bytes(b'{"version": 1, "x": "\xff"}')
    rc = main(["run", "--tracks", str(bad), "--out", str(workdir / "o.json")])
    assert rc == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("{")]
    assert len(err_lines) == 1
    msg = json.loads(err_lines[0])
    assert msg["error"] == "TrackFileError"
    assert msg["message"].startswith(f"{bad}: malformed JSON: 'utf-8' codec can't decode byte 0xff")


def test_utf8_track_file_loads_under_an_ascii_locale(workdir):
    """Files are UTF-8 whatever the locale: a fresh interpreter with the C
    locale and UTF-8 mode off decodes text as ASCII by default."""
    doc = json.loads((workdir / "tracks.json").read_text())
    doc["note"] = "caf\u00e9"
    tracks = workdir / "utf8.json"
    tracks.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, LC_ALL="C")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    python = [sys.executable, "-X", "utf8=0"]
    encoding = subprocess.run(python + ["-c", "import locale; print(locale.getpreferredencoding(False))"],
                              env=env, capture_output=True, text=True, timeout=60).stdout.strip()
    assert encoding.lower().replace("-", "") not in ("utf8", "")  # the locale really is not UTF-8
    done = subprocess.run(python + ["-m", "artikit", "run", "--tracks", str(tracks),
                                    "--out", str(workdir / "o.json"), "--config", str(workdir / "pipeline.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads((workdir / "o.json").read_text())["results"]


@pytest.mark.parametrize("segments, field", [
    ([{"start": 3}], "'end'"),
    ([{"start": 9, "end": 3}], "invalid segment"),
    ([{"start": 0, "end": 500}], "past the recording's last frame"),
    ([{"start": 10.9, "end": 20}], "start must be an integer, got 10.9"),
    ([{"start": "10", "end": 20}], "start must be an integer, got '10'"),
    ([{"start": 0, "end": True}], "end must be an integer, got True"),
], ids=["missing-key", "end-before-start", "end-past-recording", "start-fraction", "start-string",
        "end-boolean"])
def test_malformed_segments_file_exits_2_with_json_error(workdir, capsys, segments, field):
    segs = workdir / "segs.json"
    segs.write_text(json.dumps({"segments": segments}))
    rc = main(["filter", "--tracks", str(workdir / "tracks.json"), "--segments", str(segs),
               "--out", str(workdir / "o.json")])
    assert rc == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("{")]
    assert len(err_lines) == 1
    msg = json.loads(err_lines[0])
    assert msg["error"] == "TrackFileError"
    assert msg["message"].startswith(f"{segs}.segments[0]: ")
    assert field in msg["message"]


@pytest.mark.parametrize("source", ["flag", "config-file"])
def test_nan_config_value_exits_2_with_json_error(workdir, capsys, source):
    argv = ["run", "--tracks", str(workdir / "tracks.json"), "--out", str(workdir / "o.json")]
    if source == "flag":
        argv += ["--theta-rot-min", "nan"]
    else:
        cfg = workdir / "nan.json"
        cfg.write_text('{"classifier": {"theta_rot_min": NaN}}')
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("{")]
    assert len(err_lines) == 1
    msg = json.loads(err_lines[0])
    assert msg["message"].startswith("bad configuration: ")
    assert not (workdir / "o.json").exists()


# one value outside each numeric field's range; the keys must be every field
# declared with bounds.bounded, so a new numeric field needs an entry here
OUT_OF_RANGE = {
    "segmenter.w_h": 0,
    "segmenter.tau_h": 1.5,
    "segmenter.t_min": 0,
    "segmenter.t_max": 0,
    "filter.sigma_reliable": 1.5,
    "filter.outlier_k": -1.0,
    "smoother.lambda_vel": -1.0,
    "smoother.lambda_jerk": -1.0,
    "classifier.theta_rot_min": 0.0,
    "classifier.trans_min": 0.0,
    "classifier.residual_margin": 1.0,
    "stride": 0,
    "max_depth": 0.0,
    "jobs": -1,
}


def test_every_numeric_config_field_has_an_out_of_range_value():
    bounded = []
    for f in dataclasses.fields(PipelineConfig):
        if "bounds" in f.metadata:
            bounded.append(f.name)
        elif f.default_factory is not dataclasses.MISSING:
            section = dataclasses.fields(f.default_factory)
            bounded += [f"{f.name}.{g.name}" for g in section if "bounds" in g.metadata]
    assert sorted(bounded) == sorted(OUT_OF_RANGE)


@pytest.mark.parametrize("source", ["overrides", "config-file"])
@pytest.mark.parametrize("bad", ["true", "nan", "out-of-range"])
@pytest.mark.parametrize("dotted", sorted(OUT_OF_RANGE))
def test_bad_numeric_config_value_exits_2(tmp_path, capsys, monkeypatch, dotted, bad, source):
    value = {"true": True, "nan": math.nan, "out-of-range": OUT_OF_RANGE[dotted]}[bad]
    argv = ["run", "--tracks", str(tmp_path / "tracks.json"), "--out", str(tmp_path / "o.json")]
    if source == "overrides":
        # typed values, as a caller of effective_config passes them (a flag's
        # text "true" would already fail argparse's type conversion)
        monkeypatch.setattr(cli, "_overrides", lambda args: {dotted: value})
    else:
        section, _, leaf = dotted.rpartition(".")
        doc = {section: {leaf: value}} if section else {leaf: value}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("{")]
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["message"].startswith("bad configuration: ")
    assert not (tmp_path / "o.json").exists()


def test_short_hand_window_yields_empty_results(workdir):
    scene = workdir / "short.json"
    scene.write_text(json.dumps(scene_doc(hand_window=[5, 12])))
    assert main(["synth", "--config", scene.as_posix(),
                 "--out-tracks", str(workdir / "short_tracks.json")]) == 0
    assert main(["run", "--tracks", str(workdir / "short_tracks.json"),
                 "--out", str(workdir / "short_out.json"),
                 "--config", str(workdir / "pipeline.json")]) == 0
    doc = load_json(workdir / "short_out.json")
    assert doc == {"version": 1, "results": [], "skipped": []}


def test_bad_flag_value_is_a_usage_error(workdir):
    with pytest.raises(SystemExit) as ei:
        main(["run", "--tracks", str(workdir / "tracks.json"),
              "--out", str(workdir / "x.json"), "--mode", "fancy"])
    assert ei.value.code == 2


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def three_frame_segdata(mutate) -> dict:
    """A segment-data file of one three-frame segment holding one track;
    ``mutate`` edits the segment's entry."""
    track = {"id": 0, "uv": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
             "world": [[0.0, 0.0, 1.0], [0.1, 0.0, 1.0], [0.2, 0.0, 1.0]],
             "valid": [True, True, True]}
    entry = {"segment": {"start": 0, "end": 2}, "filter_counts": {}, "tracks": [track]}
    mutate(entry)
    return {"version": 1, "stage": "filter", "skipped": [], "segments": [entry]}


@pytest.mark.parametrize("command", ["smooth", "estimate"])
@pytest.mark.parametrize("mutate, field", [
    (lambda s: s["tracks"][0].update(world=[row[:2] for row in s["tracks"][0]["world"]]), "tracks[0].world"),
    (lambda s: s["tracks"][0]["world"].pop(), "tracks[0].world"),
    (lambda s: s["tracks"][0]["uv"].pop(), "tracks[0].uv"),
    (lambda s: s["tracks"][0]["world"].__setitem__(1, None), "tracks[0].world[1]"),
    (lambda s: [s["tracks"][0][k].pop() for k in ("uv", "world", "valid")], "tracks[0].valid"),
    (lambda s: s["segment"].update(end=2.0), "segment"),
    (lambda s: s["segment"].update(start="0"), "segment"),
    (lambda s: s["segment"].update(start=False), "segment"),
], ids=["world-two-columns", "world-short", "uv-short", "world-null-on-valid-frame",
        "shorter-than-segment", "end-fraction", "start-string", "start-boolean"])
def test_malformed_segment_data_exits_2_with_json_error(tmp_path, capsys, command, mutate, field):
    segdata = tmp_path / "segdata.json"
    segdata.write_text(json.dumps(three_frame_segdata(mutate)))
    rc = main([command, "--segdata", str(segdata), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("{")]
    assert len(err_lines) == 1
    msg = json.loads(err_lines[0])
    assert msg["error"] == "TrackFileError"
    assert msg["message"].startswith(f"{segdata}.segments[0].{field}: ")


def one_frame_tracks(**overrides) -> dict:
    doc = {"version": 1, "units": {"length": "m"},
           "intrinsics": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0},
           "frames": [{"t": 0, "cam_pose": {"q": [1.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0, 0.0]},
                       "hand": False}],
           "tracks": []}
    doc.update(overrides)
    return doc


def scene_with_joint(**joint) -> dict:
    return scene_doc(joint=dict(scene_doc()["joint"], **joint))


# (command, input option, input document, the error message's start with
# {path} the input file): input files whose sections have the wrong JSON type
WRONG_TYPE_INPUTS = {
    "units-string": ("segment", "--tracks", one_frame_tracks(units="m"), "{path}.units: "),
    "units-list": ("segment", "--tracks", one_frame_tracks(units=["m"]), "{path}.units: "),
    "intrinsics-string": ("segment", "--tracks", one_frame_tracks(intrinsics="fx fy cx cy"),
                          "{path}.intrinsics: "),
    "joint-list": ("synth", "--config", scene_doc(joint=[1, 2]), "scene config: joint "),
    "motion-string": ("synth", "--config", scene_with_joint(motion="ramp"),
                      "scene config: joint.motion "),
    "camera-string": ("synth", "--config", scene_doc(camera="arc"), "scene config: camera "),
    **{
        f"skipped-{what}-{command}": (command, "--segdata",
                                      dict(three_frame_segdata(lambda s: None), skipped=bad),
                                      f"{{path}}.{where}: ")
        for command in ("smooth", "estimate")
        for what, bad, where in (("number", 5, "skipped"), ("object", {}, "skipped"),
                                 ("entry-number", [5], "skipped[0]"))
    },
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPE_INPUTS))
def test_wrongly_typed_input_section_exits_2_naming_it(tmp_path, capsys, case):
    command, option, doc, start = WRONG_TYPE_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = [command, option, str(path)]
    argv += ["--out-tracks", str(tmp_path / "t.json")] if command == "synth" else [
        "--out", str(tmp_path / "o.json")]
    assert main(argv) == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("{")]
    assert len(err_lines) == 1
    msg = json.loads(err_lines[0])
    assert msg["error"] == "TrackFileError"
    assert msg["message"].startswith(start.format(path=path))


def camera_poses_scene(bad_pose) -> dict:
    """Five explicit camera poses, pose 3 replaced by ``bad_pose``."""
    poses = [{"q": [1.0, 0.0, 0.0, 0.0], "t": [0.0, -2.0, 1.0 + 0.1 * k]} for k in range(5)]
    poses[3] = bad_pose
    return scene_doc(frames=5, hand_window=[1, 3], camera={"kind": "poses", "poses": poses})


BAD_CAMERA_POSES = {
    "non-unit-q": ({"q": [2.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0, 0.0]},
                   "q must be near unit norm, got |q| = 2.0"),
    "missing-t": ({"q": [1.0, 0.0, 0.0, 0.0]}, "missing t"),
    "short-t": ({"q": [1.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0]}, "t must be a 3-vector, got shape (2,)"),
    "not-an-object": (5, "must be an object, got 5"),
}


@pytest.mark.parametrize("case", sorted(BAD_CAMERA_POSES))
def test_synth_names_the_bad_explicit_camera_pose(tmp_path, capsys, case):
    bad_pose, reason = BAD_CAMERA_POSES[case]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(camera_poses_scene(bad_pose)))
    assert main(["synth", "--config", str(scene), "--out-tracks", str(tmp_path / "t.json")]) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    msg = json.loads(err_lines[0])
    assert msg["error"] == "TrackFileError"
    assert msg["message"] == f"scene config: camera.poses[3]: {reason}"
    assert not (tmp_path / "t.json").exists()


def test_synth_takes_explicit_camera_poses(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(camera_poses_scene({"q": [0.0, 0.0, 0.0, 1.0], "t": [0.0, 0.0, 0.0]})))
    assert main(["synth", "--config", str(scene), "--out-tracks", str(tmp_path / "t.json")]) == 0
    poses = load_trackset(tmp_path / "t.json").cam_poses
    assert [p.q.tolist() for p in poses[2:4]] == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    assert poses[4].t.tolist() == [0.0, -2.0, 1.4]
