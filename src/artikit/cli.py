"""Command-line interface: scene synthesis, pipeline stages, evaluation.

``run`` executes the whole pipeline in one process; the individual
subcommands (segment, filter, smooth, estimate) exchange JSON intermediates
so the same computation can be driven stage by stage. Both paths call the
same stage functions on each segment and assemble their output with
``pipeline.results_doc``, so the two results files are byte-for-byte equal,
skipped segments included.

The CLI holds no pipeline knowledge of its own: each tuning flag's dest is
its dotted config key, and ``pipeline.effective_config`` validates them.
Every config value has a flag but ``filter.static_mode``, whose one value is
``world3d``. Configuration precedence: command-line flag > --config file >
built-in default. The effective configuration is echoed to stderr before work
starts. Errors print a one-line machine-readable JSON object to stderr and
exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

from . import evalkit, jsonio, pipeline, synth, trackio
from .errors import ArtikitError, TrackFileError
from .segmenter import Segment


def _config_flags(p: argparse.ArgumentParser, *stages: str):
    """Attach the tuning flags of the named stage subcommands.

    Each flag's dest is its dotted config key, and an absent flag sets no
    attribute, so the parsed namespace is the override set as it stands.
    """
    g = p.add_argument_group("pipeline configuration", argument_default=argparse.SUPPRESS)
    if "segment" in stages:
        g.add_argument("--wh", dest="segmenter.w_h", type=int, help="hand-signal smoothing window")
        g.add_argument("--tau", dest="segmenter.tau_h", type=float, help="hand-signal threshold")
        g.add_argument("--tmin", dest="segmenter.t_min", type=int, help="min segment length (frames)")
        g.add_argument("--tmax", dest="segmenter.t_max", type=int, help="max segment length (frames)")
    if "filter" in stages:
        g.add_argument("--sigma-reliable", dest="filter.sigma_reliable", type=float,
                       help="max tolerated unobserved fraction per track")
        g.add_argument("--max-depth", dest="max_depth", type=float,
                       help="max trusted depth in meters")
    if "smooth" in stages:
        g.add_argument("--lambda-vel", dest="smoother.lambda_vel", type=float, help="velocity penalty weight")
        g.add_argument("--lambda-jerk", dest="smoother.lambda_jerk", type=float, help="jerk penalty weight")
    if "estimate" in stages:
        g.add_argument("--stride", dest="stride", type=int, help="keyframe stride (frames)")
        g.add_argument("--mode", dest="mode", choices=pipeline.ESTIMATOR_MODES,
                       help="trajectory estimator")
        g.add_argument("--outlier-k", dest="filter.outlier_k", type=float,
                       help="MAD multiplier of the residual outlier gate")
        g.add_argument("--theta-rot-min", dest="classifier.theta_rot_min", type=float,
                       help="min total rotation (rad) to call a joint revolute")
        g.add_argument("--trans-min", dest="classifier.trans_min", type=float,
                       help="min total translation (m) considered real motion")
        g.add_argument("--residual-margin", dest="classifier.residual_margin", type=float,
                       help="relative residual improvement for revolute (independent mode only)")
    return g


def _overrides(args: argparse.Namespace) -> dict:
    """The dotted-key config overrides among the parsed arguments."""
    keys = {f.name for f in dataclasses.fields(pipeline.PipelineConfig)}
    return {k: v for k, v in vars(args).items() if k.split(".")[0] in keys}


def _load_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    file_doc = None
    if getattr(args, "config", None):
        file_doc = jsonio.load_json(args.config)
        if not isinstance(file_doc, dict):
            raise ArtikitError(f"{args.config}: config must be a JSON object")
    try:
        cfg = pipeline.effective_config(file_doc, _overrides(args))
    except ValueError as e:
        raise ArtikitError(str(e)) from e
    print(f"config: {json.dumps(cfg.to_dict())}", file=sys.stderr)
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    doc = jsonio.load_json(args.scene)
    if not isinstance(doc, dict):
        raise ArtikitError(f"{args.scene}: scene config must be a JSON object")
    if args.seed is not None:
        doc["seed"] = args.seed
    cfg = synth.config_from_dict(doc)
    ts, gt = synth.generate(cfg)
    trackio.save_trackset(args.out_tracks, ts)
    if args.out_gt:
        synth.save_ground_truth(args.out_gt, gt)
    print(f"wrote {len(ts.tracks)} tracks over {ts.frame_count} frames to {args.out_tracks}",
          file=sys.stderr)
    return 0


def cmd_segment(args) -> int:
    cfg = _load_config(args)
    ts = trackio.load_trackset(args.tracks)
    segments = pipeline.extract_hand_segments(ts, cfg.segmenter)
    jsonio.dump_json(args.out, {"version": 1, "segments": [s.to_dict() for s in segments]})
    print(f"extracted {len(segments)} segments", file=sys.stderr)
    return 0


def _load_segments(path, frame_count: int) -> list:
    doc = jsonio.load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("segments"), list):
        raise TrackFileError(f"{path}: not a segments file")
    segments = []
    for i, entry in enumerate(doc["segments"]):
        where = f"{path}.segments[{i}]"
        try:
            seg = Segment.from_dict(entry)
        except KeyError as e:
            raise TrackFileError(f"{where}: missing key {e}") from e
        except (TypeError, ValueError) as e:
            raise TrackFileError(f"{where}: {e}") from e
        if seg.end >= frame_count:
            raise TrackFileError(
                f"{where}: end {seg.end} is past the recording's last frame {frame_count - 1}"
            )
        segments.append(seg)
    return segments


def cmd_filter(args) -> int:
    cfg = _load_config(args)
    ts = trackio.load_trackset(args.tracks)
    segments = _load_segments(args.segments, ts.frame_count)
    entries, skipped = [], []
    for seg in segments:
        try:
            tracks, counts = pipeline.stage_filter(ts, seg, cfg)
            entries.append((seg, tracks, counts))
        except ArtikitError as e:
            skipped.append(pipeline.skip_record(seg, "filter", e))
    pipeline.save_segment_data(args.out, "filter", entries, skipped)
    print(f"filtered {len(entries)} segments ({len(skipped)} skipped)", file=sys.stderr)
    return 0


def cmd_smooth(args) -> int:
    cfg = _load_config(args)
    entries, skipped = pipeline.load_segment_data(args.segdata)
    out = []
    for seg, tracks, counts in entries:
        try:
            out.append((seg, pipeline.stage_smooth(tracks, cfg, counts), counts))
        except ArtikitError as e:
            skipped.append(pipeline.skip_record(seg, "smooth", e))
    pipeline.save_segment_data(args.out, "smooth", out, skipped)
    print(f"smoothed {len(out)} segments ({len(skipped)} skipped)", file=sys.stderr)
    return 0


def cmd_estimate(args) -> int:
    cfg = _load_config(args)
    entries, records = pipeline.load_segment_data(args.segdata)
    for seg, tracks, counts in entries:
        try:
            fitted = pipeline.stage_estimate(tracks, cfg, counts)
            records.append(pipeline.segment_record(seg, fitted, counts))
        except ArtikitError as e:
            records.append(pipeline.skip_record(seg, "estimate", e))
    return _write_results(args, pipeline.results_doc(records))


def _write_results(args, doc: dict) -> int:
    """Save the results document, export PLY if asked, print the summary."""
    pipeline.save_results(args.out, doc)
    if args.export_ply:
        paths = pipeline.export_ply(args.export_ply, doc)
        print(f"exported {len(paths)} PLY files to {args.export_ply}", file=sys.stderr)
    print(f"estimated {len(doc['results'])} joints "
          f"({len(doc['skipped'])} segments skipped)", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    preds = evalkit.load_predictions(args.pred)
    gt = synth.load_ground_truth(args.gt)
    report = evalkit.evaluate(preds, gt)
    if args.out:
        jsonio.dump_json(args.out, report.to_dict())
    print(evalkit.render_report(report))
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    ts = trackio.load_trackset(args.tracks)
    return _write_results(args, pipeline.run_pipeline(ts, cfg))


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="artikit",
        description="Articulation estimation from hand-interaction point tracks.",
    )
    ap.add_argument("-v", "--verbose", action="store_true", help="log at DEBUG level")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        return p

    p = add("synth", cmd_synth, "generate a synthetic recording with ground truth")
    p.add_argument("--config", dest="scene", required=True, help="scene description JSON")
    p.add_argument("--out-tracks", required=True, help="output track file")
    p.add_argument("--out-gt", default=None, help="output ground-truth file")
    p.add_argument("--seed", type=int, default=None, help="override the scene seed")

    p = add("segment", cmd_segment, "extract interaction segments from the hand signal")
    p.add_argument("--tracks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="pipeline config JSON")
    _config_flags(p, "segment")

    p = add("filter", cmd_filter, "lift segments to world tracks and drop static/unreliable ones")
    p.add_argument("--tracks", required=True)
    p.add_argument("--segments", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    _config_flags(p, "filter")

    p = add("smooth", cmd_smooth, "smooth world trajectories")
    p.add_argument("--segdata", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    _config_flags(p, "smooth")

    p = add("estimate", cmd_estimate, "fit trajectories and joint models")
    p.add_argument("--segdata", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--export-ply", default=None, help="directory for PLY axis/trail export")
    _config_flags(p, "estimate")

    p = add("eval", cmd_eval, "score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", default=None, help="report JSON (table always printed)")

    p = add("run", cmd_run, "full pipeline: tracks to joint models")
    p.add_argument("--tracks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--export-ply", default=None)
    g = _config_flags(p, "segment", "filter", "smooth", "estimate")
    g.add_argument("--jobs", dest="jobs", type=int,
                   help="accepted for compatibility; has no effect (segments run serially)")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.fn(args)
    except ArtikitError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 2

