"""Benchmark artikit end to end (synth -> run -> eval) and layer by layer.

Run from the repository root; nothing needs installing:

    python3 benchmark/run.py --workload suite-noisy --seed 0 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all

Each recording goes through the public calls behind the CLI's ``synth``,
``run`` and ``eval``, with their JSON files written and read back. Every
output is checked against numbers the benchmark computes itself (see
checks.py). The last line of standard output is one JSON object with
``correct``, ``attempted`` and ``failed`` (recordings) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run also writes its spans to
``.bench_out/trace-<workload>-<seed>.json``. README.md explains the metrics.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # the checkout: src/, tests/fixtures/ and the output directories
if not (ROOT / "src" / "artikit" / "__init__.py").is_file():
    sys.exit("benchmark: no src/artikit beside benchmark/; run it from a checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from artikit import evalkit, jsonio, pipeline, synth, trackio  # noqa: E402

WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = tuple(workloads.ROUNDS)
SETUP_SAMPLES = 3  # this process's set-up plus fresh processes'; the median is reported
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "recordings_per_s": "1/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "axis_err_deg": "deg",
    "axis_dist_mm": "mm",
}


@dataclass
class Outcome:
    """One recording's timings and, where matched, its axis errors."""

    chain_s: float = 0.0
    run_s: float = 0.0
    tracks_bytes: int = 0
    failed: bool = False
    errors: list = field(default_factory=list)  # (angle_deg, dist_m | None)


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, tracer=None):
        self.workload, self.seed, self.work = workload, seed, work
        self.tracer = tracer  # tags its spans with the recording being run
        self.problems = []  # check failures: the run is not correct
        self.first = None  # (recording, loaded TrackSet, document) of the first recording

    def round(self, k: int) -> list:
        return workloads.ROUNDS[self.workload](self.seed, k)

    def run_chain(self, rec):
        """synth -> save -> load -> run -> save -> eval, as the CLI does it."""
        tracks, gt_path = self.work / "tracks.json", self.work / "gt.json"
        results, report_path = self.work / "results.json", self.work / "report.json"
        t0 = time.perf_counter()
        ts, gt = workloads.synthesize(rec)
        trackio.save_trackset(tracks, ts)
        synth.save_ground_truth(gt_path, gt)
        t1 = time.perf_counter()
        loaded = trackio.load_trackset(tracks)
        doc = pipeline.run_pipeline(loaded, rec.pipeline)
        pipeline.save_results(results, doc)
        t2 = time.perf_counter()
        report = evalkit.evaluate(evalkit.load_predictions(results), synth.load_ground_truth(gt_path))
        jsonio.dump_json(report_path, report.to_dict())
        t3 = time.perf_counter()
        return ts, loaded, doc, report, t3 - t0, t2 - t1, tracks.stat().st_size

    def recording(self, rec) -> Outcome:
        """Time one recording, then check it outside the timed region.

        A recording fails when the program raises or its regularized fit
        ends non-converged; its outputs are then not held to the checks.
        """
        out = Outcome()
        if self.tracer is not None:
            self.tracer.recording = rec.label
        try:
            ts, loaded, doc, report, out.chain_s, out.run_s, out.tracks_bytes = self.run_chain(rec)
        except Exception:  # a failed recording must not stop the run
            print(f"{rec.label}: failed\n{traceback.format_exc()}", file=sys.stderr)
            out.failed = True
            return out
        if self.first is None:
            self.first = (rec, loaded, doc)
        out.failed = any(not r["trajectory"]["converged"] for r in doc["results"])
        try:
            checks.check_same_trackset(ts, loaded)
            if out.failed:
                out.errors = checks.matched_errors(rec.interactions, doc["results"])
            else:
                out.errors = checks.check_recording(rec.interactions, doc, report)
        except checks.CheckFailed as e:
            self.problems.append(f"{rec.label}: {e}")
        return out

    def measure(self, seconds: float, first_round: list) -> list:
        """Whole rounds; another starts only while it should end in time."""
        outcomes, round_s, k, rnd = [], [], 0, first_round
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            outcomes += [self.recording(rec) for rec in rnd]
            round_s.append(time.perf_counter() - start)
            k += 1
            if time.perf_counter() - begin + statistics.median(round_s) > seconds:
                return outcomes
            rnd = self.round(k)

    def check_document(self, traced: bool) -> None:
        """The first recording's document against a serial, untraced re-run."""
        rec, loaded, doc = self.first
        if traced or rec.pipeline.jobs != 1:
            again = pipeline.run_pipeline(loaded, replace(rec.pipeline, jobs=1))
            if again != doc:
                what = "traced and untraced" if traced else f"jobs={rec.pipeline.jobs} and jobs=1"
                self.problems.append(f"{rec.label}: documents differ between {what}")

    def check_caps(self, outcomes) -> None:
        """suite-noisy: median errors within the gate's frozen caps."""
        caps = json.loads((ROOT / "tests" / "fixtures" / "noisy_thresholds.json").read_text())
        angles, dists = errors(outcomes)
        theta, dist = math.radians(statistics.median(angles)), statistics.median(dists)
        if theta > caps["theta_err_median_rad"] or dist > caps["d_l2_median_m"]:
            self.problems.append(
                f"median errors {theta} rad, {dist} m exceed the caps "
                f"{caps['theta_err_median_rad']} rad, {caps['d_l2_median_m']} m"
            )


def errors(outcomes) -> tuple:
    """Angles (deg) of every matched joint, line distances (m) of the revolute ones."""
    angles = [a for o in outcomes for a, _ in o.errors]
    dists = [d for o in outcomes for _, d in o.errors if d is not None]
    return angles, dists


def setup(workload: str, seed: int, work: Path, trace: bool):
    """The first round's scene specs and a warm-up recording, untimed."""
    bench = Bench(workload, seed, work, tracing.Tracer() if trace else None)
    first_round = bench.round(0)
    bench.run_chain(workloads.warmup_recording())
    return bench, first_round


def probe_setup(workload: str, seed: int) -> list:
    """Set-up times of fresh processes, each timed from its own start."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def end_to_end(setup_times, outcomes) -> dict:
    angles, dists = errors(outcomes)
    values = {
        "setup_s": statistics.median(setup_times),
        "recordings_per_s": len(outcomes) / sum(o.chain_s for o in outcomes),
        # a mean, not a median: suite-noisy's revolute and prismatic scenes
        # form two clusters of run times and its median falls in the gap
        "run_s": sum(o.run_s for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "axis_err_deg": statistics.median(angles),
        "axis_dist_mm": statistics.median(dists) * 1000.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def run_workload(args) -> dict | None:
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench, first_round = setup(args.workload, args.seed, work, args.trace)
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(setup_s)
            return None
        tracer = bench.tracer
        if tracer is not None:
            tracer.install()
        try:
            outcomes = bench.measure(args.seconds, first_round)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if bench.first is not None:
            bench.check_document(traced=tracer is not None)
        if args.workload == "suite-noisy":
            bench.check_caps(outcomes)
        if tracer is None:
            metrics = end_to_end([setup_s, *probe_setup(args.workload, args.seed)], outcomes)
        else:
            metrics = tracer.layer_metrics(len(outcomes), sum(o.tracks_bytes for o in outcomes))
            write_trace(args, tracer, outcomes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    for p in bench.problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not bench.problems,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_trace(args, tracer, outcomes) -> None:
    OUT.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "recordings": len(outcomes),
        "recordings_per_s_traced": len(outcomes) / sum(o.chain_s for o in outcomes),
        "seconds": dict(tracer.seconds),
        "calls": dict(tracer.calls),
        "spans": tracer.spans,
    }
    (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(doc) + "\n")


def print_result(workload: str, result: dict) -> None:
    print(f"{workload}: {result['attempted']} recordings attempted, "
          f"{result['failed']} failed, correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            summary[f"{workload}/trace{trace}"] = result = json.loads(proc.stdout.splitlines()[-1])
            print_result(f"{workload} (trace {trace})", result)
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help="workload seed; the default keeps the gate's order")
    ap.add_argument("--seconds", type=float, default=30.0, help="measure about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    if result is not None:
        print_result(args.workload, result)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
