"""Acceptance gate: nine pinned criteria, one test per criterion.

``pytest tests/test_acceptance.py -v`` prints one pass/fail line per
criterion; add ``-s`` to also see the measured values. The two noisy
closure suites are computed once and shared by criteria 5 and 6. The noisy
thresholds live in fixtures/noisy_thresholds.json; regenerate them with
suite_util.derive_noisy_thresholds() if the estimator legitimately changes.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import artikit
import suite_util
from artikit.evalkit import angular_error, axis_distance
from artikit.lie import (
    Twist,
    apply,
    exp_map,
    inverse,
    log_map,
    rotation_angle,
)
from artikit.segmenter import Segment, SegmenterConfig, extract_segments, match_segments, moving_average, segment_iou
from artikit.smoother import SmootherConfig, smooth_track, smoothing_energy
from artikit.trackio import SegmentTrack
from artikit.trajest import build_correspondences, register_steps
from suite_util import compose, pose
from test_segmenter import naive_moving_average, naive_runs
from test_smoother import dense_smooth, noisy_problem

FIXTURES = Path(__file__).parent / "fixtures"


def _report(n: int, text: str) -> None:
    # reached only when every assertion above it held
    print(f"criterion {n}: PASS - {text}")


@pytest.fixture(scope="module")
def noisy_suites():
    t0 = time.perf_counter()
    reg = suite_util.run_suite(noisy=True, mode="regularized")
    ind = suite_util.run_suite(noisy=True, mode="independent")
    return {"reg": reg, "ind": ind, "elapsed": time.perf_counter() - t0}


def _median_errors(rows):
    theta = np.array([r["theta_err_rad"] for r in rows if r["theta_err_rad"] is not None])
    d = np.array([r["d_l2"] for r in rows if r["d_l2"] is not None])
    return float(np.median(theta)), float(np.median(d)), len(theta)


def test_criterion_1_twist_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(1000):
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        theta = rng.uniform(1e-4, 3.0)  # keeps |w * theta| <= 3.0 rad
        xi = Twist(w, rng.uniform(-1.0, 1.0, 3))
        back = log_map(exp_map(xi, theta)).as_vector()
        worst = max(worst, float(np.linalg.norm(back - theta * xi.as_vector())))
    assert worst < 1e-9

    cont = 0.0
    xi = Twist(np.array([0.36, 0.48, 0.8]), np.array([0.3, -0.2, 0.1]))
    for s in (1e-12, 1e-10, 1e-8, 1e-7):
        back = log_map(exp_map(xi, s)).as_vector()
        cont = max(cont, float(np.linalg.norm(back - s * xi.as_vector())))
    assert cont < 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"1000 round trips, max err {worst:.2e}; small-angle {cont:.2e}; {elapsed:.2f} s")


def test_criterion_2_smoother_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    cfg = SmootherConfig(lambda_vel=0.5, lambda_jerk=5.0)
    worst = 0.0
    for k in range(100):
        T = int(rng.integers(1, 51))
        tr = noisy_problem(rng, T)
        out = smooth_track(tr, cfg)
        w = tr.valid.astype(float)
        targets = np.where(tr.valid[:, None], tr.positions, 0.0)
        oracle = dense_smooth(targets, w, cfg)
        scale = max(1.0, float(np.abs(oracle).max()))
        worst = max(worst, float(np.max(np.abs(out.positions - oracle))) / scale)
        e_in = smoothing_energy(targets, targets, w, cfg)
        e_out = smoothing_energy(out.positions, targets, w, cfg)
        assert e_out <= e_in + 1e-12, f"problem {k}: energy rose {e_in} -> {e_out}"
    assert worst < 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"100 problems, banded vs dense rel err {worst:.2e}; energy never rose; {elapsed:.2f} s")


def test_criterion_3_registration_oracle():
    t0 = time.perf_counter()

    # noiseless: one 500-step scripted chain, every step recovered at once
    rng = np.random.default_rng(42)
    n_pts, n_steps = 12, 500
    world = np.zeros((n_pts, n_steps + 1, 3))
    world[:, 0] = rng.uniform(-0.25, 0.25, (n_pts, 3))
    steps = []
    for m in range(n_steps):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.05, 0.5)
        T = pose(exp_map(Twist(axis * angle, np.zeros(3)), 1.0).q, rng.uniform(-0.2, 0.2, 3))
        steps.append(T)
        world[:, m + 1] = apply(T, world[:, m])
    tracks = SegmentTrack(np.arange(n_pts), world, np.ones((n_pts, n_steps + 1), dtype=bool))
    registered = register_steps(build_correspondences(tracks, stride=1))
    worst = 0.0
    for got, want in zip(registered, steps):
        D = compose(got, inverse(want))
        worst = max(worst, rotation_angle(D) + float(np.linalg.norm(D.t)))
    assert worst < 1e-9

    # noisy: 5 mm iid 3D noise on the observed view of 100 points
    rng = np.random.default_rng(43)
    errs_deg = []
    for _ in range(500):
        X = rng.uniform(-0.25, 0.25, (100, 3))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.05, 0.5)
        T = pose(exp_map(Twist(axis * angle, np.zeros(3)), 1.0).q, rng.uniform(-0.2, 0.2, 3))
        Y = apply(T, X) + rng.normal(0.0, 0.005, (100, 3))
        pair = SegmentTrack(np.arange(100), np.stack([X, Y], axis=1), np.ones((100, 2), dtype=bool))
        got = register_steps(build_correspondences(pair, stride=1))[0]
        errs_deg.append(math.degrees(rotation_angle(compose(got, inverse(T)))))
    p95 = float(np.percentile(errs_deg, 95))
    assert p95 < 0.5

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, f"500 exact steps, max err {worst:.2e}; noisy p95 {p95:.3f} deg; {elapsed:.1f} s")


def test_criterion_4_noiseless_closure():
    t0 = time.perf_counter()
    rows = suite_util.run_suite(noisy=False, mode="regularized")
    assert len(rows) == 50
    unmatched = [i for i, r in enumerate(rows) if r["theta_err_rad"] is None]
    assert unmatched == [], f"scenes without a matched estimate: {unmatched}"
    accuracy = sum(r["type_correct"] for r in rows) / len(rows)
    max_theta = max(r["theta_err_rad"] for r in rows)
    max_d = max(r["d_l2"] for r in rows if r["d_l2"] is not None)
    assert accuracy == 1.0
    assert max_theta < 1e-6
    assert max_d < 1e-6

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, f"50 scenes, accuracy 1.000, max theta {max_theta:.2e} rad, "
               f"max d {max_d:.2e} m; {elapsed:.1f} s")


def test_criterion_5_noisy_closure(noisy_suites):
    caps = json.loads((FIXTURES / "noisy_thresholds.json").read_text())
    rows = noisy_suites["reg"]
    accuracy = sum(r["type_correct"] for r in rows) / len(rows)
    med_theta, med_d, matched = _median_errors(rows)
    assert accuracy >= 0.95
    assert med_theta <= caps["theta_err_median_rad"]
    assert med_d <= caps["d_l2_median_m"]
    assert noisy_suites["elapsed"] < 300.0
    _report(5, f"accuracy {accuracy:.3f}, median theta {med_theta:.6f} <= "
               f"{caps['theta_err_median_rad']:.6f} rad, median d {med_d:.6f} <= "
               f"{caps['d_l2_median_m']:.6f} m ({matched} matched); "
               f"{noisy_suites['elapsed']:.1f} s for both suites")


def test_criterion_6_regularization_dominance(noisy_suites):
    med_reg, _, _ = _median_errors(noisy_suites["reg"])
    med_ind, _, _ = _median_errors(noisy_suites["ind"])
    assert med_reg <= med_ind
    _report(6, f"median theta regularized {med_reg:.6f} <= independent {med_ind:.6f} rad")


def test_criterion_7_segmenter_trace():
    hand, expected = suite_util.criterion7_trace()
    cfg = SegmenterConfig()  # w_h=6, tau=0.5, lengths 30..90
    segs = extract_segments(moving_average(hand, cfg.w_h), cfg)
    assert [(s.start, s.end) for s in segs] == expected

    # re-derive the expectation with the naive trailing mean
    smoothed = naive_moving_average(hand, cfg.w_h)
    runs = naive_runs(smoothed >= cfg.tau_h)
    conforming = [r for r in runs if cfg.t_min <= r[1] - r[0] + 1 <= cfg.t_max]
    assert conforming == expected
    _report(7, f"4 scripted interactions -> exactly {expected}")


def test_criterion_8_metric_fixtures():
    assert angular_error([0.0, 0.0, 1.0], [0.0, 0.0, 1.0]) == 0.0
    assert angular_error([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 0.0
    assert angular_error([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(90.0, abs=1e-12)

    z = [0.0, 0.0, 1.0]
    assert axis_distance([0.2, -0.1, 0.7], z, [0.2, -0.1, 0.7], z) == 0.0
    assert axis_distance([0.1, 0.0, 0.0], z, [0.0, 0.0, 0.0], z) == pytest.approx(0.1, abs=1e-12)
    assert axis_distance([0.0, 0.0, 0.0], z, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]) == pytest.approx(
        1.0, abs=1e-12
    )

    a, b = Segment(10, 20), Segment(15, 25)
    assert segment_iou(a, b) == pytest.approx(0.375)
    assert match_segments([a], [b]) == []  # 0.375 <= 0.5 stays unmatched
    _report(8, "three angular fixtures, three distance fixtures, IoU 0.375 non-match")


def test_criterion_9_cli_determinism(tmp_path):
    scene = {
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
    }
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    cfg = {
        "filter": {"static_mode": "world3d"},
        "classifier": {"theta_rot_min": 0.05},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))

    # A fresh interpreter per call, importing the same artikit the suite
    # imported: no console script or install is needed.
    src = str(Path(artikit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "artikit", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    run("synth", "--config", "scene.json", "--out-tracks", "tracks.json")
    run("run", "--tracks", "tracks.json", "--out", "a.json", "--config", "cfg.json")
    run("run", "--tracks", "tracks.json", "--out", "b.json", "--config", "cfg.json")
    run("run", "--tracks", "tracks.json", "--out", "c.json", "--config", "cfg.json",
        "--jobs", "4")
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    assert a == (tmp_path / "c.json").read_bytes()
    assert json.loads(a)["results"], "the deterministic run found no joints"
    _report(9, "repeat runs and --jobs 4 byte-identical")
