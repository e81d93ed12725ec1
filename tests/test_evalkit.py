"""Evaluation metrics and report assembly."""

import math

import numpy as np
import pytest

from artikit.errors import TrackFileError
from artikit.evalkit import (
    EvalReport,
    angular_error,
    axis_distance,
    evaluate,
    load_predictions,
    render_report,
)
from artikit.jsonio import dump_json
from artikit.synth import GroundTruthJoint, load_ground_truth


def joint(start, end, jtype, axis_dir, axis_point=None):
    return {
        "segment": {"start": start, "end": end},
        "type": jtype,
        "axis_dir": list(axis_dir),
        "axis_point": None if axis_point is None else list(axis_point),
    }


# ---------------------------------------------------------------------------
# angular error


def test_angular_error_fixtures():
    z = [0.0, 0.0, 1.0]
    assert angular_error(z, z) == 0.0
    assert angular_error(z, [0.0, 0.0, -1.0]) == 0.0  # an axis has no sign
    assert angular_error(z, [1.0, 0.0, 0.0]) == pytest.approx(90.0)
    assert angular_error([1.0, 1.0, 0.0], [1.0, 0.0, 0.0]) == pytest.approx(45.0)
    assert angular_error([0.0, 0.0, 7.0], z) == 0.0  # length does not matter
    c = math.cos(math.radians(5.0))
    s = math.sin(math.radians(5.0))
    assert angular_error([s, 0.0, c], z) == pytest.approx(5.0, abs=1e-9)


def test_angular_error_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert angular_error(a, b) == pytest.approx(angular_error(b, a), abs=1e-12)
        assert 0.0 <= angular_error(a, b) <= 90.0


def test_angular_error_zero_vector_raises():
    with pytest.raises(ValueError):
        angular_error([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])


NON_FINITE = [[np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0], [0.0, -np.inf, 1.0]]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_angular_error_non_finite_axis_raises(bad):
    z = [0.0, 0.0, 1.0]
    for args in ((bad, z), (z, bad)):
        with pytest.raises(ValueError, match="axis directions must be finite"):
            angular_error(*args)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_axis_distance_non_finite_input_raises(bad):
    z, o = [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]
    for args, what in (((bad, z, o, z), "points"), ((o, z, bad, z), "points"),
                       ((o, bad, o, z), "directions"), ((o, z, o, bad), "directions")):
        with pytest.raises(ValueError, match=f"axis {what} must be finite"):
            axis_distance(*args)


# ---------------------------------------------------------------------------
# axis line distance


def test_axis_distance_fixtures():
    z = np.array([0.0, 0.0, 1.0])
    o = np.zeros(3)
    assert axis_distance(o, z, o, z) == 0.0
    # parallel lines one unit apart
    assert axis_distance([1.0, 0.0, 0.0], z, o, z) == pytest.approx(1.0)
    # perpendicular skew lines: x-axis at height 2 vs y-axis at height 0
    assert axis_distance([0.0, 0.0, 2.0], [1.0, 0.0, 0.0], o, [0.0, 1.0, 0.0]) == pytest.approx(2.0)
    # intersecting lines have distance zero
    assert axis_distance(o, [1.0, 0.0, 0.0], o, z) == pytest.approx(0.0)


def test_axis_distance_slide_invariance():
    """Moving either point along its own line never changes the distance."""
    rng = np.random.default_rng(1)
    for _ in range(30):
        p1, p2 = rng.normal(size=3), rng.normal(size=3)
        a1, a2 = rng.normal(size=3), rng.normal(size=3)
        d0 = axis_distance(p1, a1, p2, a2)
        s, t = rng.uniform(-3, 3, 2)
        d1 = axis_distance(p1 + s * a1, a1, p2 + t * a2, a2)
        assert d1 == pytest.approx(d0, abs=1e-9)


def test_axis_distance_symmetry_and_scale():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p1, p2 = rng.normal(size=3), rng.normal(size=3)
        a1, a2 = rng.normal(size=3), rng.normal(size=3)
        d = axis_distance(p1, a1, p2, a2)
        assert axis_distance(p2, a2, p1, a1) == pytest.approx(d, abs=1e-12)
        assert axis_distance(p1, 3.0 * a1, p2, -0.5 * a2) == pytest.approx(d, abs=1e-12)


def test_axis_distance_nearly_parallel_falls_back():
    z = np.array([0.0, 0.0, 1.0])
    tilted = np.array([1e-6, 0.0, 1.0])  # cross norm ~1e-6, under the parallel gate
    d = axis_distance([1.0, 0.0, 0.0], tilted, [0.0, 0.0, 0.0], z)
    assert d == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# matching and scoring


def test_evaluate_matches_and_scores():
    gt = [
        GroundTruthJoint((10, 55), "revolute", np.array([0.0, 0.0, 1.0]), np.array([0.4, 0.0, 1.0])),
        GroundTruthJoint((70, 90), "prismatic", np.array([1.0, 0.0, 0.0]), None),
    ]
    preds = [
        joint(12, 58, "revolute", [0.0, 0.0, 1.0], [0.4, 1.0, 1.0]),
        joint(69, 91, "prismatic", [1.0, 0.0, 0.0]),
    ]
    rep = evaluate(preds, gt)
    assert len(rep.records) == 2
    assert rep.unmatched_gt == 0 and rep.unmatched_pred == 0
    assert [r.gt_index for r in rep.records] == [0, 1]

    rev = rep.records[0]
    assert rev.type_correct
    assert rev.theta_err == pytest.approx(0.0)
    assert rev.d_l2 == pytest.approx(1.0)  # parallel axis shifted one meter in y
    pri = rep.records[1]
    assert pri.d_l2 is None  # prismatic reference has no axis line
    assert rep.type_accuracy == 1.0


def test_evaluate_low_iou_stays_unmatched():
    gt = [GroundTruthJoint((0, 10), "prismatic", np.array([1.0, 0.0, 0.0]), None)]
    preds = [joint(40, 60, "prismatic", [1.0, 0.0, 0.0])]
    rep = evaluate(preds, gt)
    assert rep.records == []
    assert rep.unmatched_gt == 1 and rep.unmatched_pred == 1
    assert rep.type_accuracy is None


def test_evaluate_mismatched_type_still_scores_angle():
    gt = [GroundTruthJoint((0, 20), "revolute", np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.0]))]
    preds = [joint(0, 20, "prismatic", [1.0, 0.0, 0.0])]  # no axis point
    rep = evaluate(preds, gt)
    r = rep.records[0]
    assert not r.type_correct
    assert r.theta_err == pytest.approx(90.0)
    assert r.d_l2 is None  # a prediction without a point has no line to measure
    assert rep.aggregates["revolute"].mean_d_l2 is None
    assert rep.aggregates["revolute"].type_accuracy == 0.0


def test_evaluate_mean_of_exact_perturbations():
    """Five-degree tilts must average to five degrees, not approximately so."""
    z = np.array([0.0, 0.0, 1.0])
    c, s = math.cos(math.radians(5.0)), math.sin(math.radians(5.0))
    gt, preds = [], []
    for k in range(4):
        start = 100 * k
        gt.append(GroundTruthJoint((start, start + 30), "revolute", z, np.zeros(3)))
        # tilt by exactly 5 degrees, each time about a different horizontal axis
        phi = k * math.pi / 4
        tilted = np.array([s * math.cos(phi), s * math.sin(phi), c])
        preds.append(joint(start, start + 30, "revolute", tilted, [0.0, 0.0, 0.0]))
    rep = evaluate(preds, gt)
    assert rep.aggregates["revolute"].mean_theta_err == pytest.approx(5.0, abs=1e-9)
    assert rep.aggregates["revolute"].mean_d_l2 == pytest.approx(0.0, abs=1e-12)


def test_evaluate_order_independence():
    gt = [
        GroundTruthJoint((0, 20), "revolute", np.array([0.0, 1.0, 0.0]), np.zeros(3)),
        GroundTruthJoint((50, 80), "prismatic", np.array([1.0, 0.0, 0.0]), None),
    ]
    preds = [
        joint(1, 21, "revolute", [0.0, 1.0, 0.0], [0.0, 0.0, 0.1]),
        joint(49, 79, "prismatic", [0.9, 0.1, 0.0]),
    ]
    a = evaluate(preds, gt)
    b = evaluate(list(reversed(preds)), gt)
    for ra, rb in zip(a.records, b.records):
        assert ra.gt_index == rb.gt_index
        assert ra.theta_err == rb.theta_err
        assert ra.d_l2 == rb.d_l2


def test_evaluate_rejects_malformed_entries():
    gt = [GroundTruthJoint((0, 10), "prismatic", np.array([1.0, 0.0, 0.0]), None)]
    with pytest.raises(ValueError, match="prediction"):
        evaluate([{"segment": {"start": 0, "end": 10}}], gt)
    with pytest.raises(ValueError, match="unknown type"):
        evaluate([joint(0, 10, "helical", [1.0, 0.0, 0.0])], gt)


@pytest.mark.parametrize("field, value", [
    ("axis_dir", ["0", "0", True]),
    ("axis_dir", [0, 0, True]),
    ("axis_dir", [0.0, "1.0", 0.0]),
    ("axis_point", [0.4, 0.0, False]),
    ("axis_point", ["0.4", 0.0, 1.0]),
], ids=["dir-strings-and-boolean", "dir-boolean", "dir-string", "point-boolean", "point-string"])
def test_joint_entries_read_numbers_only(tmp_path, field, value):
    entry = dict(joint(0, 10, "revolute", [0.0, 0.0, 1.0], [0.4, 0.0, 1.0]), **{field: value})
    with pytest.raises(ValueError) as ei:
        GroundTruthJoint.from_dict(entry)
    assert str(ei.value) == f"{field}: must be 3 finite numbers, got {value!r}"
    dump_json(tmp_path / "gt.json", [entry])
    with pytest.raises(TrackFileError) as ei:
        load_ground_truth(tmp_path / "gt.json")
    assert str(ei.value) == f"{tmp_path / 'gt.json'}[0]: {field}: must be 3 finite numbers, got {value!r}"


# ---------------------------------------------------------------------------
# rendering and file IO


def test_render_report_table():
    gt = [
        GroundTruthJoint((10, 55), "revolute", np.array([0.0, 0.0, 1.0]), np.array([0.4, 0.0, 1.0])),
        GroundTruthJoint((70, 90), "prismatic", np.array([1.0, 0.0, 0.0]), None),
    ]
    preds = [
        joint(10, 55, "revolute", [0.0, 0.0, 1.0], [0.4, 0.0, 1.0]),
        joint(70, 90, "prismatic", [1.0, 0.0, 0.0]),
    ]
    text = render_report(evaluate(preds, gt))
    lines = text.splitlines()
    assert "theta_err[deg]" in lines[0] and "d_L2[m]" in lines[0]
    rev_row = next(l for l in lines if l.startswith("revolute"))
    pri_row = next(l for l in lines if l.startswith("prismatic"))
    assert "0.0000" in rev_row
    assert "--" in pri_row  # no line distance for prismatic references
    assert "matched 2, unmatched gt 0, unmatched pred 0" in lines[-1]


def test_render_report_empty():
    text = render_report(EvalReport([], {}, 3, 1))
    assert "(no matched pairs)" in text
    assert "unmatched gt 3" in text


def test_load_predictions_wrapped_and_bare(tmp_path):
    entries = [joint(0, 10, "prismatic", [1.0, 0.0, 0.0])]
    wrapped = tmp_path / "wrapped.json"
    bare = tmp_path / "bare.json"
    dump_json(wrapped, {"version": 1, "results": entries})
    dump_json(bare, entries)
    assert load_predictions(wrapped) == entries
    assert load_predictions(bare) == entries

    bad = tmp_path / "bad.json"
    dump_json(bad, {"version": 1})
    with pytest.raises(TrackFileError, match="results"):
        load_predictions(bad)
    dump_json(bad, "nope")
    with pytest.raises(TrackFileError, match="list"):
        load_predictions(bad)
