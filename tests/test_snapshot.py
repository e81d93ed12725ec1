"""Refactor contract: every suite scene, clean and noisy, in both modes,
keeps its joint type, flags and skips, and its axis and magnitudes within
1e-9 of fixtures/suite_snapshot.json.

A change that alters the estimator on purpose regenerates the fixture:

    PYTHONPATH=src:tests python -c "import json, suite_util; \\
        json.dump(suite_util.derive_suite_snapshot(), \\
        open('tests/fixtures/suite_snapshot.json', 'w'), indent=1)"
"""

import json
from pathlib import Path

import numpy as np
import pytest

import suite_util

SNAPSHOT = json.loads((Path(__file__).parent / "fixtures" / "suite_snapshot.json").read_text())
TOL = 1e-9
NUMERIC = ("axis_dir", "axis_point", "thetas")


def record_mismatch(got: dict, want: dict) -> str | None:
    """What differs between two snapshot records, or None."""
    exact = {k: v for k, v in got.items() if k not in NUMERIC}
    if exact != {k: v for k, v in want.items() if k not in NUMERIC}:
        return f"{exact} != {want}"
    for key in NUMERIC:
        if key not in want:
            continue
        a, b = got[key], want[key]
        if (a is None) != (b is None):
            return f"{key}: {a} != {b}"
        if a is not None and (
            len(a) != len(b) or np.max(np.abs(np.subtract(a, b)), initial=0.0) > TOL
        ):
            return f"{key}: {a} != {b}"
    return None


def test_record_mismatch_reports_each_kind_of_difference():
    rec = {"type": "revolute", "flags": [], "axis_dir": [0.0, 0.0, 1.0],
           "axis_point": [0.1, 0.2, 0.3], "thetas": [0.0, 0.5]}
    assert record_mismatch(rec, dict(rec)) is None
    assert record_mismatch(dict(rec, thetas=[0.0, 0.5 + 1e-10]), rec) is None
    assert "thetas" in record_mismatch(dict(rec, thetas=[0.0, 0.5 + 1e-8]), rec)
    assert "thetas" in record_mismatch(dict(rec, thetas=[0.0]), rec)
    assert "axis_point" in record_mismatch(dict(rec, axis_point=None), rec)
    assert record_mismatch(dict(rec, flags=["low_motion"]), rec) is not None
    assert record_mismatch({"stage": "estimate", "error": "DegenerateStepError"}, rec) is not None


@pytest.mark.parametrize("key", sorted(SNAPSHOT))
def test_suite_matches_snapshot(key):
    suite, mode = key.split("/")
    got = suite_util.suite_snapshot(suite == "noisy", mode)
    bad = []
    for i, (g, w) in enumerate(zip(got, SNAPSHOT[key])):
        if len(g) != len(w):
            bad.append(f"scene {i}: {len(g)} records != {len(w)}")
            continue
        bad += [f"scene {i}: {m}" for m in map(record_mismatch, g, w) if m]
    assert len(got) == len(SNAPSHOT[key])
    assert bad == []
