"""The benchmark's own axis-error formulas on hand-made lines."""

import math

import numpy as np
import pytest

from checks import axis_angle_deg, interval_iou, line_distance, point_line_distance

Z = [0.0, 0.0, 1.0]


def test_angle_is_sign_and_length_free():
    assert axis_angle_deg(Z, Z) == 0.0
    assert axis_angle_deg([0.0, 0.0, -3.0], Z) == 0.0
    assert axis_angle_deg([1.0, 0.0, 0.0], Z) == pytest.approx(90.0, abs=1e-12)
    tilted = [math.sin(math.radians(30.0)), 0.0, math.cos(math.radians(30.0))]
    assert axis_angle_deg(tilted, Z) == pytest.approx(30.0, abs=1e-12)
    assert axis_angle_deg([-tilted[0], 0.0, -tilted[2]], Z) == pytest.approx(30.0, abs=1e-12)


def test_angle_keeps_small_angles():
    # acos(cos(x)) loses these to rounding; the atan2 form does not
    tiny = 1e-7
    assert axis_angle_deg([math.sin(tiny), 0.0, math.cos(tiny)], Z) == pytest.approx(
        math.degrees(tiny), rel=1e-9
    )


def test_parallel_lines_are_their_offset_apart():
    assert line_distance([0.3, 0.4, 5.0], Z, [0.0, 0.0, -1.0], Z) == pytest.approx(0.5, abs=1e-12)
    assert line_distance([0.3, 0.4, 5.0], Z, [0.0, 0.0, -1.0], [0.0, 0.0, -2.0]) == pytest.approx(
        0.5, abs=1e-12
    )
    assert line_distance([1.0, 2.0, 3.0], Z, [1.0, 2.0, -7.0], Z) == pytest.approx(0.0, abs=1e-12)


def test_perpendicular_lines():
    # crossing at the origin
    assert line_distance([0.0, 0.0, 4.0], Z, [-2.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == pytest.approx(
        0.0, abs=1e-12
    )
    # the x axis lifted to z = 0.7 against the y axis
    assert line_distance([5.0, 0.0, 0.7], [1.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.0, 1.0, 0.0]) == (
        pytest.approx(0.7, abs=1e-12)
    )


def test_skew_lines_match_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p1, a1, p2, a2 = (rng.normal(size=3) for _ in range(4))
        s = np.linspace(-50.0, 50.0, 400001)
        # distance from line 2 to points of line 1, minimized over a fine grid
        pts = p1 + s[:, None] * a1
        d = pts - p2
        u = a2 / np.linalg.norm(a2)
        brute = np.linalg.norm(d - (d @ u)[:, None] * u, axis=1).min()
        assert line_distance(p1, a1, p2, a2) == pytest.approx(brute, abs=1e-6)
        assert line_distance(p1, a1, p2, a2) <= brute + 1e-12


def test_skew_at_a_known_distance():
    # the x axis and a line at 45 degrees to it in the plane z = 0.25
    assert line_distance([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, -1.0, 0.25], [1.0, 1.0, 0.0]) == (
        pytest.approx(0.25, abs=1e-12)
    )


def test_point_line_distance():
    assert point_line_distance([0.3, 0.4, 9.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]) == pytest.approx(0.5)


def test_interval_iou():
    assert interval_iou((10, 20), (15, 25)) == pytest.approx(6 / 16)
    assert interval_iou((10, 20), (10, 20)) == 1.0
    assert interval_iou((0, 5), (6, 9)) == 0.0
