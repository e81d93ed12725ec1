"""Twists and rigid transforms: the geometry under everything else.

A 1-DoF joint is a unit twist xi = (omega, v); scaling by theta and
exponentiating gives the rigid motion of the attached part. This script
builds a door hinge, swings a handle point through it, and shows that the
log map recovers exactly the twist that generated each pose. A pose is a row
of a ``pose_stack``: a quaternion ``.q`` and a translation ``.t``.
"""

import numpy as np

from artikit.lie import Twist, apply, exp_map, inverse, log_map, normalize_twist, pose_stack

np.set_printoptions(precision=4, suppress=True)

# a hinge: vertical axis through the door frame corner at (0.8, 0, 0)
axis_dir = np.array([0.0, 0.0, 1.0])
axis_point = np.array([0.8, 0.0, 0.0])
hinge = Twist(axis_dir, -np.cross(axis_dir, axis_point))
print("hinge twist:", hinge.as_vector())

# the velocity field vanishes on the axis itself
print("velocity at the hinge line:", np.cross(hinge.omega, axis_point) + hinge.v)

handle = np.array([0.05, 0.0, 1.0])  # far edge of the door, 1 m up
print("\nswinging the handle:")
for deg in (0, 30, 60, 90):
    T = exp_map(hinge, np.deg2rad(deg))
    print(f"  {deg:3d} deg -> {apply(T, handle)}")

# log is the exact inverse on the principal branch
T = exp_map(hinge, 1.2)
back = log_map(T)
print("\nround trip error:", np.abs(back.as_vector() - 1.2 * hinge.as_vector()).max())

# motions about one axis add, and the inverse pose undoes a pose
A = exp_map(hinge, 0.4)
B = exp_map(hinge, 0.7)
print("0.7 after 0.4 equals exp(1.1):",
      np.allclose(apply(B, apply(A, handle)), apply(exp_map(hinge, 1.1), handle)))
print("T^-1 undoes T:", np.allclose(apply(inverse(T), apply(T, handle)), handle))

# a whole swing is one stack: row m is the pose at the m-th angle
q, _, t = exp_map(hinge, np.deg2rad([0.0, 30.0, 60.0, 90.0]))
swing = pose_stack(q, t)
print("row 2 of the stack is the 60 deg pose:", np.allclose(apply(swing[2], handle),
                                                           apply(exp_map(hinge, np.deg2rad(60)), handle)))
print("logs of every row at once:\n", log_map(swing))

# any scaled twist normalizes to a unit-gauge representative plus magnitude
unit, scale = normalize_twist(Twist(2.0 * axis_dir, -np.cross(2.0 * axis_dir, axis_point)))
print("\nnormalize_twist recovers the gauge: |omega| =",
      np.linalg.norm(unit.omega), " scale =", scale)
