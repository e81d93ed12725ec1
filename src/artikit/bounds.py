"""Config checks: numeric kinds and bounds, and unknown keys.

``bounded`` makes the dataclass field; ``check_bounds`` checks every such
field of a config object in one place, and ``check_value`` one value that is
no field, such as a scene file's frame count. Both reject booleans (JSON
``true`` is an int to Python, not a number to a config), non-numbers,
non-integers where an integer is declared, and values outside the declared
range, NaN included. Ranges are written as they read in the error message:
">= 1", "> 0", "[0, 100]", "(0, 1]", "[0, 1)"; an infinity passes wherever
the range is open upward. ``check_keys`` rejects the keys of a config
document that nothing reads.
"""

from __future__ import annotations

import dataclasses
from numbers import Integral, Real


def bounded(default, spec: str | None = None, kind: type = float, message: str | None = None):
    """A config field of ``kind`` (int or float) within ``spec``; ``message``,
    a format string over the object's fields, replaces the range message."""
    return dataclasses.field(default=default, metadata={"bounds": (spec, kind, message)})


def _within(value, spec: str) -> bool:
    if spec[0] == ">":
        op, bound = spec.split()
        return value > float(bound) if op == ">" else value >= float(bound)
    lo, hi = (float(x) for x in spec[1:-1].split(","))
    above = lo < value if spec[0] == "(" else lo <= value
    return above and (value < hi if spec[-1] == ")" else value <= hi)


def check_value(name: str, value, spec: str | None = None, kind: type = float, message: str | None = None) -> None:
    """Raise ValueError, in one line, if ``value`` is of the wrong kind or out
    of range; ``message`` replaces the range message."""
    if isinstance(value, bool) or not isinstance(value, Integral if kind is int else Real):
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    if spec is not None and not _within(value, spec):  # NaN fails every comparison
        raise ValueError(message or f"{name} must be {spec if spec[0] == '>' else 'in ' + spec}, got {value}")


def check_bounds(obj) -> None:
    """``check_value`` of every ``bounded`` field of ``obj``, in field order."""
    for f in dataclasses.fields(obj):
        if "bounds" in f.metadata:
            spec, kind, message = f.metadata["bounds"]
            check_value(f.name, getattr(obj, f.name), spec, kind, message and message.format(**vars(obj)))


def check_keys(doc: dict, known, where: str = "") -> None:
    """Raise ValueError naming the first key of ``doc`` not in ``known``,
    prefixed by ``where``: a silently ignored typo in a config file would
    change results without a trace."""
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown config key {where + key!r}")
