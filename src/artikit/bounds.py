"""Numeric config fields: kind and bounds declared next to each field.

``bounded`` makes the dataclass field; ``check_bounds`` checks every such
field of a config object in one place. It rejects booleans (JSON ``true`` is
an int to Python, not a number to a config), non-numbers, non-integers where
an integer is declared, and values outside the declared range, NaN
included. Ranges are written as they read in the error message: ">= 1",
"> 0", "[0, 100]", "(0, 1]", "[0, 1)"; an infinity passes wherever the
range is open upward.
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


def check_bounds(obj) -> None:
    """Raise ValueError, in one line, for the first ``bounded`` field of
    ``obj`` whose value is of the wrong kind or out of range."""
    for f in dataclasses.fields(obj):
        if "bounds" not in f.metadata:
            continue
        spec, kind, message = f.metadata["bounds"]
        value = getattr(obj, f.name)
        if isinstance(value, bool) or not isinstance(value, Integral if kind is int else Real):
            raise ValueError(f"{f.name} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
        if spec is not None and not _within(value, spec):  # NaN fails every comparison
            if message:
                raise ValueError(message.format(**vars(obj)))
            raise ValueError(f"{f.name} must be {spec if spec[0] == '>' else 'in ' + spec}, got {value}")
