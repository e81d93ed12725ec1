"""Small JSON helpers shared by the file formats.

Floats are written with Python's shortest round-trip repr, so a value survives
save -> load bit-exactly; callers map NaN to null (JSON has no NaN) before
writing. Files are compact one-line JSON, decoded as UTF-8 whatever the locale.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

from .errors import TrackFileError


def load_json(path) -> object:
    """Parse a JSON file; an unreadable or malformed file raises TrackFileError.
    The cyclic collector is paused: a parse makes no cycles, so its
    collections would free nothing."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise TrackFileError(f"{path}: cannot read: {e}") from e
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(data)
    except json.JSONDecodeError as e:
        raise TrackFileError(f"{path}: malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except ValueError as e:  # not UTF-8, or an integer literal too long for Python to convert
        raise TrackFileError(f"{path}: malformed JSON: {e}") from e
    finally:
        if gc_was_enabled:
            gc.enable()


def dump_json(path, obj) -> None:
    """Write ``obj`` as compact one-line JSON (Python's C encoder writes
    this form; ``indent`` would switch to its pure-Python encoder)."""
    Path(path).write_text(json.dumps(obj, allow_nan=False, separators=(",", ":")) + "\n")
