"""Small JSON helpers shared by the file formats.

Floats are written with Python's shortest round-trip repr, so a value survives
save -> load bit-exactly; callers map NaN to null (JSON has no NaN) before
writing. Files are compact one-line JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import TrackFileError


def load_json(path) -> object:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise TrackFileError(f"{path}: cannot read: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise TrackFileError(f"{path}: malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except ValueError as e:  # an integer literal too long for Python to convert
        raise TrackFileError(f"{path}: malformed JSON: {e}") from e


def dump_json(path, obj) -> None:
    """Write ``obj`` as compact one-line JSON (Python's C encoder writes
    this form; ``indent`` would switch to its pure-Python encoder)."""
    Path(path).write_text(json.dumps(obj, allow_nan=False, separators=(",", ":")) + "\n")
