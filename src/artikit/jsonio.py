"""Small JSON helpers shared by the file formats.

``load_json`` gives what the standard ``json`` gives, errors included. It
parses with orjson, which agrees with ``json`` on all it accepts except an
integer literal outside [-2**63, 2**64 - 1], read as a float; so a file with
an integer literal of 19 or more digits, and all that orjson refuses (NaN,
Infinity, 1e400, a byte-order mark, UTF-16, lone surrogates, malformed
files), is parsed by ``json``. ``trackio.save_trackset`` writes track files
with orjson, each track's per-frame columns as base64 strings of their
bytes, so no non-finite value reaches a JSON number. ``dump_json`` writes all
other files with ``json``: ``allow_nan=False`` makes callers map NaN to
null, and ground-truth seeds may exceed 64 bits, which orjson refuses.
Both write shortest round-trip floats, so a value survives save -> load
bit-exactly. Files are compact one-line JSON, read as UTF-8 whatever the
locale.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from pathlib import Path

import orjson

from .errors import TrackFileError

# digits -> "0", "." -> ".", any other byte -> "x": an integer literal of 19
# or more digits shows as "x" and 19 zeros (a false alarm, such as digits in a
# string, costs only speed)
_DIGIT_SHAPE = bytes(ord("0" if chr(b) in "0123456789" else "." if chr(b) == "." else "x") for b in range(256))
_LONG_INTEGER = b"x" + b"0" * 19


def _has_long_integer(data: bytes) -> bool:
    shape = data.translate(_DIGIT_SHAPE)
    return shape.startswith(_LONG_INTEGER[1:]) or _LONG_INTEGER in shape


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector (parsing and checking a document
    makes no cycles) and restore the state it found, also on an exception."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def load_json(path) -> object:
    """Parse a JSON file; an unreadable or malformed file raises TrackFileError.
    The cyclic collector is paused during the parse."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise TrackFileError(f"{path}: cannot read: {e}") from e
    with collector_paused():
        if not _has_long_integer(data):
            try:
                return orjson.loads(data)
            except orjson.JSONDecodeError:
                pass  # the standard parser accepts it or names the fault
        try:
            return json.loads(data)
        except json.JSONDecodeError as e:
            raise TrackFileError(f"{path}: malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
        except ValueError as e:  # not UTF-8, or an integer literal too long for Python to convert
            raise TrackFileError(f"{path}: malformed JSON: {e}") from e


def dump_json(path, obj) -> None:
    """Write ``obj`` as compact one-line JSON (Python's C encoder writes
    this form; ``indent`` would switch to its pure-Python encoder)."""
    Path(path).write_text(json.dumps(obj, allow_nan=False, separators=(",", ":")) + "\n")
