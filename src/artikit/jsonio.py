"""Small JSON helpers shared by the file formats.

``load_json`` gives what the standard ``json`` gives, errors included. It
parses with orjson, which agrees with ``json`` on all it accepts except an
integer literal outside [-2**63, 2**64 - 1], read as a float of magnitude
2**63 or more; so a document where orjson finds such a float, and all that
orjson refuses (NaN, Infinity, 1e400, a byte-order mark, UTF-16, lone
surrogates, malformed files), is parsed by ``json``. ``trackio.save_trackset``
writes track files with orjson, each column as base64, so no non-finite
value reaches a JSON number. ``dump_json`` writes all other files with
``json``: ``allow_nan=False`` makes callers map NaN to null, and
ground-truth seeds may exceed 64 bits, which orjson refuses. Both write
shortest round-trip floats, so a value survives save -> load bit-exactly.
Files are compact one-line JSON, read as UTF-8 whatever the locale.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from pathlib import Path

import orjson

from .errors import TrackFileError


def _has_huge_float(doc) -> bool:
    """Whether the parsed document holds a float of magnitude 2**63 or more,
    which is what orjson makes of an integer literal beyond 64 bits."""
    stack = [doc]
    while stack:
        x = stack.pop()
        if type(x) is list:
            stack.extend(x)
        elif type(x) is dict:
            stack.extend(x.values())
        elif type(x) is float and abs(x) >= 2.0**63:
            return True
    return False


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
        try:
            doc = orjson.loads(data)
        except orjson.JSONDecodeError:
            pass  # the standard parser accepts it or names the fault
        else:
            if not _has_huge_float(doc):
                return doc
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
