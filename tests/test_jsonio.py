"""load_json parses with orjson and falls back to the standard parser: the
result equals the standard parser's on every input, floats bit for bit and
integers of any size, and the standard parser decides every error."""

import json
import struct
import tempfile
from pathlib import Path

import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artikit import jsonio
from artikit.errors import TrackFileError

EQUIVALENCE = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def same(a, b) -> bool:
    """Equal values of equal types, floats compared by their bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def load_bytes(data: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.json"
        path.write_bytes(data)
        return jsonio.load_json(path)


floats = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]))
integers = st.integers() | st.sampled_from([10**18, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, -2**63, -2**63 - 1])
leaves = (floats | integers | st.text() | st.none() | st.booleans())
documents = st.recursive(leaves, lambda kids: st.lists(kids, max_size=4)
                         | st.dictionaries(st.text(max_size=6), kids, max_size=4), max_leaves=30)


@EQUIVALENCE
@given(doc=documents, ascii_only=st.booleans())
def test_load_json_equals_the_standard_parser(doc, ascii_only):
    data = json.dumps(doc, ensure_ascii=ascii_only).encode()
    assert same(load_bytes(data), json.loads(data))


# the spellings a file may use for a float, besides Python's shortest repr
SPELLINGS = ["%r", "%.17g", "%.20g", "%.25e", "%.3f", "%.0f"]


@EQUIVALENCE
@given(xs=st.lists(floats, min_size=1, max_size=20), fmt=st.sampled_from(SPELLINGS))
def test_load_json_reads_every_float_spelling_bit_for_bit(xs, fmt):
    data = ("[" + ",".join(fmt % x for x in xs) + "]").encode()
    assert same(load_bytes(data), json.loads(data))


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(b"[1.5, NaN]", id="nan"),
        pytest.param(b'{"a": Infinity}', id="infinity"),
        pytest.param(b'{"a": -Infinity}', id="minus-infinity"),
        pytest.param(b"[1e400, -1e400]", id="float-overflow"),
        pytest.param(b"[" + b"9" * 400 + b"]", id="integer-beyond-float"),
        pytest.param(b'\xef\xbb\xbf{"a": [1, 2.5]}', id="utf8-bom"),
        pytest.param('{"a": ["é", 2.5]}'.encode("utf-16"), id="utf16-bom"),
        pytest.param(b'["\\ud800"]', id="lone-surrogate-escape"),
        pytest.param(b'["\xed\xa0\x80"]', id="lone-surrogate-utf8"),
    ],
)
def test_load_json_reads_what_orjson_refuses_as_the_standard_parser_does(data):
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(data)
    got, want = load_bytes(data), json.loads(data)
    assert same(got, want) or repr(got) == repr(want)  # NaN is not equal to itself


@pytest.mark.parametrize(
    "data, message",
    [
        (b"", "malformed JSON at line 1 column 1: Expecting value"),
        (b" \n", "malformed JSON at line 2 column 1: Expecting value"),
        (b'{"a": }', "malformed JSON at line 1 column 7: Expecting value"),
        (b'{"a": 1} x', "malformed JSON at line 1 column 10: Extra data"),
        (b'{"a": [1, 2', "malformed JSON at line 1 column 12: Expecting ',' delimiter"),
        (b"[1, 2,]", "malformed JSON at line 1 column 7: Expecting value"),
        (b"[01]", "malformed JSON at line 1 column 3: Expecting ',' delimiter"),
        (b"{'a': 1}", "malformed JSON at line 1 column 2: Expecting property name enclosed in double quotes"),
        (b"[nan]", "malformed JSON at line 1 column 2: Expecting value"),
        (b'["a\x01"]', "malformed JSON at line 1 column 4: Invalid control character at"),
        (b'["\\x"]', "malformed JSON at line 1 column 3: Invalid \\escape"),
        (b'{"a": "\xff"}', "malformed JSON: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
        (b"[" + b"7" * 5000 + b"]", "malformed JSON: Exceeds the limit (4300 digits) for integer string "
                                    "conversion: value has 5000 digits; use sys.set_int_max_str_digits() "
                                    "to increase the limit"),
    ],
    ids=["empty", "blank", "expecting-value", "extra-data", "unterminated", "trailing-comma", "leading-zero",
         "single-quotes", "lowercase-nan", "control-character", "bad-escape", "invalid-utf8", "5000-digits"],
)
def test_load_json_errors_are_the_standard_parsers(tmp_path, data, message):
    p = tmp_path / "bad.json"
    p.write_bytes(data)
    with pytest.raises(TrackFileError) as ei:
        jsonio.load_json(p)
    assert str(ei.value) == f"{p}: {message}"
    assert not isinstance(ei.value.__cause__, orjson.JSONDecodeError)


@pytest.mark.parametrize("n", [2**63, 2**64, 2**64 + 1, -2**63 - 1, 3**70, -(10**300)],
                         ids=["2**63", "2**64", "2**64+1", "-2**63-1", "3**70", "-10**300"])
@pytest.mark.parametrize("rest", [b"", b", NaN"], ids=["orjson-accepts-the-rest", "orjson-refuses-the-rest"])
def test_load_json_reads_an_integer_beyond_64_bits_exactly(n, rest):
    # orjson would read a literal outside [-2**63, 2**64 - 1] as a float
    assert same(load_bytes(b"[%d%s]" % (n, rest))[0], n)
    assert same(load_bytes(b"%d" % n), n)


@pytest.mark.parametrize(
    "data, parsers",
    [
        pytest.param(b"[123456789012345678, -123456789012345678]", ["orjson"], id="18-digit-integers"),
        pytest.param(b"[0.00012345678901234567, 1.2345678901234567e-05]", ["orjson"], id="long-fractions"),
        pytest.param(b"[1234567890123456789]", ["orjson"], id="19-digit-integer"),
        pytest.param(b"-1234567890123456789", ["orjson"], id="19-digit-integer-alone"),
        pytest.param(b"[98765432109876543210]", ["orjson", "json"], id="20-digit-integer"),
        pytest.param(b"[12345678901234567890.5]", ["orjson", "json"], id="false-alarm-float"),
        pytest.param(b'{"a": "x1234567890123456789"}', ["orjson"], id="false-alarm-string"),
    ],
)
def test_load_json_sends_integer_literals_of_19_digits_to_the_standard_parser(tmp_path, monkeypatch, data, parsers):
    """orjson parses every document first; json parses it again only when
    orjson's result holds a float of magnitude 2**63 or more, which an
    integer literal beyond 64 bits becomes (and which a float literal that
    large already is). Integers of 19 digits within 64 bits and digits in
    strings stay with orjson."""
    ran = []
    for module in (orjson, json):
        monkeypatch.setattr(module, "loads", lambda s, loads=module.loads, name=module.__name__: ran.append(name) or loads(s))
    p = tmp_path / "x.json"
    p.write_bytes(data)
    got = jsonio.load_json(p)
    assert ran == parsers
    monkeypatch.undo()
    assert same(got, json.loads(data))
