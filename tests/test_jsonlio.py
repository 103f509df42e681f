import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_batch import TRICKY

from sacreddetect.errors import CorruptLineError
from sacreddetect.jsonlio import encode_json, read_jsonl, write_json, write_jsonl, write_text

ROWS = [
    {"text": "Schöpfung, 創造 and \U0001f600", "n": 1},
    {"text": "a\u2028b\u2029c\x85d", "quote": '"\\', "ctrl": "\x00\x1f\x7f"},
    {"argumentation": None, "certainty": 0.8, "tiny": 1e-300, "big": 1.5e300, "neg": -0.0},
    {"nested": [[1, 2.5, None], {"k": ["é", True, False]}], "": []},
    {},
]


def test_write_jsonl_bytes_equal_json_dumps(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, iter(ROWS))
    expected = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in ROWS)
    assert path.read_bytes() == expected.encode("utf-8")


# Recursive JSON values: strings with control characters, U+2028 and
# non-BMP characters, ints beyond 64 bits, floats with -0.0, subnormals,
# NaN and infinities, and keys of every type json.dumps turns into a str.
_STRINGS = st.text(TRICKY, max_size=10)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.sampled_from([-0.0, 1e-300, 5e-324, 1.5e300, float("nan"), float("inf"), float("-inf")])
    | _STRINGS
)
_KEYS = _STRINGS | st.integers(-(2**70), 2**70) | st.floats() | st.booleans() | st.none()
RECURSIVE_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(value=RECURSIVE_VALUES)
def test_encode_json_equals_json_dumps(value):
    # lone surrogates included: the encoder passes them through as json does
    assert encode_json(value) == json.dumps(value, ensure_ascii=False)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.dictionaries(_STRINGS, RECURSIVE_VALUES, max_size=4), max_size=3))
def test_write_jsonl_bytes_equal_json_dumps_of_recursive_rows(rows):
    expected = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    try:
        expected_bytes = expected.encode("utf-8")
    except UnicodeEncodeError:
        assume(False)  # a lone surrogate, which no UTF-8 file can hold
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        write_jsonl(path, rows)
        assert path.read_bytes() == expected_bytes


@pytest.mark.parametrize(
    "value",
    [object(), {"a": [1, {2, 3}]}, [b"bytes"], {"k": {"n": 1j}}, {(1, 2): "tuple key"}],
    ids=["object", "nested set", "bytes", "complex", "tuple key"],
)
def test_encode_json_raises_the_type_error_json_dumps_raises(value):
    with pytest.raises(TypeError) as dumped:
        json.dumps(value, ensure_ascii=False)
    with pytest.raises(TypeError) as encoded:
        encode_json(value)
    assert str(encoded.value) == str(dumped.value)


def test_write_text_pieces_equal_the_joined_string(tmp_path):
    pieces = ["first\u2028line", "\n", "", "Σ second", "\n"]
    joined, streamed = tmp_path / "joined.txt", tmp_path / "streamed.txt"
    write_text(joined, "".join(pieces))
    write_text(streamed, iter(pieces))
    assert streamed.read_bytes() == joined.read_bytes() == "".join(pieces).encode("utf-8")
    write_text(streamed, iter([]))
    assert streamed.read_bytes() == b""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["joined.txt", "streamed.txt"]


def test_write_json_bytes_equal_json_dumps(tmp_path):
    bundle = {
        "terms": {"mother earth": {"samples": [{"text": "Σ Schöpfung 創造 \U0001f600", "n": 3}]}},
        "ratios": [0.1, 1e-300, 1.5e300, -0.0, 2.0, None, "inf", True],
        "nested": {"b": [], "a": {}, "c": [[{"z": None, "é": "ü"}]]},
        "": "empty key",
    }
    path = tmp_path / "stats.json"
    write_json(path, bundle)
    expected = json.dumps(bundle, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


# a UTF-8 file cannot hold a lone surrogate, so no row the pipeline writes does
TEXT = st.text(TRICKY, max_size=12).map(
    lambda s: "".join(c for c in s if not "\ud800" <= c <= "\udfff")
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**53), 2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | TEXT
)
JSON_VALUES = SCALARS | st.lists(SCALARS | st.lists(SCALARS, max_size=3), max_size=3)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.dictionaries(TEXT, JSON_VALUES, max_size=4), max_size=4))
def test_rows_read_back_equal_the_written_rows_and_json(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        write_jsonl(path, rows)
        with open(path, "rb") as fh:
            decoded = [json.loads(line.decode("utf-8")) for line in fh]
        # repr tells 1 from 1.0 and 0.0 from -0.0, which == does not
        assert repr(list(read_jsonl(path))) == repr(rows) == repr(decoded)


# lines the pipeline never writes, which orjson refuses; the stdlib json
# refused only the first two and decoded the rest
BAD_LINES = {
    # the first two of the three bytes of the euro sign
    "truncated multibyte character": b'{"text": "\xe2\x82"}',
    "trailing garbage": b'{"n": 1} x',
    "NaN literal": b'{"certainty": NaN}',
    "Infinity literal": b'{"certainty": Infinity}',
    "-Infinity literal": b'{"certainty": -Infinity}',
    "lone surrogate escape": b'{"text": "\\ud800"}',
}


@pytest.mark.parametrize("line", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_lines_orjson_refuses_name_the_path_and_line(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"n": 1}\n' + line + b'\n{"n": 3}\n')
    with pytest.raises(CorruptLineError, match=f"{re.escape(str(path))}: line 2: "):
        list(read_jsonl(path))
    bad = []
    assert list(read_jsonl(path, lambda *where: bad.append(where))) == [{"n": 1}, {"n": 3}]
    assert bad == [(path, 2)]


def test_ints_beyond_64_bits_read_as_the_nearest_float(tmp_path):
    """orjson's one lossy case, where json kept the int; the pipeline writes
    only positions, counts, HTTP statuses and 0-100 certainties. Such an
    int never comes back as another int: orjson 3.8.3 reads the nearest
    float, and a release that refused it would skip the line."""
    path = tmp_path / "rows.jsonl"
    path.write_bytes(
        b'{"n": 18446744073709551615, "m": -9223372036854775808}\n'
        b'{"n": 18446744073709551616, "m": -9223372036854775809}\n'
    )
    exact, *beyond = read_jsonl(path, lambda *_: None)
    assert exact == {"n": 2**64 - 1, "m": -(2**63)}
    assert type(exact["n"]) is type(exact["m"]) is int
    assert beyond in ([{"n": 2.0**64, "m": -(2.0**63)}], [])
    assert all(type(value) is float for row in beyond for value in row.values())
