import json

from sacreddetect.jsonlio import write_json, write_jsonl, write_text

ROWS = [
    {"text": "Schöpfung, 創造 and \U0001f600", "n": 1},
    {"text": "a\u2028b\u2029c\x85d", "quote": '"\\', "ctrl": "\x00\x1f\x7f"},
    {"argumentation": None, "certainty": 0.8, "tiny": 1e-300, "big": 1.5e300, "neg": -0.0},
    {"nested": [[1, 2.5, None], {"k": ["é", True, False]}], "": []},
    {},
]


def test_write_jsonl_bytes_equal_json_dumps(tmp_path):
    path = tmp_path / "rows.jsonl"
    assert write_jsonl(path, iter(ROWS)) == len(ROWS)
    expected = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in ROWS)
    assert path.read_bytes() == expected.encode("utf-8")


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
