import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_parse_verdict, stdlib_parse_verdict

from sacreddetect.judge.verdicts import LABELS, REASONS, Verdict, parse_verdict

CASES = json.loads((Path(__file__).parent / "data" / "verdict_cases.json").read_text())


def test_fixture_has_thirty_cases():
    assert len(CASES) == 30


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_hand_built_cases(case):
    verdict = parse_verdict("s1", case["raw_text"])
    assert verdict.label == case["label"]
    if case["label"] == "malformed":
        assert verdict.certainty is None
        assert verdict.argumentation is None
        assert verdict.reason == case["reason"]
    else:
        assert verdict.certainty == case["certainty"]
        assert verdict.argumentation == case["argumentation"]
        assert verdict.reason is None


def test_valid_label_implies_certainty_and_argumentation():
    for case in CASES:
        verdict = parse_verdict("s", case["raw_text"])
        if verdict.label in ("yes", "no"):
            assert verdict.certainty is not None
            assert verdict.argumentation is not None


@given(st.text(max_size=300))
def test_never_raises_on_arbitrary_text(text):
    verdict = parse_verdict("s", text)
    assert verdict.label in LABELS


@pytest.mark.parametrize("certainty", ["Infinity", "-Infinity", "NaN", "1e999", '"inf%"', '"nan"'])
def test_non_finite_certainty_is_malformed(certainty):
    text = f'{{"Religious": "Yes", "Certainty": {certainty}, "Argumentation": "a"}}'
    assert parse_verdict("s", text).label == "malformed"


def test_never_raises_on_random_bytes_seeded():
    rng = random.Random(99)
    for _ in range(2000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(120)))
        text = blob.decode("latin-1")
        verdict = parse_verdict("s", text)
        assert verdict.label in LABELS


@given(
    label=st.sampled_from(["yes", "no"]),
    certainty=st.integers(min_value=0, max_value=100),
    argumentation=st.text(min_size=1, max_size=80).filter(lambda s: s.strip()),
)
def test_round_trip(label, certainty, argumentation):
    # a reply in the response schema, as the prompts ask for it
    rendered = json.dumps(
        {"Religious": label.capitalize(), "Certainty": f"{certainty}%", "Argumentation": argumentation},
        ensure_ascii=False,
    )
    again = parse_verdict("sid", rendered)
    assert again.label == label
    assert again.certainty == certainty
    assert again.argumentation == argumentation


# Pieces of replies: JSON punctuation, escapes and control characters,
# well-formed verdicts with varied key case and values, code fences and prose.
_keys = st.sampled_from(["Religious", "religious", "CERTAINTY", "Certainty", "Argumentation", "x"])
_values = st.one_of(
    st.sampled_from(["Yes", "no", " YES ", "maybe", "90%", "", "100 %"]),
    st.integers(-5, 150),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=10),
)
_objects = st.dictionaries(_keys, _values, max_size=4).map(json.dumps)
_pieces = st.one_of(
    st.text(alphabet='{}[]":,\\/ntu0123456789abef\n\t\x00\x1f', max_size=12),
    _objects,
    _objects.map(lambda obj: obj[:-1]),  # cut before its closing brace
    st.sampled_from(["```json\n", "\n```", "Sure! ", " Hope this helps.", "{", "}", '"', "\\"]),
    st.text(max_size=8),
)


@settings(max_examples=500)
@given(st.lists(_pieces, max_size=6).map("".join))
def test_matches_the_balanced_block_oracle(text):
    assert parse_verdict("s", text) == naive_parse_verdict("s", text)


def test_fenced_and_wrapped_replies_match_the_oracle():
    body = '{"Religious": "Yes", "Certainty": "85%", "Argumentation": "a {brace} \\"q\\""}'
    for text in (
        f"```json\n{body}\n```",
        f"Here is my verdict: {body} Hope this helps.",
        f"{{not json}} {body}",  # the first block decides
        body[:-1],
        '{"a": ' + "[" * 100_000 + "]" * 100_000 + "}",  # nested too deep to decode
    ):
        assert parse_verdict("s", text) == naive_parse_verdict("s", text)
    assert parse_verdict("s", f"```json\n{body}\n```").label == "yes"
    assert parse_verdict("s", f"Sure: {body}").label == "yes"  # prose-wrapped JSON reads as yes
    assert parse_verdict("s", f"{{not json}} {body}").label == "malformed"


# --- orjson first, the stdlib json for what orjson refuses --------------------
# Pieces of JSON text that orjson refuses or decodes differently from the
# stdlib: NaN and Infinity literals, numbers beyond a double, ints beyond
# 64 bits (short of float()'s range, past which the stdlib-only parser
# raised), lone surrogates escaped and raw, and nesting around the depth at
# which orjson hands text to the stdlib and past the stdlib's own limit
# (which hypothesis raises by a few thousand while a test runs).
DEEP = "[" * 100_000 + "]" * 100_000
NESTED = st.sampled_from(["[" * 200 + "]" * 200, "[" * 300 + "]" * 300, '{"a": ' * 200 + "1" + "}" * 200, DEEP])
JSON_VALUES = st.one_of(
    st.sampled_from(
        [
            '"Yes"', '"no"', '" YES "', '"maybe"', '"90%"', '"85.5 %"', '"inf%"', '"1e400%"', '""',
            "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "-0", "-0.0", "85.5",
            "true", "null", "[]", "{}", '[1, [2, {"a": {}}]]',
            '"\\ud800 broken"', '"\\udfff"', '"a\\ud800\\u0041"', '"\\ud83d\\ude00"', '"\ud800"',
        ]
    ),
    NESTED,
    st.integers(-(10**300), 10**300).map(str),
    st.integers(-150, 150).map(str),
    st.floats().map(json.dumps),
    st.text(max_size=12).map(json.dumps),
    st.text(max_size=12).map(lambda s: json.dumps(s, ensure_ascii=False)),
)
# duplicate and case-variant keys: the last one of a lower-cased key wins
_KEYS = st.sampled_from(
    ["Religious", "religious", "RELIGIOUS", "Certainty", "CERTAINTY", "Argumentation",
     "argumentation", "note", "\ud800", ""]
).map(json.dumps)
_VALID_MEMBERS = [('"Religious"', '"Yes"'), ('"Certainty"', '"90%"'), ('"Argumentation"', '"a"')]
JSON_OBJECTS = st.tuples(
    st.sampled_from([[], _VALID_MEMBERS]),
    st.lists(st.tuples(_KEYS, JSON_VALUES), max_size=4) | st.tuples(_KEYS, NESTED).map(lambda kv: [kv]),
).map(lambda parts: "{" + ", ".join(f"{k}: {v}" for k, v in parts[0] + parts[1]) + "}")
# bare half the time, as most replies are
REPLIES = st.tuples(
    st.just("") | st.sampled_from([" \n", "\ufeff", "```json\n", "Sure: ", "{not json} ", "\u2028"]),
    JSON_OBJECTS | JSON_VALUES,
    st.just("") | st.sampled_from(["\n", "\n```", " Hope this helps.", " {", "}", "\ufeff", "\u2028", " \t"]),
).map("".join)


def encodes_to_utf8(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def without_lone_surrogates(verdict: Verdict) -> Verdict:
    """The stdlib-only parser's verdict as parse_verdict gives it: an
    argumentation holding a lone surrogate is bad_argumentation."""
    if verdict.argumentation is not None and not encodes_to_utf8(verdict.argumentation):
        return Verdict(verdict.sentence_id, "malformed", None, None, "bad_argumentation")
    return verdict


@settings(max_examples=600, deadline=None)
@given(text=REPLIES)
def test_equals_the_stdlib_only_parser(text):
    assert parse_verdict("s", text) == without_lone_surrogates(stdlib_parse_verdict("s", text))


@pytest.mark.parametrize("argumentation", ['"\\ud800 broken"', '"\ud800 broken"', '"\\udc00"'])
def test_a_lone_surrogate_argumentation_is_bad_argumentation(argumentation):
    text = f'{{"Religious": "Yes", "Certainty": "90%", "Argumentation": {argumentation}}}'
    verdict = parse_verdict("s", text)
    assert (verdict.label, verdict.reason) == ("malformed", "bad_argumentation")
    # a surrogate pair is one character, and fine
    paired = text.replace(argumentation, '"\\ud83d\\ude00"')
    assert parse_verdict("s", paired).argumentation == "\U0001f600"


def test_integers_past_float_range_and_str_digit_limit_never_raise():
    def reply(certainty: str) -> str:
        return f'{{"Religious": "No", "Certainty": {certainty}, "Argumentation": "a"}}'

    # float() overflows past 1e308; the integer clamps as a smaller one would
    assert parse_verdict("s", reply("1" + "0" * 400)).certainty == 100
    assert parse_verdict("s", reply("-1" + "0" * 400)).certainty == 0
    # past sys.get_int_max_str_digits() the stdlib json refuses to read it
    assert parse_verdict("s", reply("9" * 5_000)).reason == "bad_json"


@pytest.mark.parametrize("depth", [100, 1_100, 100_000])
def test_nested_replies_equal_the_stdlib_only_parser(depth):
    """Outside hypothesis, which raises the recursion limit while a test
    runs, 1,100 levels are past the stdlib decoder's limit."""
    nested = "[" * depth + "]" * depth
    text = f'{{"Religious": "Yes", "Certainty": "90%", "Argumentation": "a", "note": {nested}}}'
    assert parse_verdict("s", text) == stdlib_parse_verdict("s", text)


# --- labels/<model>/ rows ------------------------------------------------------
# Text with what JSON must escape or may pass raw: quotes, backslashes,
# control characters, U+2028 and U+0085, and characters beyond the BMP.
_ROW_TEXT = st.text(
    st.one_of(
        st.sampled_from(
            ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u2028", "\u0085", "é", "\U0001f600"]
        ),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=20,
)
VERDICTS = st.builds(
    Verdict,
    sentence_id=_ROW_TEXT,
    label=st.sampled_from(LABELS),
    certainty=st.none() | st.integers(0, 100),
    argumentation=st.none() | _ROW_TEXT,
    reason=st.none() | st.sampled_from(REASONS),
)


def assert_row_equals_json_dumps(verdict: Verdict) -> None:
    row = {
        "sentence_id": verdict.sentence_id,
        "label": verdict.label,
        "certainty": verdict.certainty,
        "argumentation": verdict.argumentation,
        "reason": verdict.reason,
    }
    assert verdict.to_line() == json.dumps(row, ensure_ascii=False) + "\n"


@settings(max_examples=400)
@given(verdict=VERDICTS)
def test_label_rows_equal_json_dumps_of_the_row_dict(verdict):
    assert_row_equals_json_dumps(verdict)


@pytest.mark.parametrize("reason", REASONS)
def test_the_row_of_every_reason_equals_json_dumps(reason):
    sentence_id = 'a"\\\x01\u2028\u0085\U0001f600'
    assert_row_equals_json_dumps(Verdict(sentence_id, "malformed", None, None, reason))
