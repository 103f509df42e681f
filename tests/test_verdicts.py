import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_parse_verdict

from sacreddetect.judge import parse_verdict
from sacreddetect.judge.verdicts import LABELS

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


def test_strict_mode_rejects_prose_wrapping():
    wrapped = 'Sure: {"Religious":"Yes","Certainty":"90%","Argumentation":"a"}'
    assert parse_verdict("s", wrapped).label == "yes"
    assert parse_verdict("s", wrapped, strict=True).reason == "bad_json"
    bare = '{"Religious":"Yes","Certainty":"90%","Argumentation":"a"}'
    assert parse_verdict("s", bare, strict=True).label == "yes"
    # strict mode alone decodes a value that is not an object
    assert parse_verdict("s", '["yes"]', strict=True).reason == "bad_json"
    assert parse_verdict("s", "Yes.", strict=True).reason == "no_json"


@given(st.text(max_size=300))
def test_never_raises_on_arbitrary_text(text):
    verdict = parse_verdict("s", text)
    assert verdict.label in LABELS


@pytest.mark.parametrize("certainty", ["Infinity", "-Infinity", "NaN", "1e999", '"inf%"', '"nan"'])
def test_non_finite_certainty_is_malformed(certainty):
    text = f'{{"Religious": "Yes", "Certainty": {certainty}, "Argumentation": "a"}}'
    assert parse_verdict("s", text).label == "malformed"
    assert parse_verdict("s", text, strict=True).label == "malformed"


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
    assert parse_verdict("s", f"{{not json}} {body}").label == "malformed"
