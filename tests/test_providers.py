import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_stub_run_batch, naive_stub_term, stdlib_parse_result_lines
from test_verdicts import JSON_VALUES, REPLIES

from sacreddetect.errors import ProviderError
from sacreddetect.judge.batch import build_batch_file
from sacreddetect.judge.providers import (
    OpenAIBatchProvider,
    StubProvider,
    get_provider,
    join_verdicts,
    parse_result_lines,
)


def corpus(*texts):
    """(sentence_id, text) pairs, as stages.load_corpus yields them."""
    return [(f"s{i}", t) for i, t in enumerate(texts)]


def classify(corpus, template_id, model_id, provider):
    """The batch -> provider -> verdict chain that run_classify applies to
    each NGO file; returns (verdicts, raw result lines)."""
    raw_lines = provider.run_batch(build_batch_file(corpus, template_id, model_id))
    results = parse_result_lines(raw_lines)
    return join_verdicts([sid for sid, _ in corpus], results), raw_lines


class DropsSomeProvider:
    """Mock provider that loses the last `drop` requests."""

    name = "mock"

    def __init__(self, drop=0):
        self.drop = drop

    def run_batch(self, lines, state=None, state_save=None):
        keep = lines[: len(lines) - self.drop] if self.drop else lines
        return StubProvider().run_batch(keep)


def test_stub_yes_on_pray():
    verdicts, _ = classify(corpus("We pray daily."), "revised", "m", StubProvider())
    assert verdicts[0].label == "yes"
    assert verdicts[0].certainty == 90
    assert "pray" in verdicts[0].argumentation


def test_stub_no_on_tuna():
    verdicts, _ = classify(corpus("The net is used for tuna."), "revised", "m", StubProvider())
    assert verdicts[0].label == "no"


def test_stub_is_deterministic():
    c = corpus("We pray daily.", "Sacred rivers flow.", "Plain text.")
    first, lines1 = classify(c, "revised", "m", StubProvider())
    second, lines2 = classify(c, "revised", "m", StubProvider())
    assert first == second
    assert lines1 == lines2


def test_missing_results_become_malformed():
    c = corpus("One sacred place.", "Two plain places.", "Three more lines.", "Four.")
    verdicts, _ = classify(c, "revised", "m", DropsSomeProvider(drop=2))
    assert len(verdicts) == len(c)
    missing = [v for v in verdicts if v.reason == "missing"]
    assert len(missing) == 2
    assert all(v.label == "malformed" and v.reason == "missing" for v in missing)


def test_verdict_totality_with_empty_sentence():
    c = corpus("We pray.", "")  # empty text never reaches the provider
    verdicts, _ = classify(c, "revised", "m", StubProvider())
    assert len(verdicts) == 2
    assert verdicts[1].label == "malformed"
    assert verdicts[1].reason == "missing"


def test_parse_result_lines_drops_garbage():
    lines = StubProvider().run_batch(
        build_batch_file(corpus("We pray."), "revised", "m")
    )
    lines += ["not json", json.dumps({"custom_id": 5}), json.dumps({"response": {}})]
    results = parse_result_lines(lines)
    assert len(results) == 1


def test_join_verdicts_parses_content():
    c = corpus("Holy ground here.")
    lines = StubProvider().run_batch(build_batch_file(c, "revised", "m"))
    verdicts = join_verdicts([sid for sid, _ in c], parse_result_lines(lines))
    assert verdicts[0].label == "yes"
    assert verdicts[0].sentence_id == c[0][0]


def test_get_provider_names():
    assert get_provider("stub").name == "stub"
    assert get_provider("openai-batch").name == "openai-batch"
    assert get_provider("groq-batch").name == "groq-batch"
    with pytest.raises(ProviderError):
        get_provider("mystery")


def test_live_provider_requires_api_key(monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    provider = get_provider("openai-batch")
    with pytest.raises(ProviderError, match="OPENAI_API_KEY"):
        provider.run_batch(["{}"])


def test_stub_word_boundaries():
    verdicts, _ = classify(corpus("The godless goddess."), "revised", "m", StubProvider())
    assert verdicts[0].label == "no"  # 'god' must not match inside other words


# the six terms, near-misses, digits, the four non-ASCII letters that
# re.IGNORECASE folds into [A-Za-z], and other non-ASCII
STUB_PIECES = st.sampled_from(
    list(StubProvider.TERMS)
    + ["PRAY", "Holy", "prayers", "godly", "faith1", "_holy", "7", "0god",
       "\u0130", "\u0131", "\u017f", "\u212a", "\u03a3", "\u2028", " ", ".", "-"]
)
# no lone surrogates (category Cs): a line holding one encodes to no UTF-8,
# so no batch file holds one (see test_a_lone_surrogate_is_refused)
TRICKY_IDS = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "é", "模", "\u2028"]),
        st.characters(exclude_categories=("Cs",)),
    )
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(TRICKY_IDS, st.lists(STUB_PIECES, min_size=1, max_size=8).map("".join)),
        max_size=5,
    )
)
def test_stub_lines_equal_the_per_term_whole_dict_oracle(rows):
    stub = StubProvider()
    lines = build_batch_file(rows, "revised", "m")
    assert stub.run_batch(lines) == naive_stub_run_batch(lines)
    for _, text in rows:  # the one combined search misses iff every term misses
        assert bool(stub._any_term.search(text)) == (naive_stub_term(text) is not None)


def test_stub_names_the_first_term_in_term_order_not_the_leftmost():
    verdicts, _ = classify(corpus("holy god"), "revised", "m", StubProvider())
    assert verdicts[0].argumentation == "Contains the term 'god'."


class RecordingSession:
    def __init__(self):
        self.calls = []

    def request(self, method, url, **kwargs):
        self.calls.append((method, url))
        raise AssertionError("nothing may be sent")


@pytest.mark.parametrize("live", [False, True], ids=["stub", "http-batch"])
def test_a_lone_surrogate_is_refused(monkeypatch, live):
    monkeypatch.setenv("OPENAI_API_KEY", "test-key")
    session = RecordingSession()
    provider = OpenAIBatchProvider(session=session, poll_interval=0.0) if live else StubProvider()
    lines = build_batch_file([("\ud800", "We pray.")], "revised", "m")
    with pytest.raises(ValueError):
        provider.run_batch(lines)
    assert session.calls == []


# Result lines: the OpenAI shape with its pieces varied, ids that are no
# strings, replies and non-string contents, extra members holding what
# orjson refuses, duplicate and case-variant keys, a BOM and trailing text.
_IDS = st.sampled_from(['"s1"', '"s2"', '"\\ud800"', "1", "null", "18446744073709551617"])
_CONTENTS = REPLIES.map(json.dumps) | JSON_VALUES
_RESPONSES = _CONTENTS.map(
    lambda content: f'{{"status_code": 200, "body": {{"choices": [{{"message": {{"content": {content}}}}}]}}}}'
) | st.sampled_from(['{"body": {"choices": []}}', '{"body": {}}']) | JSON_VALUES
_MEMBERS = st.one_of(
    st.tuples(st.just('"custom_id"'), _IDS),
    st.tuples(st.just('"response"'), _RESPONSES),
    st.tuples(st.sampled_from(['"error"', '"Custom_ID"', '"id"']), JSON_VALUES),
)
RESULT_LINES = st.tuples(
    st.sampled_from(["", "\ufeff", " "]),
    st.tuples(
        st.tuples(st.just('"custom_id"'), _IDS),
        st.tuples(st.just('"response"'), _RESPONSES),
        st.lists(_MEMBERS, max_size=3),
    ).map(lambda m: "{" + ", ".join(f"{k}: {v}" for k, v in [m[0], m[1], *m[2]]) + "}"),
    st.sampled_from(["", " ", " x", "}"]),
).map("".join)


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(RESULT_LINES, max_size=4))
def test_result_lines_equal_the_stdlib_only_parser(lines):
    expected: dict[str, str] = {}
    for line in lines:
        try:
            expected.update(stdlib_parse_result_lines([line]))
        except RecursionError:  # nested too deep for the stdlib; now dropped
            pass
    assert parse_result_lines(lines) == expected


def test_a_line_nested_too_deep_or_with_a_huge_int_is_dropped():
    c = corpus("We pray.", "Holy ground.", "Plain text.", "More text.")
    good = StubProvider().run_batch(build_batch_file(c, "revised", "m"))
    deep = "[" * 100_000 + "]" * 100_000
    lines = [
        '{"custom_id": "a", "response": ' + deep + "}",
        # the reply itself is fine; the stdlib cannot decode the line
        good[1][:-1] + ', "extra": ' + deep + "}",
        good[2][:-1] + ', "extra": ' + "9" * 5_000 + "}",
        good[0],
        good[3],
    ]
    results = parse_result_lines(lines)
    assert set(results) == {c[0][0], c[3][0]}
    verdicts = join_verdicts([sid for sid, _ in c], results)
    assert [v.reason for v in verdicts] == [None, "missing", "missing", None]
