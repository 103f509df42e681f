import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dict_batch_line

from sacreddetect.judge import TEMPLATE_IDS, build_batch_file, render_prompt

# characters JSON escapes (quote, backslash, C0 controls) or leaves raw
# (DEL, U+0085, U+2028, U+2029), and non-ASCII up to the astral planes
TRICKY = st.one_of(
    st.characters(max_codepoint=0x1F),
    st.sampled_from(['"', "\\", "\x7f", "\x85", "\u2028", "\u2029", "é", "Σ", "😀", "\U0010ffff"]),
    st.characters(),
)


def corpus3():
    return [
        ("s1", "First sentence here."),
        ("s2", "Second sentence here."),
        ("s3", "Third sentence here."),
    ]


def pairs(records):
    return [(rec.sentence_id, rec.text) for rec in records]


def test_one_line_per_sentence_distinct_custom_ids():
    lines = build_batch_file(corpus3(), "revised", "gpt-4o-mini")
    assert len(lines) == 3
    ids = [json.loads(line)["custom_id"] for line in lines]
    assert len(set(ids)) == 3


def test_byte_identical_across_runs():
    corpus = corpus3()
    first = build_batch_file(corpus, "revised", "gpt-4o-mini")
    assert build_batch_file(iter(corpus), "revised", "gpt-4o-mini") == first
    # lines keep the input's order, which extract fixed in the corpus file
    assert build_batch_file(corpus[::-1], "revised", "gpt-4o-mini") == first[::-1]


def test_line_shape():
    [line] = build_batch_file(corpus3()[:1], "general", "m")
    row = json.loads(line)
    assert row["method"] == "POST"
    assert row["url"] == "/v1/chat/completions"
    assert row["body"]["model"] == "m"
    roles = [m["role"] for m in row["body"]["messages"]]
    assert roles == ["system", "user"]
    assert row["body"]["messages"][1]["content"] == "First sentence here."


def test_sample_corpus_embeds_full_revised_prompt(sample_corpus):
    lines = build_batch_file(pairs(sample_corpus), "revised", "gpt-4o-mini")
    assert len(lines) == 10
    system = render_prompt("revised")
    for line in lines:
        row = json.loads(line)
        assert row["body"]["messages"][0]["content"] == system


def test_user_text_verbatim(sample_corpus):
    lines = build_batch_file(pairs(sample_corpus), "revised", "m")
    by_id = {json.loads(l)["custom_id"]: json.loads(l) for l in lines}
    for rec in sample_corpus:
        assert by_id[rec.sentence_id]["body"]["messages"][1]["content"] == rec.text


def test_empty_text_skipped_with_count():
    corpus = corpus3() + [("sid-empty", "")]
    counters = Counter()
    lines = build_batch_file(corpus, "revised", "m", counters=counters)
    assert len(lines) == 3
    assert counters["batch_skipped_empty"] == 1


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(st.text(TRICKY, max_size=8), st.text(TRICKY, max_size=40)), max_size=5),
    template_id=st.sampled_from(TEMPLATE_IDS),
    model_id=st.text(st.one_of(st.sampled_from(['"', "\\", "é", "模"]), st.characters()), min_size=1),
)
def test_lines_equal_the_whole_dict_encoding(rows, template_id, model_id):
    expected = [dict_batch_line(sid, text, template_id, model_id) for sid, text in rows if text]
    assert build_batch_file(rows, template_id, model_id) == expected
