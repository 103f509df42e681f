import json
from collections import Counter

from sacreddetect.judge import build_batch_file, render_prompt
from sacreddetect.textpipe.corpus import SentenceRecord


def corpus3():
    return [
        SentenceRecord.make("d1", "a", 0, "First sentence here."),
        SentenceRecord.make("d1", "a", 1, "Second sentence here."),
        SentenceRecord.make("d2", "b", 0, "Third sentence here."),
    ]


def test_one_line_per_sentence_distinct_custom_ids():
    lines = build_batch_file(corpus3(), "revised", "gpt-4o-mini")
    assert len(lines) == 3
    ids = [json.loads(line)["custom_id"] for line in lines]
    assert len(set(ids)) == 3


def test_byte_identical_across_runs():
    corpus = corpus3()
    first = build_batch_file(corpus, "revised", "gpt-4o-mini")
    second = build_batch_file(list(reversed(corpus)), "revised", "gpt-4o-mini")
    assert first == second  # order fixed by (ngo, doc, position), not input order


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
    lines = build_batch_file(sample_corpus, "revised", "gpt-4o-mini")
    assert len(lines) == 10
    system = render_prompt("revised")
    for line in lines:
        row = json.loads(line)
        assert row["body"]["messages"][0]["content"] == system


def test_user_text_verbatim(sample_corpus):
    lines = build_batch_file(sample_corpus, "revised", "m")
    by_id = {json.loads(l)["custom_id"]: json.loads(l) for l in lines}
    for rec in sample_corpus:
        assert by_id[rec.sentence_id]["body"]["messages"][1]["content"] == rec.text


def test_empty_text_skipped_with_count():
    corpus = corpus3() + [SentenceRecord("sid-empty", "d9", "c", 0, "")]
    counters = Counter()
    lines = build_batch_file(corpus, "revised", "m", counters=counters)
    assert len(lines) == 3
    assert counters["batch_skipped_empty"] == 1

