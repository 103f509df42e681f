from collections import Counter

from sacreddetect.textpipe.corpus import CleanDocument, build_sentence_corpus, filter_corpus


def doc(doc_id, text, ngo="ngo", lang="en", confidence=0.9):
    return CleanDocument(doc_id, ngo, text, lang, confidence)


def test_positions_assigned_per_document():
    records = build_sentence_corpus(
        [doc("d1", "One here. Two here. Three here."), doc("d2", "")]
    )
    assert len(records) == 3
    assert [r.position for r in records] == [0, 1, 2]
    assert {r.doc_id for r in records} == {"d1"}


def test_duplicate_documents_keep_distinct_ids():
    text = "The sacred grove endures. It is old."
    records = build_sentence_corpus([doc("d1", text), doc("d2", text)])
    assert len(records) == 4
    assert len({r.sentence_id for r in records}) == 4
    texts = [r.text for r in records]
    assert texts.count("The sacred grove endures.") == 2


def test_sentence_ids_stable_across_runs():
    docs = [doc("d1", "Alpha beta. Gamma delta.")]
    first = {r.sentence_id for r in build_sentence_corpus(docs)}
    second = {r.sentence_id for r in build_sentence_corpus(docs)}
    assert first == second


def test_output_order_independent_of_input_order():
    docs = [doc("d2", "B text here.", ngo="b"), doc("d1", "A text here.", ngo="a")]
    records = build_sentence_corpus(docs)
    assert [r.ngo_id for r in records] == ["a", "b"]


def test_filter_keeps_english_drops_confident_foreign():
    docs = [
        doc("d1", "x", lang="en", confidence=0.95),
        doc("d2", "x", lang="nl", confidence=0.9),
    ]
    kept = filter_corpus(docs)
    assert [d.doc_id for d in kept] == ["d1"]


def test_filter_keeps_uncertain_foreign():
    kept = filter_corpus([doc("d1", "x", lang="de", confidence=0.4)])
    assert len(kept) == 1


def test_filter_empty():
    assert filter_corpus([]) == []


def test_filter_counts_drops_per_ngo():
    counters = Counter()
    filter_corpus(
        [
            doc("d1", "x", ngo="a", lang="fr", confidence=0.9),
            doc("d2", "x", ngo="a", lang="es", confidence=0.9),
            doc("d3", "x", ngo="b", lang="en", confidence=0.9),
        ],
        counters,
    )
    assert counters["dropped_non_english:a"] == 2
    assert counters["dropped_non_english:b"] == 0


def test_sample_pages_yield_ten_sentences(sample_corpus):
    assert len(sample_corpus) == 10
    by_ngo = Counter(r.ngo_id for r in sample_corpus)
    assert by_ngo == {"cca": 5, "greenfaith": 1, "ien": 1, "icsd": 3}
    texts = " || ".join(r.text for r in sample_corpus)
    assert "Mother Earth" in texts
    assert "Sacred Earth" in texts
    assert "Windsor Statements" in texts

