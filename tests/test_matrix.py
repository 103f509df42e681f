import json

import pytest

from sacreddetect import stages
from sacreddetect.analytics.matrix import tabulate
from sacreddetect.errors import CoverageError
from sacreddetect.textpipe.corpus import SentenceRecord


def make_rows(n=3, ngo="ngo_a"):
    """Rows of n sentences, tree "no" and model-x "yes"."""
    corpus = [SentenceRecord.make("d", ngo, i, f"Sentence number {i}.") for i in range(n)]
    return [(rec.ngo_id, rec.sentence_id, rec.text, ("no", "yes"), (None,)) for rec in corpus]


def write_files(tmp_path, rows):
    """One NGO's corpus, tree and model-x files holding rows; returns the
    corpus path and the label paths, tree first."""
    paths = [tmp_path / d / "ngo_a.jsonl" for d in ("corpus", "tree", "model-x")]
    for path in paths:
        path.parent.mkdir()
    paths[0].write_text("".join(
        json.dumps({"sentence_id": sid, "ngo_id": ngo, "text": text}) + "\n"
        for ngo, sid, text, _, _ in rows
    ))
    for k, path in enumerate(paths[1:]):
        path.write_text("".join(
            json.dumps({"sentence_id": sid, "label": labels[k], "argumentation": None}) + "\n"
            for _, sid, _, labels, _ in rows
        ))
    return paths[0], paths[1:]


def test_full_coverage_joins_all_rows():
    matrix = tabulate(make_rows(3), ("tree", "model-x"), {"ngo_a": "secular"})
    assert matrix.joint_counts == {("ngo_a", "no", "yes"): 3}
    assert matrix.model_ids == ("model-x",)
    assert matrix.classifiers == ("tree", "model-x")
    assert matrix.groups == {"ngo_a": "secular"}


def test_missing_verdict_names_the_id(tmp_path):
    rows = make_rows(3)
    corpus_path, label_paths = write_files(tmp_path, rows)
    dropped = rows[1][1]
    lines = label_paths[1].read_text().splitlines(keepends=True)
    label_paths[1].write_text(lines[0] + lines[2])
    with pytest.raises(CoverageError, match=rf"model-x/ngo_a\.jsonl: line 2: .*{dropped}"):
        list(stages._aligned_rows(corpus_path, label_paths))


def test_missing_tree_result_is_an_error(tmp_path):
    corpus_path, label_paths = write_files(tmp_path, make_rows(2))
    label_paths[0].write_text(label_paths[0].read_text().splitlines(keepends=True)[0])
    with pytest.raises(CoverageError, match=r"tree/ngo_a\.jsonl: no line 2"):
        list(stages._aligned_rows(corpus_path, label_paths))


def test_repeated_sentence_id_is_an_error():
    rows = make_rows(3)
    with pytest.raises(CoverageError, match=rows[2][1]):
        tabulate(rows + rows[2:], ("tree", "model-x"), {"ngo_a": "secular"})


def test_scopes_include_group_totals():
    rows = make_rows(1, "a") + [
        ("b", "s-b", "Two.", ("no", "no"), (None,)),
    ]
    matrix = tabulate(rows, ("tree", "m"), {"a": "secular", "b": "religious"})
    scopes = matrix.scopes()
    assert set(scopes) == {"a", "b", "secular_total", "religious_total", "total"}
    assert len(scopes["total"]) == 2


def test_tabulate_holds_one_label_tuple_per_combination():
    # a text seen once keeps only its labels until it repeats: sharing one
    # tuple per label combination keeps that to a pointer per distinct text
    rows = [
        ("a", f"s{i}", text, ("no", "yes"), (None,))
        for i, text in enumerate(["One.", "Two.", "One.", "Two.", "Three."])
    ]
    matrix = tabulate(rows, ("tree", "m"), {"a": "secular"})
    [one, two] = sorted(matrix.duplicates, key=lambda g: g.text)
    [key_one], [key_two] = one.labels, two.labels
    assert key_one is key_two
    assert (one.text, one.labels[key_one]) == ("One.", 2)
