import pytest

from sacreddetect.analytics import tabulate
from sacreddetect.errors import CoverageError
from sacreddetect.textpipe.corpus import SentenceRecord


def make_inputs(n=3):
    corpus = [SentenceRecord.make("d", "ngo_a", i, f"Sentence number {i}.") for i in range(n)]
    tree = {rec.sentence_id: "no" for rec in corpus}
    verdicts = {"model-x": {rec.sentence_id: "yes" for rec in corpus}}
    groups = {"ngo_a": "secular"}
    return corpus, tree, verdicts, groups


def test_full_coverage_joins_all_rows():
    corpus, tree, verdicts, groups = make_inputs(3)
    matrix = tabulate(corpus, tree, verdicts, groups)
    assert len(matrix.sentence_ids) == 3
    assert matrix.model_ids == ("model-x",)
    assert matrix.classifiers == ("tree", "model-x")
    assert matrix.groups == {"ngo_a": "secular"}


def test_missing_verdict_names_the_id():
    corpus, tree, verdicts, groups = make_inputs(3)
    dropped = corpus[1].sentence_id
    del verdicts["model-x"][dropped]
    with pytest.raises(CoverageError, match=dropped):
        tabulate(corpus, tree, verdicts, groups)


def test_missing_tree_result_is_an_error():
    corpus, tree, verdicts, groups = make_inputs(2)
    with pytest.raises(CoverageError, match="tree"):
        tabulate(corpus, dict(list(tree.items())[:1]), verdicts, groups)


def test_repeated_sentence_id_is_an_error():
    corpus, tree, verdicts, groups = make_inputs(3)
    with pytest.raises(CoverageError, match=corpus[2].sentence_id):
        tabulate(corpus + corpus[2:], tree, verdicts, groups)


def test_scopes_include_group_totals():
    corpus = [
        SentenceRecord.make("d1", "a", 0, "One."),
        SentenceRecord.make("d2", "b", 0, "Two."),
    ]
    tree = {r.sentence_id: "no" for r in corpus}
    verdicts = {"m": {r.sentence_id: "no" for r in corpus}}
    matrix = tabulate(corpus, tree, verdicts, {"a": "secular", "b": "religious"})
    scopes = matrix.scopes()
    assert set(scopes) == {"a", "b", "secular_total", "religious_total", "total"}
    assert len(scopes["total"]) == 2
