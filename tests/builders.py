"""Builds LabelMatrix fixtures from plain row tuples, through tabulate."""

from __future__ import annotations

from sacreddetect.analytics.matrix import LabelMatrix, tabulate

MODELS = ("gpt", "llama")


def label_matrix(rows, models=MODELS, texts=None, phrases=(), argumentation=None) -> LabelMatrix:
    """rows: (ngo_id, group, tree label, *one label per model) tuples, fed
    to tabulate in order. Sentence ids are s0, s1, ..., texts default to
    empty, and argumentation optionally maps model_id -> {sentence_id ->
    argumentation}."""
    rows = list(rows)
    groups: dict[str, str] = {}
    for ngo, group, *_ in rows:
        groups.setdefault(ngo, group)
    texts = list(texts) if texts is not None else [""] * len(rows)
    argumentation = argumentation or {}

    def tabulated():
        for i, ((ngo, _, *labels), text) in enumerate(zip(rows, texts)):
            sentence_id = f"s{i}"
            reasoning = tuple(argumentation.get(m, {}).get(sentence_id) for m in models)
            yield ngo, sentence_id, text, tuple(labels), reasoning

    return tabulate(tabulated(), ("tree", *models), groups, phrases)


def oracle_rows(rows, models=MODELS) -> list[dict]:
    """The row tuples label_matrix takes, as the plain dict rows
    tests/oracles.py reads."""
    classifiers = ("tree", *models)
    return [
        {"ngo": ngo, "group": group, "labels": dict(zip(classifiers, labels))}
        for ngo, group, *labels in rows
    ]
