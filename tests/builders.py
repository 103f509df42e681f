"""Builds LabelMatrix fixtures from plain row tuples."""

from __future__ import annotations

from sacreddetect.analytics import LabelMatrix

MODELS = ("gpt", "llama")


def label_matrix(rows, models=MODELS, texts=None) -> LabelMatrix:
    """rows: (ngo_id, group, tree label, *one label per model) tuples;
    sentence ids are s0, s1, ... and texts default to empty."""
    rows = list(rows)
    groups: dict[str, str] = {}
    for ngo, group, *_ in rows:
        groups.setdefault(ngo, group)
    classifiers = ("tree", *models)
    return LabelMatrix(
        sentence_ids=[f"s{i}" for i in range(len(rows))],
        ngo_ids=[row[0] for row in rows],
        texts=list(texts) if texts is not None else [""] * len(rows),
        groups=groups,
        labels={c: [row[2 + k] for row in rows] for k, c in enumerate(classifiers)},
    )


def oracle_rows(matrix: LabelMatrix) -> list[dict]:
    """The matrix as the plain dict rows tests/oracles.py reads."""
    return [
        {
            "ngo": ngo,
            "group": matrix.groups[ngo],
            "labels": {c: column[i] for c, column in matrix.labels.items()},
        }
        for i, ngo in enumerate(matrix.ngo_ids)
    ]
