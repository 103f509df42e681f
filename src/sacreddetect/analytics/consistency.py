"""Duplicate-sentence consistency audits.

The corpus keeps repeated sentence texts as distinct records (the same
press-release line appears under many URLs). For every text occurring at
least twice, this reports how uniformly each classifier labeled the
occurrences: consistency is the largest single-label share over the valid
(yes/no) labels. Grouping is by whitespace-normalized, case-preserved text
-- the audit is about identical surface sentences, not about ids.
"""

from __future__ import annotations

from collections import Counter

from .matrix import LabelMatrix, normalize_sentence_text


def duplicate_consistency(matrix: LabelMatrix) -> list[dict]:
    """Label splits for duplicate texts, sorted by occurrence count (desc),
    as stats.json's "consistency" list."""
    groups: dict[str, list[int]] = {}
    for i, text in enumerate(matrix.texts):
        groups.setdefault(normalize_sentence_text(text), []).append(i)

    out = []
    for text, rows in groups.items():
        if len(rows) < 2:
            continue
        per_classifier = {}
        for classifier, column in matrix.labels.items():
            tally = Counter(column[i] for i in rows)
            n_yes, n_no = tally["yes"], tally["no"]
            valid = n_yes + n_no
            per_classifier[classifier] = {
                "n_yes": n_yes,
                "n_no": n_no,
                "n_malformed": tally["malformed"],
                "consistency": max(n_yes, n_no) / valid if valid else None,
            }
        out.append({"text": text, "n_occurrences": len(rows), "per_classifier": per_classifier})
    out.sort(key=lambda g: (-g["n_occurrences"], g["text"]))
    return out
