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

from .matrix import LabelMatrix


def duplicate_consistency(matrix: LabelMatrix) -> list[dict]:
    """Label splits for duplicate texts, sorted by occurrence count (desc),
    as stats.json's "consistency" list."""
    out = []
    for group in matrix.duplicates:
        per_classifier = {}
        for i, classifier in enumerate(matrix.classifiers):
            tally: Counter = Counter()
            for labels, n in group.labels.items():
                tally[labels[i]] += n
            n_yes, n_no = tally["yes"], tally["no"]
            valid = n_yes + n_no
            per_classifier[classifier] = {
                "n_yes": n_yes,
                "n_no": n_no,
                "n_malformed": tally["malformed"],
                "consistency": max(n_yes, n_no) / valid if valid else None,
            }
        out.append(
            {
                "text": group.text,
                "n_occurrences": sum(group.labels.values()),
                "per_classifier": per_classifier,
            }
        )
    out.sort(key=lambda g: (-g["n_occurrences"], g["text"]))
    return out
