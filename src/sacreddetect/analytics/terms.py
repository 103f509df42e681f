"""Phrase reports: how each classifier labels sentences containing a phrase.

Phrase matching is substring with word boundaries at both ends, after
the lexicon's normalization of forms (lower-cased, whitespace collapsed)
-- "sacred earth" finds "Sacred  Earth" but not "sacredearthy".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..lexicon.tree import normalize_form

if TYPE_CHECKING:
    from .matrix import LabelMatrix


def phrase_in_normalized(norm_text: str, norm_phrase: str) -> bool:
    """phrase_in_text on texts already passed through normalize_form."""
    if not norm_phrase:
        return False
    start = 0
    while True:
        i = norm_text.find(norm_phrase, start)
        if i < 0:
            return False
        end = i + len(norm_phrase)
        before_ok = i == 0 or not norm_text[i - 1].isalnum()
        after_ok = end == len(norm_text) or not norm_text[end].isalnum()
        if before_ok and after_ok:
            return True
        start = i + 1


def phrase_in_text(text: str, phrase: str) -> bool:
    return phrase_in_normalized(normalize_form(text), normalize_form(phrase))


def term_report(matrix: LabelMatrix, phrase: str) -> dict:
    """Counts and per-classifier yes-rates over the sentences containing
    phrase, with its first sample rows, as its stats.json "terms" entry.
    A sample quotes each model's argumentation where the model gave one."""
    hits = matrix.phrases[phrase]
    counts = {
        classifier: {
            "n_yes": n_yes,
            "pct_yes": 100.0 * n_yes / hits.n_sentences if hits.n_sentences else 0.0,
        }
        for classifier, n_yes in zip(matrix.classifiers, hits.n_yes)
    }
    samples = []
    for ngo_id, sentence_id, text, labels, argumentation in hits.samples:
        sample = {"sentence_id": sentence_id, "ngo_id": ngo_id, "text": text}
        for model_id, reasoning in zip(matrix.model_ids, argumentation):
            if reasoning is not None:
                sample[f"argumentation:{model_id}"] = reasoning
        sample["labels"] = dict(zip(matrix.classifiers, labels))
        samples.append(sample)
    return {"n_sentences": hits.n_sentences, "counts": counts, "samples": samples}
