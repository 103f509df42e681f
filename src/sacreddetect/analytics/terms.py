"""Phrase reports: how each classifier labels sentences containing a phrase.

Phrase matching is case-insensitive, whitespace-normalized substring with
word boundaries at both ends -- "sacred earth" finds "Sacred  Earth" but
not "sacredearthy".
"""

from __future__ import annotations

from .matrix import LabelMatrix


def phrase_in_text(text: str, phrase: str) -> bool:
    norm_text = " ".join(text.lower().split())
    norm_phrase = " ".join(phrase.lower().split())
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


def term_report(
    matrix: LabelMatrix,
    phrase: str,
    argumentation: dict[str, dict[str, str]] | None = None,
    max_samples: int = 10,
) -> dict:
    """Counts and per-classifier yes-rates over sentences containing phrase,
    as its stats.json "terms" entry.

    argumentation optionally maps model_id -> {sentence_id -> argumentation}
    so sample rows can quote the models' stated reasoning.
    """
    if not phrase.strip():
        raise ValueError("phrase must be non-empty")
    hits = [i for i, text in enumerate(matrix.texts) if phrase_in_text(text, phrase)]

    counts: dict[str, dict] = {}
    for classifier, column in matrix.labels.items():
        n_yes = sum(column[i] == "yes" for i in hits)
        counts[classifier] = {
            "n_yes": n_yes,
            "pct_yes": 100.0 * n_yes / len(hits) if hits else 0.0,
        }

    samples = []
    for i in hits[:max_samples]:
        sentence_id = matrix.sentence_ids[i]
        sample = {"sentence_id": sentence_id, "ngo_id": matrix.ngo_ids[i], "text": matrix.texts[i]}
        for model_id in matrix.model_ids:
            if argumentation and sentence_id in argumentation.get(model_id, {}):
                sample[f"argumentation:{model_id}"] = argumentation[model_id][sentence_id]
        sample["labels"] = {classifier: column[i] for classifier, column in matrix.labels.items()}
        samples.append(sample)

    return {"n_sentences": len(hits), "counts": counts, "samples": samples}
