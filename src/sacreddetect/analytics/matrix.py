"""Label counts of the corpus, accumulated in one pass over its rows.

A row is one sentence with one label per classifier, the tree first. The
pass keeps only what the statistics and the two text audits read: joint
label counts per NGO, label tallies per group of duplicate texts, and per
phrase a hit tally and the first samples. Nothing else per sentence
outlives its row except the sentence id, kept so that an id repeated in
the corpus is a hard error (it would be counted twice). Tree labels are
never malformed -- the rule-based method is total by nature.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..errors import CoverageError
from ..lexicon.tree import normalize_form
from .terms import phrase_in_normalized

SECULAR_TOTAL = "secular_total"
RELIGIOUS_TOTAL = "religious_total"
TOTAL = "total"
SAMPLES_PER_PHRASE = 10  # rows each phrase keeps for its term report


def normalize_sentence_text(text: str) -> str:
    """Whitespace-normalized, case-preserved form used for duplicate grouping."""
    return " ".join(text.split())


# One corpus sentence: (ngo_id, sentence_id, text, one label per classifier,
# one argumentation per model, None where the model gave none).
Row = tuple[str, str, str, tuple[str, ...], tuple[str | None, ...]]


@dataclass
class PhraseHits:
    """Rows whose text contains one phrase: their count, the yes count per
    classifier, and the first rows in corpus order."""

    n_sentences: int
    n_yes: list[int]
    samples: list[Row] = field(default_factory=list)


@dataclass
class DuplicateGroup:
    """One whitespace-normalized text seen at least twice: label tuple ->
    occurrences."""

    text: str
    labels: Counter


@dataclass
class LabelMatrix:
    """What one pass over the corpus leaves for the statistics."""

    classifiers: tuple[str, ...]  # "tree" first
    groups: dict[str, str]  # ngo_id -> secular | religious, in corpus order
    joint_counts: Counter  # (ngo_id, label per classifier...) -> number of rows
    phrases: dict[str, PhraseHits]
    duplicates: list[DuplicateGroup]

    @property
    def model_ids(self) -> tuple[str, ...]:
        return self.classifiers[1:]

    def scopes(self) -> dict[str, list[str]]:
        """Scope -> the NGOs it pools: each NGO in corpus order, then the
        two group totals and the grand total, each only when non-empty."""
        ngo_order = list(self.groups)
        out = {ngo: [ngo] for ngo in ngo_order}
        for group, scope in (("secular", SECULAR_TOTAL), ("religious", RELIGIOUS_TOTAL)):
            members = [ngo for ngo in ngo_order if self.groups[ngo] == group]
            if members:
                out[scope] = members
        if ngo_order:
            out[TOTAL] = ngo_order
        return out


def tabulate(
    rows: Iterable[Row],
    classifiers: Iterable[str],
    groups: dict[str, str],
    phrases: Iterable[str] = (),
) -> LabelMatrix:
    """Accumulate rows in corpus order into a LabelMatrix.

    groups maps every NGO the rows name to its group. A phrase hits a row
    under terms.phrase_in_text's rule; each phrase keeps its first
    SAMPLES_PER_PHRASE hits. A sentence id seen twice raises CoverageError naming
    the id.
    """
    classifiers = tuple(classifiers)
    by_phrase = {}
    for phrase in phrases:
        if not phrase.strip():
            raise ValueError("phrase must be non-empty")
        by_phrase[phrase] = (normalize_form(phrase), PhraseHits(0, [0] * len(classifiers)))
    joint: Counter = Counter()
    seen_ids: set[str] = set()
    shared: dict[tuple, tuple] = {}  # one tuple object per distinct label combination
    once: dict[bytes, tuple] = {}  # text digest -> labels of its only occurrence so far
    repeated: dict[bytes, DuplicateGroup] = {}
    for row in rows:
        ngo_id, sentence_id, text, labels, _ = row
        n_seen = len(seen_ids)
        seen_ids.add(sentence_id)
        if len(seen_ids) == n_seen:
            raise CoverageError(f"sentence id {sentence_id} occurs more than once in the corpus")
        labels = shared.setdefault(labels, labels)
        joint[(ngo_id, *labels)] += 1

        norm = normalize_sentence_text(text)
        digest = hashlib.blake2b(norm.encode("utf-8", "surrogatepass"), digest_size=16).digest()
        group = repeated.get(digest)
        if group is not None:
            group.labels[labels] += 1
        else:
            first = once.pop(digest, None)
            if first is None:
                once[digest] = labels
            else:
                repeated[digest] = DuplicateGroup(norm, Counter((first, labels)))

        if by_phrase:
            low = norm.lower()  # equals " ".join(text.lower().split())
            for norm_phrase, hits in by_phrase.values():
                if norm_phrase in low and phrase_in_normalized(low, norm_phrase):
                    hits.n_sentences += 1
                    for i, label in enumerate(labels):
                        if label == "yes":
                            hits.n_yes[i] += 1
                    if len(hits.samples) < SAMPLES_PER_PHRASE:
                        hits.samples.append(row)
    ngo_order = dict.fromkeys(ngo for ngo, *_ in joint)
    return LabelMatrix(
        classifiers=classifiers,
        groups={ngo: groups[ngo] for ngo in ngo_order},
        joint_counts=joint,
        phrases={phrase: hits for phrase, (_, hits) in by_phrase.items()},
        duplicates=list(repeated.values()),
    )
