"""Clean documents and sentence-level corpus records.

Sentence ids are content hashes of (doc_id, position, text): two runs over
the same raw store produce identical id sets. Duplicate sentence texts
across documents are retained as distinct records on purpose -- repeated
boilerplate sentences are exactly what the duplicate-consistency audits
measure.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

from ..hashing import short_hash
from .sentences import segment_sentences

log = logging.getLogger(__name__)

# Documents are dropped only when confidently non-English: an uncertain
# guess (confidence at or below this bar) is retained, because mixed pages
# frequently carry English main content alongside foreign fragments.
UNCERTAIN_CONFIDENCE = 0.5


@dataclass(frozen=True)
class CleanDocument:
    doc_id: str
    ngo_id: str
    text: str
    lang: str
    lang_confidence: float


@dataclass(frozen=True)
class SentenceRecord:
    sentence_id: str
    doc_id: str
    ngo_id: str
    position: int
    text: str

    @staticmethod
    def make(doc_id: str, ngo_id: str, position: int, text: str) -> "SentenceRecord":
        sid = short_hash(doc_id.encode(), str(position).encode(), text.encode())
        return SentenceRecord(sid, doc_id, ngo_id, position, text)

    def to_dict(self) -> dict:
        return {
            "sentence_id": self.sentence_id,
            "doc_id": self.doc_id,
            "ngo_id": self.ngo_id,
            "position": self.position,
            "text": self.text,
        }

    @staticmethod
    def from_dict(row: dict) -> "SentenceRecord":
        return SentenceRecord(
            sentence_id=row["sentence_id"],
            doc_id=row["doc_id"],
            ngo_id=row["ngo_id"],
            position=int(row["position"]),
            text=row["text"],
        )


def filter_corpus(
    docs: list[CleanDocument], counters: Counter | None = None
) -> list[CleanDocument]:
    """Keep English documents plus uncertain ones; count drops per NGO."""
    counters = counters if counters is not None else Counter()
    kept = []
    for doc in docs:
        if doc.lang == "en" or doc.lang_confidence <= UNCERTAIN_CONFIDENCE:
            kept.append(doc)
        else:
            counters[f"dropped_non_english:{doc.ngo_id}"] += 1
    dropped = len(docs) - len(kept)
    if dropped:
        log.info("dropped %d non-English documents", dropped)
    return kept


def build_sentence_corpus(docs: list[CleanDocument]) -> list[SentenceRecord]:
    """Segment every document and assign stable ids and 0-based positions.

    Output order is (ngo_id, doc_id, position), independent of input order.
    """
    records = []
    for doc in sorted(docs, key=lambda d: (d.ngo_id, d.doc_id)):
        for position, sentence in enumerate(segment_sentences(doc.text)):
            records.append(SentenceRecord.make(doc.doc_id, doc.ngo_id, position, sentence))
    return records

