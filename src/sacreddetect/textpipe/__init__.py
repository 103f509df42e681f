"""Raw HTML to a clean, English, sentence-level corpus."""

from .corpus import (
    CleanDocument,
    SentenceRecord,
    build_sentence_corpus,
    filter_corpus,
)
from .htmltext import extract_main_text
from .langid import detect_language
from .sentences import SPLITTER_VERSION, segment_sentences

__all__ = [
    "CleanDocument",
    "SentenceRecord",
    "SPLITTER_VERSION",
    "build_sentence_corpus",
    "detect_language",
    "extract_main_text",
    "filter_corpus",
    "segment_sentences",
]
