"""Rule-based sentence segmentation with a fixed abbreviation list.

Boundaries occur at ``.``, ``!``, ``?`` (optionally followed by closing
quotes/brackets) when the terminator run is followed by whitespace or the
end of the text, and at newline runs. A lone period is not a boundary when
the word before it is a known abbreviation or a single-letter initial;
periods inside numbers, URLs and e-mail addresses never qualify because
they are not followed by whitespace. Deterministic by construction -- the
version constant is recorded in run manifests because any rule change
changes corpus counts.
"""

from __future__ import annotations

import re

SPLITTER_VERSION = "1"

MIN_SEGMENT_CHARS = 2

# Lowercase, final period stripped. Only forms that commonly precede a
# period mid-sentence; deliberately excludes words that often end sentences.
ABBREVIATIONS = frozenset(
    """
    rev dr mr mrs ms prof fr st sr jr
    e.g i.e etc cf vs al approx dept est
    jan feb mar apr jun jul aug sep sept oct nov dec
    """.split()
)

# Terminator run, optional closing quotes/brackets, then whitespace or EOS.
# A match starts only where a run starts (the look-behind after the first
# terminator rejects one that follows another): a retry from inside a run
# would end where the first try did, after rescanning the run, so a long run
# would cost time quadratic in its length. Opening with the terminator
# class, not the look-behind, keeps the regex engine's fast scan for it.
_BOUNDARY_RE = re.compile(r"([.!?](?<![.!?]{2})[.!?]*)[\"'’”)\]]*(?=\s|$)")
_NEWLINE_RE = re.compile(r"\n+")


def _is_abbreviation(text: str, dot_index: int) -> bool:
    """True when the period at dot_index terminates a known abbreviation.

    The word is the whitespace-free run ending at dot_index, or, when a
    single newline precedes the period, the run ending before it. The
    look-back stops at the run's start, so a page costs time linear in
    its length.
    """
    end = dot_index
    if end and text[end - 1] == "\n":
        end -= 1
    start = end
    while start and not text[start - 1].isspace():
        start -= 1
    token = text[start:end].strip("\"'‘’“”([{")
    if not token:
        return False
    word = token.rstrip(".").lower()
    if word in ABBREVIATIONS:
        return True
    # Single-letter initials: "F. M. Last"
    return len(word) == 1 and word.isalpha()


def _boundaries(text: str) -> list[int]:
    """End offsets (exclusive) of segments within text, in order."""
    ends = []
    for m in _BOUNDARY_RE.finditer(text):
        run = m.group(1)
        if run == "." and _is_abbreviation(text, m.start(1)):
            continue
        ends.append(m.end())
    for m in _NEWLINE_RE.finditer(text):
        ends.append(m.start())
    ends.append(len(text))
    return sorted(set(ends))


def segment_sentences(text: str) -> list[str]:
    """Split cleaned text into sentences.

    Segments are trimmed; segments shorter than MIN_SEGMENT_CHARS are
    discarded. Apart from boundary whitespace (and those discards), the
    segments cover the input losslessly and in order.
    """
    if not text:
        return []
    segments = []
    start = 0
    for end in _boundaries(text):
        piece = text[start:end].strip()
        if len(piece) >= MIN_SEGMENT_CHARS:
            segments.append(piece)
        start = end
    return segments
