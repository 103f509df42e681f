"""Main-content extraction from HTML: a small text-density boilerplate filter.

Pass 1 parses the page into text blocks, dropping chrome subtrees outright
(head, script, style, nav, header, footer, form) and splitting the rest at
block-level tag boundaries. Pass 2 keeps a block when it has at least
MIN_WORDS words and a text density (words per tag seen inside the block) of
at least MIN_DENSITY, or when it sits directly between two kept blocks.
Entity references are decoded and whitespace collapsed; kept blocks are
joined with newlines.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from html.parser import HTMLParser

MIN_WORDS = 10
MIN_DENSITY = 0.5

# Malformed markup can surface incomplete tags (e.g. a trailing "<b") as
# data; the extractor guarantees no tag-like substring survives. The whole
# run of "<" goes, or "<<b" would leave "<b".
_RESIDUAL_TAG_START = re.compile(r"<+(?=[a-zA-Z/!])")

SKIP_SUBTREES = frozenset({"head", "script", "style", "nav", "header", "footer", "form"})

# Block-level elements delimit text blocks; everything else counts as an
# inline tag inside the current block.
BLOCK_TAGS = frozenset(
    {
        "address", "article", "aside", "blockquote", "body", "br", "dd",
        "div", "dl", "dt", "fieldset", "figcaption", "figure", "h1", "h2",
        "h3", "h4", "h5", "h6", "hr", "html", "li", "main", "ol", "p",
        "pre", "section", "table", "tbody", "td", "tfoot", "th", "thead",
        "tr", "ul",
    }
)


@dataclass
class _Block:
    text: str  # residual tag starts removed, whitespace collapsed
    words: int
    tag_count: int

    @property
    def density(self) -> float:
        return self.words / max(self.tag_count, 1)


class _BlockParser(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[_Block] = []
        self._parts: list[str] = []
        self._tag_count = 0
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in SKIP_SUBTREES:
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        if tag in BLOCK_TAGS:
            self._flush()
        else:
            self._tag_count += 1

    def handle_startendtag(self, tag, attrs):
        if self._skip_depth:
            return
        if tag in BLOCK_TAGS:
            self._flush()
        elif tag not in SKIP_SUBTREES:
            self._tag_count += 1

    def handle_endtag(self, tag):
        if tag in SKIP_SUBTREES:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if self._skip_depth:
            return
        if tag in BLOCK_TAGS:
            self._flush()

    def handle_data(self, data):
        if not self._skip_depth and data:
            self._parts.append(data)

    def _flush(self) -> None:
        words = _RESIDUAL_TAG_START.sub("", "".join(self._parts)).split()
        if words:
            self.blocks.append(_Block(" ".join(words), len(words), self._tag_count))
        self._parts = []
        self._tag_count = 0

    def finish(self) -> list[_Block]:
        self._flush()
        return self.blocks


def extract_main_text(html: bytes | str, counters: Counter | None = None) -> str:
    """Extract the main textual content of an HTML page.

    Undecodable byte sequences are replaced and counted under
    ``decode_errors``; an empty result is valid.
    """
    counters = counters if counters is not None else Counter()
    if isinstance(html, bytes):
        try:
            text = html.decode("utf-8")
        except UnicodeDecodeError:
            text = html.decode("utf-8", errors="replace")
            counters["decode_errors"] += 1
    else:
        text = html

    parser = _BlockParser()
    parser.feed(text)
    parser.close()
    blocks = parser.finish()

    by_threshold = [b.words >= MIN_WORDS and b.density >= MIN_DENSITY for b in blocks]
    kept = list(by_threshold)
    for i in range(1, len(blocks) - 1):
        if not kept[i] and by_threshold[i - 1] and by_threshold[i + 1]:
            kept[i] = True

    return "\n".join(b.text for b, keep in zip(blocks, kept) if keep)
