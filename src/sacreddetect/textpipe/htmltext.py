"""Main-content extraction from HTML: a small text-density boilerplate filter.

Pass 1 scans the page into text blocks, dropping chrome subtrees outright
(head, script, style, nav, header, footer, form) and splitting the rest at
block-level tag boundaries. Pass 2 keeps a block when it has at least
MIN_WORDS words and a text density (words per tag seen inside the block) of
at least MIN_DENSITY, or when it sits directly between two kept blocks.
Entity references are decoded and whitespace collapsed; kept blocks are
joined with newlines.

The scanner reads markup the way CPython 3.11.7's ``html.parser`` did,
which this module used until extractor version 2:

- A start tag is ``<``, an ASCII letter, the rest of the tag name (up to
  whitespace, ``/``, ``>`` or NUL, lowercased) and attributes, up to ``>``.
  Quoted attribute values may hold ``>`` and ``<``. A tag ending in ``/>``
  is self-closing: it opens no skip depth and no raw-text mode.
- An end tag runs from ``</`` to the first ``>``, its name read as
  ``html.parser`` read it (``</ p>`` and ``</p x>`` both end a ``p``);
  ``</>`` and a ``</`` that names no tag are dropped.
- Comments (``<!--`` to ``--`` and ``>``, blanks between allowed),
  ``<![CDATA[ ]]>``-style sections, other ``<!...>`` and ``<?...>`` are
  dropped.
- A ``script`` or ``style`` body is raw text up to ``</script>`` or
  ``</style>`` (any case, blanks allowed inside); ``</script foo>`` does
  not end it, and without its end tag the rest of the page is hidden.
- Any other ``<`` stays text. Text is decoded with ``html.unescape``, run
  by run between markup, and only where it holds ``&``.

Malformed markup follows 3.11.7 too. A construct that never closes, such
as ``<!-- x``, ``<!-->`` or ``<a b='x`` whose quote never closes, is text
through the first ``>`` after its ``<``, and the scan goes on from there;
with no ``>`` left in the page, the rest is text. Text that still holds
tag-like ``<`` runs loses them when its block is cut (``<b`` becomes
``b``). Two cases differ: a ``<![`` before a keyword ``html.parser`` did
not know (it raised ``AssertionError``) is dropped through the first
``>``, and a NUL right after a tag name leaves ``<name`` as text that is
entity-decoded like all other text (3.11.7 left it raw).

The scan runs in time linear in the page length on every input. Each
search for a ``>``, a comment's or section's end or a raw-text end tag
starts past the last one of its kind, so an unclosed comment, quote or
raw-text element is read once, not again from each later ``<``. For start
tags, where 3.11.7 re-read the rest of the page from each later ``<``, the
end of a tag's attributes is kept for every attribute start it passes:
it depends on that position alone, so a later tag stops where it reaches
one. ``html.parser`` is not used: it was quadratic on unclosed markup
under 3.11.7 (8,000 repeats of ``<a '`` took 9.5 s), its 2025 fix for
that (CVE-2025-6069) also changed what it makes of unclosed markup, so a
page's corpus rows depended on the interpreter's patch release, and it
was the slower tokenizer.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from html import unescape
from string import ascii_letters

# Recorded in extract's manifest: a change to what a page extracts to
# re-runs extract. Version 1 was the html.parser tokenizer.
EXTRACTOR_VERSION = "2"

MIN_WORDS = 10
MIN_DENSITY = 0.5

# Malformed markup can leave incomplete tags (e.g. a trailing "<b") as
# text; the extractor guarantees no tag-like substring survives. The whole
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

# A start or end tag that closes at the first ">" after its "<": the common
# case, read in one match. Groups: start tag name, "/" when self-closing,
# end tag name. Possessive, so a miss costs no more than the tag's length;
# any start tag it misses (a quote in an attribute name, a quoted value
# holding ">", an unclosed quote) goes to _StartTags. Where it matches, it
# reads the tag as html.parser did: every quote it passes closes a value.
_TAG = re.compile(
    r"""<(?:
        ([a-zA-Z][^\t\n\r\f />\x00]*+)
        (?:\s|/(?!>))*+
        (?:(?<=['"\s/])[^\s/>'"=][^\s/=>'"]*+
           (?:\s*+=++\s*+(?:'[^'>]*+'|"[^">]*+"|(?!['"])[^>\s'"]*+))?+
           (?:\s|/(?!>))*+
        )*+
        (/?)>
      | /\s*+([a-zA-Z][-.a-zA-Z0-9:_]*+)\s*+>
    )""",
    re.VERBOSE,
)
# html.parser's pieces of a start tag, for _StartTags
_TAG_NAME = re.compile(r"[a-zA-Z][^\t\n\r\f />\x00]*")
_SEP = re.compile(r"(?:\s|/(?!>))*")
_ATTR_NAME = re.compile(r"(?<=['\"\s/])[^\s/>][^\s/=>]*")
_EQUALS = re.compile(r"\s*(=+)\s*")
_BARE_VALUE = re.compile(r"[^>\s]*")
_SPACE = re.compile(r"\s*")

_COMMENT_CLOSE = re.compile(r"--\s*>")
_DECL_NAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
# the end of a marked section, by its keyword: <![CDATA[ ... ]]>, <![if ...]>
_SECTION_CLOSE = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"), re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>")),
}
_RAW_TEXT_END = {
    "script": re.compile(r"</\s*script\s*>", re.IGNORECASE),
    "style": re.compile(r"</\s*style\s*>", re.IGNORECASE),
}


@dataclass
class _Block:
    text: str  # residual tag starts removed, whitespace collapsed
    words: int
    tag_count: int

    @property
    def density(self) -> float:
        return self.words / max(self.tag_count, 1)


class _Forward:
    """The first match of a pattern at or after a position that only grows
    between calls: a search is made again only once the position passes
    the last match, so all calls together read the page once."""

    def __init__(self, pattern: re.Pattern, text: str) -> None:
        self._pattern = pattern
        self._text = text
        self._searched = False
        self._match: re.Match | None = None

    def at(self, pos: int) -> re.Match | None:
        if not self._searched or (self._match is not None and self._match.start() < pos):
            self._match = self._pattern.search(self._text, pos)
            self._searched = True
        return self._match


class _StartTags:
    """The start tags of one page that _TAG missed, read as html.parser
    read them. The end of a tag's attributes is kept for every attribute
    start they pass, so no stretch of the page is read as attributes
    twice."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._attrs_end: dict[int, int] = {}
        self._last_quote: dict[str, int] = {}

    def read(self, i: int, gt: int) -> tuple[int, str | None, str]:
        """(end, name, "/" when self-closing else "") of the start tag at
        i, or (end, None, "") when text[i:end] is text. gt is the first ">"
        after i."""
        text = self._text
        name = _TAG_NAME.match(text, i + 1)
        j = self._attributes_end(_SEP.match(text, name.end()).end())
        after = text[j : j + 1]
        if after == ">":
            return j + 1, name.group(), ""
        if text.startswith("/>", j):
            return j + 2, name.group(), "/"
        if not after or after in ascii_letters or after in "=/":
            return gt + 1, None, ""  # unclosed: text through the first ">"
        return j, None, ""  # "<name" before a NUL

    def _attributes_end(self, p: int) -> int:
        text, ends = self._text, self._attrs_end
        passed = []
        while p not in ends:
            passed.append(p)
            attr = _ATTR_NAME.match(text, p)
            if attr is None:
                end = _SPACE.match(text, p).end()
                break
            p = _SEP.match(text, self._value_end(attr.end())).end()
        else:
            end = ends[p]
        for p in passed:
            ends[p] = end
        return end

    def _value_end(self, p: int) -> int:
        """Where an attribute's optional "=value" after position p ends."""
        text = self._text
        eq = _EQUALS.match(text, p)
        if eq is None:
            return p
        v = eq.end()
        quote = text[v : v + 1]
        if not quote or quote not in "'\"":
            return _SPACE.match(text, _BARE_VALUE.match(text, v).end()).end()
        last = self._last_quote.get(quote)
        if last is None:
            last = self._last_quote[quote] = text.rfind(quote)
        if v < last:
            return _SPACE.match(text, text.find(quote, v + 1) + 1).end()
        # a quote that never closes: html.parser backed up
        if v > eq.end(1):  # to an empty value on the blank before it
            return v
        if eq.end(1) - eq.start(1) > 1:  # to a bare value from the last "="
            return _SPACE.match(text, _BARE_VALUE.match(text, eq.end(1) - 1).end()).end()
        return p  # to no value at all


def _scan_blocks(text: str) -> list[_Block]:
    blocks: list[_Block] = []
    parts: list[str] = []  # decoded text of the current block
    tag_count = 0  # inline tags in the current block
    depth = 0  # open skip subtrees
    n = len(text)
    find = text.find
    pos = run = 0  # next "<" is searched from pos; text[run:] is not yet taken
    gt = -1  # first ">" at or after the current "<"
    searches: dict[re.Pattern, _Forward] = {}  # closers of comments and sections
    start_tags = None

    def flush(parts: list[str], tag_count: int) -> None:
        if parts:
            joined = "".join(parts)
            if "<" in joined:
                joined = _RESIDUAL_TAG_START.sub("", joined)
            words = joined.split()
            if words:
                blocks.append(_Block(" ".join(words), len(words), tag_count))

    while True:
        lt = find("<", pos)
        if lt < 0:
            break
        if gt < lt:
            gt = find(">", lt)
            if gt < 0:  # every "<" from here on is text
                break
        m = _TAG.match(text, lt)
        if m is not None:
            start, self_closing, end_name = m.groups()
            end = m.end()
        else:
            start = end_name = None
            self_closing = ""
            c = text[lt + 1]  # gt > lt, so there is one
            if c in ascii_letters:
                if start_tags is None:
                    start_tags = _StartTags(text)
                end, start, self_closing = start_tags.read(lt, gt)
                if start is None:  # text: the run goes on
                    pos = end
                    continue
            elif c == "/":
                end = gt + 1
                if text[lt + 2] in ascii_letters:
                    end_name = _TAG_NAME.match(text, lt + 2).group()
                # else "</>" or a bogus comment: dropped
            elif c == "!":
                end = gt + 1  # <!DOCTYPE ...> or another <!...>: dropped
                closer = None
                if text.startswith("--", lt + 2):
                    closer, origin = _COMMENT_CLOSE, lt + 4
                elif text.startswith("[", lt + 2):
                    # html.parser raised on a keyword it did not know; such
                    # a section is dropped through ">"
                    keyword = _DECL_NAME.match(text, lt + 3)
                    closer = _SECTION_CLOSE.get(keyword.group().strip().lower() if keyword else "")
                    origin = lt + 3
                if closer is not None:
                    if closer not in searches:
                        searches[closer] = _Forward(closer, text)
                    close = searches[closer].at(origin)
                    if close is None:  # unclosed: text through ">"
                        pos = end
                        continue
                    end = close.end()
            elif c == "?":
                end = gt + 1  # processing instruction: dropped
            else:  # "<" before anything else is text
                pos = lt + 1
                continue

        if run < lt and not depth:
            chunk = text[run:lt]
            parts.append(unescape(chunk) if "&" in chunk else chunk)
        pos = run = end
        if start is not None:
            start = start.lower()
            if self_closing:
                if not depth:
                    if start in BLOCK_TAGS:
                        flush(parts, tag_count)
                        parts, tag_count = [], 0
                    elif start not in SKIP_SUBTREES:
                        tag_count += 1
            elif start in SKIP_SUBTREES:
                depth += 1
                raw_end = _RAW_TEXT_END.get(start)
                if raw_end is not None:
                    close = raw_end.search(text, end)
                    if close is None:  # the rest of the page is its body
                        pos = run = n
                        break
                    depth -= 1
                    pos = run = close.end()
            elif not depth:
                if start in BLOCK_TAGS:
                    flush(parts, tag_count)
                    parts, tag_count = [], 0
                else:
                    tag_count += 1
        elif end_name is not None:
            end_name = end_name.lower()
            if end_name in SKIP_SUBTREES:
                if depth:
                    depth -= 1
            elif not depth and end_name in BLOCK_TAGS:
                flush(parts, tag_count)
                parts, tag_count = [], 0

    if run < n and not depth:
        chunk = text[run:]
        parts.append(unescape(chunk) if "&" in chunk else chunk)
    flush(parts, tag_count)
    return blocks


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

    blocks = _scan_blocks(text)

    by_threshold = [b.words >= MIN_WORDS and b.density >= MIN_DENSITY for b in blocks]
    kept = list(by_threshold)
    for i in range(1, len(blocks) - 1):
        if not kept[i] and by_threshold[i - 1] and by_threshold[i + 1]:
            kept[i] = True

    return "\n".join(b.text for b, keep in zip(blocks, kept) if keep)
