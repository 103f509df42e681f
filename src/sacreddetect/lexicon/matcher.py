"""Sentence matching against every lexicon form with word-boundary semantics.

The matcher merges every lexicon variant (and every exclusion form) into
one character trie and walks it over the lowered sentence from each
position where a form starts. Each step follows one child, so a walk takes
at most as many steps as the longest form (12 characters, ``mother
earth``, in the starter lexicon), however many forms the lexicon holds; a
sentence costs at most that many dictionary lookups per start.

Semantics:

  * case-insensitive; multi-word variants match across whitespace runs
  * a hit counts only when bounded by non-alphanumeric characters or the
    string edges on both sides ("scared" never matches "sacred", and
    "bless" does not match inside "blessing"); hyphens are boundaries, so
    a single-word variant matches inside a hyphenated compound's segments
    while a multi-word variant still requires actual whitespace
  * overlapping hits from distinct variants are all reported; identical
    (variant, span) pairs are reported once -- a variant housed under
    several nodes reports the first node in tree document order
  * a variant hit whose span lies inside the span of an exclusion-form
    occurrence is suppressed

Spans refer to character offsets in the original sentence; the spanned
text, case-folded and space-normalized, equals the variant.

One path: most sentences hold no form, so the compiled matcher also
writes the trie out as one zero-width ``re`` pattern over every form,
exclusions included, that finds each position where some form starts
with a word boundary on both sides (``[^\\W_]`` is exactly
``str.isalnum``, and a space in a form matches a whitespace run). Its
cost per character does not grow with the number of forms. A sentence
with no start is labelled ``no`` without a walk; the trie is walked only
from the starts. Both run over the lowered sentence: ``text.lower()``,
whose offsets are the sentence's own, when it keeps the length (no
``İ``) and the text holds no ``Σ``, whose lowering depends on its
context; otherwise the per-character lowering, with each character's
offset recorded. Whitespace is never collapsed: a form's space consumes
one whole whitespace run. A start counts only when the sentence
character before it is no letter or digit, so a form right after ``İ``
(lowered to ``i`` and a combining dot) is not bounded.

The compiled matcher is immutable and safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .tree import Lexicon


@dataclass(frozen=True)
class Match:
    variant: str
    path: tuple[str, ...]
    span: tuple[int, int]  # [start, end) character offsets in the sentence


@dataclass(frozen=True)
class MatchResult:
    sentence_id: str
    matches: tuple[Match, ...]

    @property
    def match_count(self) -> int:
        return len(self.matches)

    @property
    def label(self) -> str:
        return "yes" if self.matches else "no"

    def to_dict(self) -> dict:
        return {
            "sentence_id": self.sentence_id,
            "label": self.label,
            "match_count": self.match_count,
            "matches": [
                {"variant": m.variant, "path": list(m.path), "span": list(m.span)}
                for m in self.matches
            ],
        }


@dataclass
class _Pattern:
    text: str
    path: tuple[str, ...] | None = None  # the first node housing the variant
    is_exclusion: bool = False

    @property
    def is_variant(self) -> bool:
        return self.path is not None


_END = ""  # trie key of a form's end, holding its pattern id; no character is ""


class Matcher:
    def __init__(self, patterns: list[_Pattern]):
        self.patterns = patterns
        self.trie: dict = {}
        for pid, pattern in enumerate(patterns):
            node = self.trie
            for ch in pattern.text:
                node = node.setdefault(ch, {})
            node[_END] = pid
        self.starts = _starts_pattern(self.trie)

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)


_NOT_AFTER_ALNUM = r"(?<![^\W_])"
_NOT_BEFORE_ALNUM = r"(?![^\W_])"
# re's parser and compiler recurse once per nested group; a lexicon whose
# trie nests deeper than this (forms "a", "aa", "aaa", ...) gets no start
# pattern, and its sentences are walked from every position, rather than
# a RecursionError.
_MAX_PATTERN_NESTING = 100


def _starts_pattern(trie: dict) -> re.Pattern | None:
    """One zero-width pattern that matches lowered text wherever some form
    starts with word boundaries on both sides, or None when the trie is
    empty (an empty lookahead would match even at the text's end) or nests
    too deep for re.

    The trie is written out bottom-up with an explicit stack, so a form
    thousands of characters long adds no recursion. A node with one way on
    is written as a plain sequence; only branch points open a group.
    """
    written: dict[int, tuple[str, int]] = {}  # id(node) -> (regex, nesting)
    stack = [(trie, False)]
    while stack:
        node, children_done = stack.pop()
        if not children_done:
            stack.append((node, True))
            stack.extend((child, False) for key, child in node.items() if key != _END)
            continue
        alternatives = []
        nesting = 0
        for key, child in node.items():
            if key == _END:
                alternatives.append(_NOT_BEFORE_ALNUM)
                continue
            rest, depth = written.pop(id(child))
            alternatives.append((r"\s+" if key == " " else re.escape(key)) + rest)
            nesting = max(nesting, depth)
        if len(alternatives) == 1:
            written[id(node)] = (alternatives[0], nesting)
        else:
            written[id(node)] = ("(?:" + "|".join(alternatives) + ")", nesting + 1)
    forms, nesting = written[id(trie)]
    if not trie or nesting > _MAX_PATTERN_NESTING:
        return None
    return re.compile(_NOT_AFTER_ALNUM + "(?=" + forms + ")")


def compile_matcher(lexicon: Lexicon) -> Matcher:
    """Compile an immutable matcher from a validated lexicon."""
    by_text: dict[str, _Pattern] = {}
    for path, node in lexicon.walk():
        for variant in node.variants:
            by_text.setdefault(variant, _Pattern(text=variant, path=path))
    for form in lexicon.exclusions:
        by_text.setdefault(form, _Pattern(text=form)).is_exclusion = True
    return Matcher(list(by_text.values()))


def _lowered_per_character(text: str) -> tuple[str, list[int]]:
    """Each character lowered on its own, plus the offset in text of each
    character of the result."""
    chars: list[str] = []
    origins: list[int] = []
    for o, ch in enumerate(text):
        for low in ch.lower():
            chars.append(low)
            origins.append(o)
    return "".join(chars), origins


def match_sentence(matcher: Matcher, text: str, sentence_id: str = "") -> MatchResult:
    """Match one sentence; label is yes iff at least one variant survives."""
    view, origins = text.lower(), range(len(text))
    # equal lengths mean no character lowered to several; Σ alone lowers by
    # context, so then view is the per-character lowering, offsets and all
    if len(view) != len(text) or "Σ" in text:
        view, origins = _lowered_per_character(text)
    n = len(view)
    if matcher.starts is None:
        starts = range(n)
    else:
        starts = [m.start() for m in matcher.starts.finditer(view)]
        if not starts:
            return MatchResult(sentence_id, ())
    variant_hits: list[tuple[int, int, int]] = []
    exclusion_spans: list[tuple[int, int]] = []
    for s in starts:
        o = origins[s]
        # bounded in the text itself: no start inside one character's
        # lowering, and no letter or digit before the character
        if s and (origins[s - 1] == o or text[o - 1].isalnum()):
            continue
        node, e = matcher.trie, s  # node is where view[s:e] leads, a run read as " "
        while e < n:
            ch = view[e]
            e += 1
            if ch.isspace():
                node = node.get(" ")
                while e < n and view[e].isspace():
                    e += 1
            else:
                node = node.get(ch)
            if node is None:
                break
            pid = node.get(_END)
            if pid is not None and (e == n or not view[e].isalnum()):
                pattern = matcher.patterns[pid]
                if pattern.is_exclusion:
                    exclusion_spans.append((s, e))
                if pattern.is_variant:
                    variant_hits.append((pid, s, e))

    matches = []
    for pid, s, e in variant_hits:
        if any(xs <= s and e <= xe for xs, xe in exclusion_spans):
            continue
        pattern = matcher.patterns[pid]
        span = (origins[s], origins[e - 1] + 1)
        matches.append(Match(variant=pattern.text, path=pattern.path, span=span))
    matches.sort(key=lambda m: (m.span, m.variant))
    return MatchResult(sentence_id, tuple(matches))


def classify_corpus(matcher: Matcher, corpus: Iterable[tuple[str, str]]) -> list[MatchResult]:
    """One MatchResult per (sentence_id, text) pair, in corpus order."""
    return [match_sentence(matcher, text, sentence_id) for sentence_id, text in corpus]
