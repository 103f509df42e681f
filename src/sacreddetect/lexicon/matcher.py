"""Sentence matching against every lexicon form with word-boundary semantics.

The matcher merges every lexicon variant (and every exclusion form) into
one character trie and walks it over a normalized view of the sentence --
case-folded, whitespace runs collapsed -- from each position that no letter
or digit precedes. Each step follows one child, so a walk takes at most as
many steps as the longest form (12 characters, ``mother earth``, in the
starter lexicon), however many forms the lexicon holds; a sentence costs
at most that many dictionary lookups per start.

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

Fast negative path: most sentences hold no variant, so the compiled
matcher also writes the trie out as one ``re`` pattern over every variant
form (not the exclusion forms, which only suppress hits). Its cost per
character does not grow with the number of variants; a space in a form
matches a whitespace run, and each form is bounded by the walk's rule
(``[^\\W_]`` is exactly ``str.isalnum``). When ``text.lower()`` equals the
per-character lowering of the normalized view -- it keeps the length (no
``İ``) and the text holds no ``Σ``, whose lowering depends on its context
-- a sentence the pattern does not match is labelled ``no`` with neither
the offset map nor the walk. Every other sentence takes the exact path,
which alone decides spans, overlaps, exclusions and paths.

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
        self.prefilter = _prefilter_pattern(self.trie, patterns)

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)


_NOT_AFTER_ALNUM = r"(?<![^\W_])"
_NOT_BEFORE_ALNUM = r"(?![^\W_])"
# re's parser and compiler recurse once per nested group; a lexicon whose
# trie nests deeper than this (forms "a", "aa", "aaa", ...) gets no
# prefilter rather than a RecursionError.
_MAX_PREFILTER_NESTING = 100


def _prefilter_pattern(trie: dict, patterns: list[_Pattern]) -> re.Pattern | None:
    """One pattern that matches lowered text wherever a variant could match
    with word boundaries, or None when there is no variant or the trie nests
    too deep for re.

    The trie is written out bottom-up with an explicit stack, so a form
    thousands of characters long adds no recursion. A node with one way on
    is written as a plain sequence; only branch points open a group. A
    subtree that ends no variant is left out.
    """
    written: dict[int, tuple[str, int] | None] = {}  # id(node) -> (regex, nesting)
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
                if patterns[child].is_variant:
                    alternatives.append(_NOT_BEFORE_ALNUM)
                continue
            rest = written.pop(id(child))
            if rest is None:
                continue
            alternatives.append((r"\s+" if key == " " else re.escape(key)) + rest[0])
            nesting = max(nesting, rest[1])
        if not alternatives:
            written[id(node)] = None
        elif len(alternatives) == 1:
            written[id(node)] = (alternatives[0], nesting)
        else:
            written[id(node)] = ("(?:" + "|".join(alternatives) + ")", nesting + 1)
    root = written[id(trie)]
    if root is None or root[1] > _MAX_PREFILTER_NESTING:
        return None
    return re.compile(_NOT_AFTER_ALNUM + root[0])


def compile_matcher(lexicon: Lexicon) -> Matcher:
    """Compile an immutable matcher from a validated lexicon."""
    by_text: dict[str, _Pattern] = {}
    for path, node in lexicon.walk():
        for variant in node.variants:
            by_text.setdefault(variant, _Pattern(text=variant, path=path))
    for form in lexicon.exclusions:
        by_text.setdefault(form, _Pattern(text=form)).is_exclusion = True
    return Matcher(list(by_text.values()))


def _normalized_view(text: str) -> tuple[str, list[int]]:
    """Case-folded, space-collapsed view plus per-char original offsets.

    Returns (normalized, origins) where normalized[i] originates from
    text[origins[i]]. Whitespace runs become a single space mapped to the
    run's first character.
    """
    chars: list[str] = []
    origins: list[int] = []
    pending_space_at = -1
    for o, ch in enumerate(text):
        if ch.isspace():
            if pending_space_at < 0:
                pending_space_at = o
            continue
        if pending_space_at >= 0:
            if chars:  # leading whitespace is dropped, inner runs collapse
                chars.append(" ")
                origins.append(pending_space_at)
            pending_space_at = -1
        for low in ch.lower():
            chars.append(low)
            origins.append(o)
    return "".join(chars), origins


def match_sentence(matcher: Matcher, text: str, sentence_id: str = "") -> MatchResult:
    """Match one sentence; label is yes iff at least one variant survives."""
    if matcher.prefilter is not None:
        low = text.lower()
        # equal lengths mean no character lowered to several; Σ alone lowers
        # by context, so otherwise low is the normalized view's lowering
        if len(low) == len(text) and "Σ" not in text and not matcher.prefilter.search(low):
            return MatchResult(sentence_id, ())
    return _match_exact(matcher, text, sentence_id)


def _match_exact(matcher: Matcher, text: str, sentence_id: str) -> MatchResult:
    """The trie walked over the normalized view, which decides every hit."""
    norm, origins = _normalized_view(text)
    n = len(norm)
    variant_hits: list[tuple[int, int, int]] = []
    exclusion_spans: list[tuple[int, int]] = []
    for s, ch in enumerate(norm):
        node = matcher.trie.get(ch)
        if node is None or (s and norm[s - 1].isalnum()):
            continue
        e = s + 1  # node is where norm[s:e] leads
        while True:
            pid = node.get(_END)
            if pid is not None and (e == n or not norm[e].isalnum()):
                pattern = matcher.patterns[pid]
                if pattern.is_exclusion:
                    exclusion_spans.append((s, e))
                if pattern.is_variant:
                    variant_hits.append((pid, s, e))
            if e == n or (node := node.get(norm[e])) is None:
                break
            e += 1

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
