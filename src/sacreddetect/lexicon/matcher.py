"""Single-pass multi-pattern sentence matching with word-boundary semantics.

The matcher compiles every lexicon variant (and every exclusion form) into
one Aho-Corasick automaton and scans a normalized view of the sentence --
case-folded, whitespace runs collapsed -- in a single pass, so matching a
sentence touches each character O(1) amortized times regardless of how many
variants the lexicon holds.

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
matcher also carries one ``re`` pattern over every variant form (not the
exclusion forms, which only suppress hits). The pattern is shaped like a
trie of the forms, so its cost per character does not grow with the
number of variants; a space in a form matches a whitespace run, and each
form is bounded by the same rule as ``_boundary_ok`` (``[^\\W_]`` is
exactly ``str.isalnum``). When ``text.lower()`` equals the per-character
lowering the automaton sees -- it keeps the length (no ``İ``) and the text
holds no ``Σ``, whose lowering depends on its context -- a sentence the
pattern does not match is labelled ``no`` with neither the offset map nor
the automaton built. Every other sentence takes the exact path, which
alone decides spans, overlaps, exclusions and paths.

The compiled matcher is immutable and safe to share across threads.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

from ..textpipe.corpus import SentenceRecord
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
    match_count: int
    label: str  # yes | no

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
    paths: list[tuple[str, ...]] = field(default_factory=list)
    is_exclusion: bool = False

    @property
    def is_variant(self) -> bool:
        return bool(self.paths)


class _Node:
    __slots__ = ("children", "fail", "outputs")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        self.fail: _Node | None = None
        self.outputs: list[int] = []


class Matcher:
    def __init__(self, patterns: list[_Pattern]):
        self.patterns = patterns
        self._root = _Node()
        for pid, pattern in enumerate(patterns):
            node = self._root
            for ch in pattern.text:
                node = node.children.setdefault(ch, _Node())
            node.outputs.append(pid)
        self._build_failure_links()
        self.prefilter = _prefilter_pattern([p.text for p in patterns if p.is_variant])

    def _build_failure_links(self) -> None:
        root = self._root
        queue: deque[_Node] = deque()
        for child in root.children.values():
            child.fail = root
            queue.append(child)
        while queue:
            current = queue.popleft()
            for ch, child in current.children.items():
                fallback = current.fail
                while fallback is not root and ch not in fallback.children:
                    fallback = fallback.fail
                child.fail = fallback.children.get(ch, root)
                if child.fail is child:
                    child.fail = root
                child.outputs = child.outputs + child.fail.outputs
                queue.append(child)

    def scan(self, text: str) -> list[tuple[int, int, int]]:
        """All automaton hits over text as (pattern_id, start, end)."""
        root = self._root
        node = root
        hits = []
        for i, ch in enumerate(text):
            while node is not root and ch not in node.children:
                node = node.fail
            node = node.children.get(ch, root)
            for pid in node.outputs:
                end = i + 1
                hits.append((pid, end - len(self.patterns[pid].text), end))
        return hits

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)


_NOT_AFTER_ALNUM = r"(?<![^\W_])"
_NOT_BEFORE_ALNUM = r"(?![^\W_])"
# re's parser and compiler recurse once per nested group; a lexicon whose
# trie nests deeper than this (forms "a", "aa", "aaa", ...) gets no
# prefilter rather than a RecursionError.
_MAX_PREFILTER_NESTING = 100


def _prefilter_pattern(forms: list[str]) -> re.Pattern | None:
    """One pattern that matches lowered text wherever a form could match
    with word boundaries, or None when the trie nests too deep for re.

    The forms are merged into a trie, and the trie is written out bottom-up
    with an explicit stack, so a form thousands of characters long adds no
    recursion. A node with one way on is written as a plain sequence; only
    branch points open a group.
    """
    end = object()  # key marking that a form ends at this node
    root: dict = {}
    for form in forms:
        node = root
        for ch in form:
            node = node.setdefault(ch, {})
        node[end] = None
    written: dict[int, tuple[str, int]] = {}  # id(node) -> (regex, nesting)
    stack = [(root, False)]
    while stack:
        node, children_done = stack.pop()
        if not children_done:
            stack.append((node, True))
            stack.extend((child, False) for key, child in node.items() if key is not end)
            continue
        alternatives = []
        nesting = 0
        for key, child in node.items():
            if key is end:
                alternatives.append(_NOT_BEFORE_ALNUM)
                continue
            rest, child_nesting = written.pop(id(child))
            alternatives.append((r"\s+" if key == " " else re.escape(key)) + rest)
            nesting = max(nesting, child_nesting)
        if len(alternatives) == 1:
            written[id(node)] = (alternatives[0], nesting)
        else:
            written[id(node)] = ("(?:" + "|".join(alternatives) + ")", nesting + 1)
    regex, nesting = written[id(root)]
    if nesting > _MAX_PREFILTER_NESTING:
        return None
    return re.compile(_NOT_AFTER_ALNUM + regex)


def compile_matcher(lexicon: Lexicon) -> Matcher:
    """Compile an immutable matcher from a validated lexicon."""
    by_text: dict[str, _Pattern] = {}
    for path, node in lexicon.walk():
        for variant in node.variants:
            by_text.setdefault(variant, _Pattern(text=variant)).paths.append(path)
    for form in lexicon.exclusions:
        pattern = by_text.setdefault(form, _Pattern(text=form))
        pattern.is_exclusion = True
    return Matcher(list(by_text.values()))


def _normalized_view(text: str) -> tuple[str, list[int], list[int]]:
    """Case-folded, space-collapsed view plus per-char original offsets.

    Returns (normalized, starts, ends) where normalized[i] originates from
    text[starts[i]:ends[i]]. Whitespace runs become a single space mapped
    to the run's first character.
    """
    chars: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    pending_space_at = -1
    for o, ch in enumerate(text):
        if ch.isspace():
            if pending_space_at < 0:
                pending_space_at = o
            continue
        if pending_space_at >= 0:
            if chars:  # leading whitespace is dropped, inner runs collapse
                chars.append(" ")
                starts.append(pending_space_at)
                ends.append(pending_space_at + 1)
            pending_space_at = -1
        for low in ch.lower():
            chars.append(low)
            starts.append(o)
            ends.append(o + 1)
    return "".join(chars), starts, ends


def _boundary_ok(norm: str, start: int, end: int) -> bool:
    before_ok = start == 0 or not norm[start - 1].isalnum()
    after_ok = end == len(norm) or not norm[end].isalnum()
    return before_ok and after_ok


def match_sentence(matcher: Matcher, text: str, sentence_id: str = "") -> MatchResult:
    """Match one sentence; label is yes iff at least one variant survives."""
    if matcher.prefilter is not None:
        low = text.lower()
        # equal lengths mean no character lowered to several; Σ alone lowers
        # by context, so otherwise low is the automaton's per-character view
        if len(low) == len(text) and "Σ" not in text and not matcher.prefilter.search(low):
            return MatchResult(sentence_id, (), 0, "no")
    return _match_exact(matcher, text, sentence_id)


def _match_exact(matcher: Matcher, text: str, sentence_id: str) -> MatchResult:
    """The automaton over the normalized view, which decides every hit."""
    norm, starts, ends = _normalized_view(text)
    variant_hits: list[tuple[int, int, int]] = []
    exclusion_spans: list[tuple[int, int]] = []
    for pid, s, e in matcher.scan(norm):
        if not _boundary_ok(norm, s, e):
            continue
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
        span = (starts[s], ends[e - 1])
        matches.append(Match(variant=pattern.text, path=pattern.paths[0], span=span))
    matches.sort(key=lambda m: (m.span, m.variant))

    return MatchResult(
        sentence_id=sentence_id,
        matches=tuple(matches),
        match_count=len(matches),
        label="yes" if matches else "no",
    )


def classify_corpus(matcher: Matcher, corpus: list[SentenceRecord]) -> list[MatchResult]:
    """One MatchResult per sentence, in corpus order."""
    return [match_sentence(matcher, rec.text, rec.sentence_id) for rec in corpus]


def yes_rate_summary(corpus: list[SentenceRecord], results: list[MatchResult]) -> dict[str, dict]:
    """Per-NGO sentence counts and yes-rates for stage logs."""
    per_ngo: dict[str, dict] = {}
    for rec, res in zip(corpus, results):
        entry = per_ngo.setdefault(rec.ngo_id, {"n": 0, "yes": 0})
        entry["n"] += 1
        entry["yes"] += res.label == "yes"
    for entry in per_ngo.values():
        entry["pct_yes"] = 100.0 * entry["yes"] / entry["n"] if entry["n"] else 0.0
    return per_ngo
