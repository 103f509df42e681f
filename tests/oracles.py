"""Independent reference implementations used to check the real ones.

These deliberately use different mechanisms than the package: per-variant
regex scans instead of the multi-pattern automaton, plain row-by-row
recounts instead of the vectorized-ish stats code, a regex look-back from
the start of the text instead of the splitter's bounded one, log-odds
recomputed per trigram instead of precomputed tables, and a char-by-char
brace scan instead of decoding JSON from the first brace. They must stay
dumb.
"""

from __future__ import annotations

import dataclasses
import math
import re
from collections import Counter

from sacreddetect.judge.verdicts import Verdict, parse_verdict
from sacreddetect.textpipe.langid import _SEEDS, LANGUAGES
from sacreddetect.textpipe.sentences import (
    _NEWLINE_RE,
    ABBREVIATIONS,
    MIN_SEGMENT_CHARS,
)

VALID = ("yes", "no")


# --- matcher oracle ---------------------------------------------------------


def _variant_regex(variant: str) -> re.Pattern:
    # Boundary = non-alphanumeric or edge; [^\W_] is "alphanumeric" in re terms.
    words = [re.escape(w) for w in variant.split()]
    body = r"\s+".join(words)
    return re.compile(rf"(?<![^\W_]){body}(?![^\W_])", re.IGNORECASE | re.UNICODE)


def naive_match_spans(text: str, variants: list[str], exclusions: list[str]) -> set[tuple[str, int, int]]:
    """All surviving (variant, start, end) triples by brute-force scanning."""
    exclusion_spans = []
    for form in exclusions:
        for m in _variant_regex(form).finditer(text):
            exclusion_spans.append((m.start(), m.end()))
    out = set()
    for variant in variants:
        for m in _variant_regex(variant).finditer(text):
            s, e = m.start(), m.end()
            if any(xs <= s and e <= xe for xs, xe in exclusion_spans):
                continue
            out.add((variant, s, e))
    return out


def naive_label(text: str, variants: list[str], exclusions: list[str]) -> str:
    return "yes" if naive_match_spans(text, variants, exclusions) else "no"


# --- splitter oracle --------------------------------------------------------
# The splitter's first abbreviation test: the word before a period is the
# `(\S+)$` match searched from offset 0, so each period costs its offset.
# Its boundary regex may start a match anywhere inside a run of
# terminators, which is quadratic in the run's length but finds the same
# boundaries as the splitter's, which starts matches only at a run's start.

_BOUNDARY_RE = re.compile(r"([.!?]+)[\"'’”)\]]*(?=\s|$)")

_LAST_TOKEN_RE = re.compile(r"(\S+)$")


def _naive_is_abbreviation(text: str, dot_index: int) -> bool:
    m = _LAST_TOKEN_RE.search(text, 0, dot_index)
    if not m:
        return False
    token = m.group(1).strip("\"'‘’“”([{")
    if not token:
        return False
    word = token.rstrip(".").lower()
    return word in ABBREVIATIONS or (len(word) == 1 and word.isalpha())


def naive_segment_sentences(text: str) -> list[str]:
    ends = {len(text)} if text else set()
    for m in _BOUNDARY_RE.finditer(text):
        if m.group(1) != "." or not _naive_is_abbreviation(text, m.start(1)):
            ends.add(m.end())
    ends.update(m.start() for m in _NEWLINE_RE.finditer(text))
    segments, start = [], 0
    for end in sorted(ends):
        piece = text[start:end].strip()
        if len(piece) >= MIN_SEGMENT_CHARS:
            segments.append(piece)
        start = end
    return segments


# --- verdict oracle ---------------------------------------------------------


def first_balanced_object(text: str) -> str | None:
    """The first balanced {...} block, honoring JSON string semantics."""
    start = -1
    depth = 0
    in_string = False
    escaped = False
    for i, ch in enumerate(text):
        if start < 0:
            if ch == "{":
                start = i
                depth = 1
            continue
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
    return None


def naive_parse_verdict(sentence_id: str, model_id: str, raw_text: str) -> Verdict:
    """parse_verdict by scanning for the first balanced block, then parsing
    that block alone in strict mode."""
    block = first_balanced_object(raw_text)
    if block is None:
        return Verdict(sentence_id, model_id, "malformed", None, None, raw_text)
    verdict = parse_verdict(sentence_id, model_id, block, strict=True)
    return dataclasses.replace(verdict, raw_text=raw_text)


# --- language-ID oracle -----------------------------------------------------

_WORD_RE = re.compile(r"[^\W\d_]+")


def _naive_trigram_bag(text: str) -> Counter:
    bag: Counter = Counter()
    for word in _WORD_RE.findall(text.lower()):
        padded = f" {word} "
        for i in range(len(padded) - 2):
            bag[padded[i : i + 3]] += 1
    return bag


def naive_detect_language(text: str) -> tuple[str, float]:
    """detect_language with each trigram's smoothed log-probability
    computed from the seed counts at every use."""
    bag = _naive_trigram_bag(text)
    if not bag:
        return "en", 0.0
    scores = {}
    for lang in LANGUAGES:
        profile = _naive_trigram_bag(_SEEDS[lang])
        denom = sum(profile.values()) + len(profile) + 1
        scores[lang] = sum(n * math.log((profile.get(g, 0) + 1) / denom) for g, n in bag.items())
    best = max(scores, key=lambda lang: (scores[lang], lang))
    posterior = 1.0 / sum(math.exp(s - scores[best]) for s in scores.values())
    return best, posterior * min(1.0, len(text.strip()) / 80.0)


# --- stats oracles ----------------------------------------------------------
# Rows are plain dicts: {"ngo": ..., "group": ..., "labels": {classifier: label}}


def scope_rows(rows: list[dict]) -> dict[str, list[dict]]:
    scopes: dict[str, list[dict]] = {}
    for row in rows:
        scopes.setdefault(row["ngo"], []).append(row)
    secular = [r for r in rows if r["group"] == "secular"]
    religious = [r for r in rows if r["group"] == "religious"]
    if secular:
        scopes["secular_total"] = secular
    if religious:
        scopes["religious_total"] = religious
    scopes["total"] = list(rows)
    return scopes


def naive_rates(rows: list[dict], classifiers: list[str]) -> dict:
    out = {}
    for scope, members in scope_rows(rows).items():
        for c in classifiers:
            yes = no = malformed = 0
            for row in members:
                lbl = row["labels"][c]
                if lbl == "yes":
                    yes += 1
                elif lbl == "no":
                    no += 1
                else:
                    malformed += 1
            out[(c, scope)] = {
                "n": len(members),
                "n_yes": yes,
                "n_no": no,
                "n_malformed": malformed,
                "pct_yes": 100.0 * yes / len(members),
                "pct_no": 100.0 * no / len(members),
            }
    return out


def naive_agreement(rows: list[dict], classifiers: list[str]) -> dict:
    pairs = [
        (classifiers[i], classifiers[j])
        for i in range(len(classifiers))
        for j in range(i + 1, len(classifiers))
    ]
    out = {"pairwise": {}, "overall": {}}
    for scope, members in scope_rows(rows).items():
        n = len(members)
        for a, b in pairs:
            hits = 0
            for row in members:
                la, lb = row["labels"][a], row["labels"][b]
                if la in VALID and lb in VALID and la == lb:
                    hits += 1
            out["pairwise"][(a, b, scope)] = 100.0 * hits / n
        all_agree = 0
        for row in members:
            labels = [row["labels"][c] for c in classifiers]
            if labels[0] in VALID and all(lbl == labels[0] for lbl in labels):
                all_agree += 1
        out["overall"][scope] = 100.0 * all_agree / n
    return out


def naive_ratios(rows: list[dict], a: str, b: str) -> dict:
    out = {}
    for scope, members in scope_rows(rows).items():
        subset = []
        for row in members:
            la, lb = row["labels"][a], row["labels"][b]
            if la != lb or la not in VALID or lb not in VALID:
                subset.append(row)
        for model in (a, b):
            counts = Counter(row["labels"][model] for row in subset)
            yes, no = counts.get("yes", 0), counts.get("no", 0)
            if no == 0:
                ratio = math.nan if yes == 0 else math.inf
            else:
                ratio = yes / no
            out[(model, scope)] = {
                "n_yes": yes,
                "n_no": no,
                "n_malformed_self": counts.get("malformed", 0),
                "n_disagreements": len(subset),
                "ratio": ratio,
            }
    return out
