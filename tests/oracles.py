"""Independent reference implementations used to check the real ones.

These deliberately use different mechanisms than the package: per-variant
regex scans instead of one trie walked from each form start, the
matcher's former exact path (the trie walked from every word start of a
space-collapsed view with an offset map) instead of the start pattern
over the lowered text, plain row-by-row
recounts instead of the vectorized-ish stats code, a regex look-back from
the start of the text instead of the splitter's bounded one, log-odds
recomputed per trigram instead of precomputed tables, a char-by-char
brace scan instead of decoding JSON from the first brace, a whole
request dict encoded per batch line instead of spliced pieces, and one
regex search per stub term with a whole result dict encoded per reply
instead of one combined search and pre-encoded replies, analyze's
former column matrix (every text and label held, one phrase scan per
phrase, duplicates grouped on the text itself) instead of one pass that
keeps only tallies, the stdlib json alone decoding provider result
lines and model replies instead of orjson first, and html.parser
tokenizing pages instead of the extractor's own scanner. They must stay
dumb.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
from collections import Counter
from html.parser import HTMLParser

from sacreddetect.analytics.terms import phrase_in_text
from sacreddetect.judge.prompts import render_prompt
from sacreddetect.judge.verdicts import Verdict, parse_verdict
from sacreddetect.lexicon.matcher import _END, Match, Matcher, MatchResult
from sacreddetect.textpipe.htmltext import (
    _RESIDUAL_TAG_START,
    BLOCK_TAGS,
    MIN_DENSITY,
    MIN_WORDS,
    SKIP_SUBTREES,
    _Block,
)
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


# The matcher's exact path as it was before the start pattern, copied
# unchanged but for one fault: it judged the character before a start in
# its view, where "İ" lowers to "i" and a combining dot that is no letter,
# so a form right after "İ" counted as bounded.


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


def _match_exact(matcher: Matcher, text: str, sentence_id: str) -> MatchResult:
    """The trie walked over the normalized view, which decides every hit."""
    norm, origins = _normalized_view(text)
    n = len(norm)
    variant_hits: list[tuple[int, int, int]] = []
    exclusion_spans: list[tuple[int, int]] = []
    for s, ch in enumerate(norm):
        node = matcher.trie.get(ch)
        if node is None or (s and (origins[s - 1] == origins[s] or text[origins[s] - 1].isalnum())):
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


# --- batch line oracle ------------------------------------------------------


def dict_batch_line(sentence_id: str, text: str, template_id: str, model_id: str) -> str:
    """One batch request line: the whole request dict, encoded at once."""
    line = {
        "custom_id": sentence_id,
        "method": "POST",
        "url": "/v1/chat/completions",
        "body": {
            "model": model_id,
            "messages": [
                {"role": "system", "content": render_prompt(template_id)},
                {"role": "user", "content": text},
            ],
        },
    }
    return json.dumps(line, ensure_ascii=False)


# --- stub provider oracle ---------------------------------------------------

_STUB_TERMS = ("pray", "prayer", "god", "sacred", "faith", "holy")


def naive_stub_term(user_text: str) -> str | None:
    """The first stub term, in term order, that the text holds on word
    boundaries, searched one term at a time."""
    for term in _STUB_TERMS:
        if re.search(rf"(?<![0-9A-Za-z]){re.escape(term)}(?![0-9A-Za-z])", user_text, re.IGNORECASE):
            return term
    return None


def naive_stub_run_batch(lines: list[str]) -> list[str]:
    """StubProvider.run_batch with one search per term and the whole
    result dict encoded per line."""
    out = []
    for line in lines:
        request = json.loads(line)
        term = naive_stub_term(request["body"]["messages"][-1]["content"])
        reply = json.dumps(
            {
                "Religious": "No" if term is None else "Yes",
                "Certainty": "90%",
                "Argumentation": "No religious terms or ideas detected."
                if term is None
                else f"Contains the term '{term}'.",
            }
        )
        result = {
            "custom_id": request["custom_id"],
            "response": {
                "status_code": 200,
                "body": {"choices": [{"message": {"role": "assistant", "content": reply}}]},
            },
            "error": None,
        }
        out.append(json.dumps(result))
    return out


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


def naive_parse_verdict(sentence_id: str, raw_text: str) -> Verdict:
    """parse_verdict by scanning for the first balanced block, then parsing
    that block alone. Without a block the reply is no_json if it holds no
    "{" at all, else bad_json (a block left open)."""
    block = first_balanced_object(raw_text)
    if block is None:
        reason = "bad_json" if "{" in raw_text else "no_json"
        return Verdict(sentence_id, "malformed", None, None, reason)
    return parse_verdict(sentence_id, block)


# --- stdlib-only reply decoding ---------------------------------------------
# parse_verdict and parse_result_lines as they were when the stdlib json
# alone decoded replies and result lines, copied unchanged but for the
# strict whole-message mode, which the package no longer has. Their faults
# are kept: a line nested too deep for the stdlib raises RecursionError
# here, where the package drops it; a lone surrogate escape in an
# argumentation makes a valid verdict here, where the package answers
# bad_argumentation; and an integer certainty past 1e308 raises
# OverflowError, and one past str's digit limit ValueError.

_STDLIB_DECODER = json.JSONDecoder()


def _stdlib_parse_certainty(value) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        number = float(value)
    elif isinstance(value, str):
        token = value.strip().rstrip("%").strip()
        if not token:
            return None
        try:
            number = float(token)
        except ValueError:
            return None
    else:
        return None
    if not math.isfinite(number):  # JSON's Infinity and NaN, or "inf%"
        return None
    return max(0, min(100, round(number)))


def stdlib_parse_verdict(sentence_id: str, raw_text: str) -> Verdict:
    def malformed(reason: str) -> Verdict:
        return Verdict(sentence_id, "malformed", None, None, reason)

    if not isinstance(raw_text, str):
        return malformed("no_json")
    try:
        start = raw_text.find("{")
        if start < 0:
            return malformed("no_json")
        obj, _ = _STDLIB_DECODER.raw_decode(raw_text, start)
    except (json.JSONDecodeError, RecursionError):
        return malformed("bad_json" if "{" in raw_text else "no_json")
    if not isinstance(obj, dict):
        return malformed("bad_json")

    fields = {k.lower(): v for k, v in obj.items() if isinstance(k, str)}
    religious = fields.get("religious")
    if not isinstance(religious, str) or religious.strip().lower() not in ("yes", "no"):
        return malformed("bad_religious")
    certainty = _stdlib_parse_certainty(fields.get("certainty"))
    if certainty is None:
        return malformed("bad_certainty")
    argumentation = fields.get("argumentation")
    if not isinstance(argumentation, str):
        return malformed("bad_argumentation")

    return Verdict(sentence_id, religious.strip().lower(), certainty, argumentation)


def stdlib_parse_result_lines(lines: list[str]) -> dict[str, str]:
    results: dict[str, str] = {}
    for line in lines:
        try:
            row = json.loads(line)
            custom_id = row["custom_id"]
            content = row["response"]["body"]["choices"][0]["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError):
            continue
        if isinstance(custom_id, str) and isinstance(content, str):
            results[custom_id] = content
    return results


# --- HTML extraction oracle -------------------------------------------------
# The extractor as it was before its own scanner: an html.parser subclass
# building the same blocks, copied unchanged. html.parser's reading of
# unclosed markup changed across CPython patch releases (CVE-2025-6069), so
# compare with it only on markup every release reads alike.


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


def naive_blocks(text: str) -> list[_Block]:
    """The page's text blocks, as html.parser tokenizes it."""
    parser = _BlockParser()
    parser.feed(text)
    parser.close()
    return parser.finish()


def naive_extract_main_text(html: bytes | str) -> str:
    """extract_main_text with html.parser as the tokenizer."""
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    blocks = naive_blocks(text)
    by_threshold = [b.words >= MIN_WORDS and b.density >= MIN_DENSITY for b in blocks]
    kept = list(by_threshold)
    for i in range(1, len(blocks) - 1):
        if not kept[i] and by_threshold[i - 1] and by_threshold[i + 1]:
            kept[i] = True
    return "\n".join(b.text for b, keep in zip(blocks, kept) if keep)


# --- language-ID oracle -----------------------------------------------------

_WORD_RE = re.compile(r"[^\W\d_]+")


def _naive_trigram_bag(text: str) -> Counter:
    bag: Counter = Counter()
    for word in _WORD_RE.findall(text.lower()):
        padded = f" {word} "
        for i in range(len(padded) - 2):
            bag[padded[i : i + 3]] += 1
    return bag


@functools.cache
def _naive_profile(lang: str) -> Counter:
    return _naive_trigram_bag(_SEEDS[lang])


def naive_detect_language(text: str) -> tuple[str, float]:
    """detect_language with each trigram's smoothed log-probability
    computed from the seed counts at every use."""
    bag = _naive_trigram_bag(text)
    if not bag:
        return "en", 0.0
    scores = {}
    for lang in LANGUAGES:
        profile = _naive_profile(lang)
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


# --- analyze oracle ---------------------------------------------------------
# Analyze's label matrix as it was before the lockstep pass: aligned columns
# in corpus order. It quacks like analytics.matrix.LabelMatrix for the stats
# functions, which read only joint_counts, scopes(), classifiers and
# model_ids.


@dataclasses.dataclass
class ColumnMatrix:
    sentence_ids: list[str]
    ngo_ids: list[str]
    texts: list[str]
    groups: dict[str, str]  # ngo_id -> secular | religious
    labels: dict[str, list[str]]  # classifier -> one label per row, "tree" first

    @property
    def classifiers(self) -> tuple[str, ...]:
        return tuple(self.labels)

    @property
    def model_ids(self) -> tuple[str, ...]:
        return self.classifiers[1:]

    @functools.cached_property
    def joint_counts(self) -> Counter:
        return Counter(zip(self.ngo_ids, *self.labels.values()))

    def scopes(self) -> dict[str, list[str]]:
        ngo_order = list(dict.fromkeys(self.ngo_ids))
        out = {ngo: [ngo] for ngo in ngo_order}
        for group in ("secular", "religious"):
            members = [ngo for ngo in ngo_order if self.groups[ngo] == group]
            if members:
                out[f"{group}_total"] = members
        if ngo_order:
            out["total"] = ngo_order
        return out


def column_term_report(
    matrix: ColumnMatrix,
    phrase: str,
    argumentation: dict[str, dict[str, str]] | None = None,
    max_samples: int = 10,
) -> dict:
    """A phrase's stats.json "terms" entry; argumentation maps model_id ->
    {sentence_id -> argumentation}."""
    hits = [i for i, text in enumerate(matrix.texts) if phrase_in_text(text, phrase)]
    counts: dict[str, dict] = {}
    for classifier, column in matrix.labels.items():
        n_yes = sum(column[i] == "yes" for i in hits)
        counts[classifier] = {
            "n_yes": n_yes,
            "pct_yes": 100.0 * n_yes / len(hits) if hits else 0.0,
        }
    samples = []
    for i in hits[:max_samples]:
        sentence_id = matrix.sentence_ids[i]
        sample = {"sentence_id": sentence_id, "ngo_id": matrix.ngo_ids[i], "text": matrix.texts[i]}
        for model_id in matrix.model_ids:
            if argumentation and sentence_id in argumentation.get(model_id, {}):
                sample[f"argumentation:{model_id}"] = argumentation[model_id][sentence_id]
        sample["labels"] = {classifier: column[i] for classifier, column in matrix.labels.items()}
        samples.append(sample)
    return {"n_sentences": len(hits), "counts": counts, "samples": samples}


def column_duplicate_consistency(matrix: ColumnMatrix) -> list[dict]:
    """stats.json's "consistency" list, grouping rows on the normalized text."""
    groups: dict[str, list[int]] = {}
    for i, text in enumerate(matrix.texts):
        groups.setdefault(" ".join(text.split()), []).append(i)
    out = []
    for text, rows in groups.items():
        if len(rows) < 2:
            continue
        per_classifier = {}
        for classifier, column in matrix.labels.items():
            tally = Counter(column[i] for i in rows)
            n_yes, n_no = tally["yes"], tally["no"]
            valid = n_yes + n_no
            per_classifier[classifier] = {
                "n_yes": n_yes,
                "n_no": n_no,
                "n_malformed": tally["malformed"],
                "consistency": max(n_yes, n_no) / valid if valid else None,
            }
        out.append({"text": text, "n_occurrences": len(rows), "per_classifier": per_classifier})
    out.sort(key=lambda g: (-g["n_occurrences"], g["text"]))
    return out
