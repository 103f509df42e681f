import random
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_match_spans
from sacreddetect.lexicon import (
    Lexicon,
    LexiconNode,
    MatchResult,
    compile_matcher,
    match_sentence,
)
from sacreddetect.lexicon import matcher as matcher_module
from sacreddetect.lexicon.matcher import _match_exact, classify_corpus
from sacreddetect.lexicon.tree import normalize_form


def lex(variants_by_node: dict[str, list[str]], exclusions: list[str] = ()) -> Lexicon:
    roots = [LexiconNode("general", [])]
    for name, variants in variants_by_node.items():
        roots[0].children.append(LexiconNode(name, list(variants)))
    return Lexicon(roots=roots, exclusions=list(exclusions))


def spans(result):
    return {(m.variant, *m.span) for m in result.matches}


def test_bless_family(starter_matcher):
    result = match_sentence(starter_matcher, "She blessed the fields.")
    assert result.label == "yes"
    assert [m.variant for m in result.matches] == ["blessed"]


def test_mother_earth_path(starter_matcher):
    result = match_sentence(starter_matcher, "We honor Mother Earth today.")
    assert result.match_count == 1
    [m] = result.matches
    assert m.variant == "mother earth"
    assert m.path[-1] == "Mother Earth"
    assert "We honor Mother Earth today."[m.span[0] : m.span[1]] == "Mother Earth"


def test_scared_is_not_sacred(starter_matcher):
    assert match_sentence(starter_matcher, "They were scared.").label == "no"


def test_exclusion_forms_never_match(starter_matcher):
    result = match_sentence(starter_matcher, "We love hope.")
    assert result.label == "no"
    assert result.match_count == 0


def test_boundary_blocks_substring_matches():
    matcher = compile_matcher(lex({"n": ["bless"]}))
    assert match_sentence(matcher, "blessing").label == "no"
    assert match_sentence(matcher, "bless-ing").label == "yes"  # hyphen bounds
    assert match_sentence(matcher, "Bless!").label == "yes"


def test_multiword_across_whitespace_runs():
    matcher = compile_matcher(lex({"n": ["mother earth"]}))
    assert match_sentence(matcher, "mother \t  earth").label == "yes"
    assert match_sentence(matcher, "mother-earth").label == "no"
    assert match_sentence(matcher, "earthmother earth").label == "no"


def test_overlapping_distinct_variants_all_reported():
    matcher = compile_matcher(lex({"n": ["sacred", "sacred earth"]}))
    result = match_sentence(matcher, "Our sacred earth endures.")
    assert {m.variant for m in result.matches} == {"sacred", "sacred earth"}
    assert result.match_count == 2


def test_variant_under_two_nodes_reported_once_with_first_path():
    lexicon = Lexicon(
        roots=[
            LexiconNode("general", [], [LexiconNode("alpha", ["spirit"])]),
            LexiconNode("other", [], [LexiconNode("beta", ["spirit"])]),
        ]
    )
    matcher = compile_matcher(lexicon)
    result = match_sentence(matcher, "The spirit moved.")
    assert result.match_count == 1
    assert result.matches[0].path == ("general", "alpha")


def test_exclusion_suppresses_contained_variant():
    matcher = compile_matcher(lex({"n": ["mother"]}, exclusions=["mother board"]))
    assert match_sentence(matcher, "my mother said").label == "yes"
    assert match_sentence(matcher, "the mother board died").label == "no"


def test_case_and_whitespace_invariance(starter_matcher):
    base = match_sentence(starter_matcher, "We honor Mother Earth today.")
    shouty = match_sentence(starter_matcher, "WE HONOR MOTHER EARTH TODAY.")
    assert [m.variant for m in base.matches] == [m.variant for m in shouty.matches]
    spaced = match_sentence(starter_matcher, "We honor Mother    Earth today.")
    assert [m.variant for m in spaced.matches] == [m.variant for m in base.matches]


def test_label_iff_match_count(starter_matcher):
    for text in ("", "nothing here", "god", "the sacred earth", "scared"):
        result = match_sentence(starter_matcher, text)
        assert (result.label == "yes") == (result.match_count >= 1)


def test_span_text_equals_variant(starter_matcher):
    text = "A Sacred   ritual, a PRAYER, and Mother\tEarth."
    result = match_sentence(starter_matcher, text)
    assert result.match_count >= 3
    for m in result.matches:
        got = " ".join(text[m.span[0] : m.span[1]].lower().split())
        assert got == m.variant


def test_monotonicity_adding_variant_never_removes():
    base = compile_matcher(lex({"n": ["god"]}))
    bigger = compile_matcher(lex({"n": ["god", "sacred"]}))
    text = "The sacred god of rivers."
    assert spans(match_sentence(base, text)) <= spans(match_sentence(bigger, text))


def test_monotonicity_adding_exclusion_never_adds():
    base = compile_matcher(lex({"n": ["god"]}))
    stricter = compile_matcher(lex({"n": ["god"]}, exclusions=["god of rivers"]))
    text = "The sacred god of rivers."
    assert spans(match_sentence(stricter, text)) <= spans(match_sentence(base, text))


def test_classify_corpus_order_preserving(starter_matcher):
    corpus = [("s1", "We pray."), ("s2", "Nothing."), ("s3", "Sacred.")]
    results = classify_corpus(starter_matcher, iter(corpus))
    assert [r.sentence_id for r in results] == ["s1", "s2", "s3"]
    assert [r.label for r in results] == ["yes", "no", "yes"]


def test_classify_empty_corpus(starter_matcher):
    assert classify_corpus(starter_matcher, []) == []


WORDS = [
    "sacred", "scared", "earth", "mother", "god", "gods", "dog", "bless",
    "blessed", "blessing", "ritual", "rituals", "love", "lovely", "hope",
    "nope", "ubuntu", "spirit", "river", "tree", "a", "the", "of",
]


def random_lexicon(rng: random.Random) -> tuple[Lexicon, list[str], list[str]]:
    n_variants = rng.randint(1, 8)
    variants = set()
    while len(variants) < n_variants:
        n_words = rng.choice([1, 1, 1, 2, 3])
        variants.add(" ".join(rng.choice(WORDS) for _ in range(n_words)))
    exclusions = set()
    for _ in range(rng.randint(0, 2)):
        form = " ".join(rng.choice(WORDS) for _ in range(rng.choice([1, 2])))
        if form not in variants:
            exclusions.add(form)
    lexicon = lex({"n": sorted(variants)}, sorted(exclusions))
    return lexicon, sorted(variants), sorted(exclusions)


def random_sentence(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randint(0, 25)):
        pieces.append(rng.choice(WORDS + ["sacred-earth", "god's", "42", "...", "?!"]))
        pieces.append(rng.choice([" ", " ", "  ", "\t", " "]))
    text = "".join(pieces)
    if rng.random() < 0.3:
        text = text.upper()
    return text[:300]


def test_matcher_equals_naive_oracle_seeded():
    rng = random.Random(20240828)
    for _ in range(300):
        lexicon, variants, exclusions = random_lexicon(rng)
        matcher = compile_matcher(lexicon)
        text = random_sentence(rng)
        got = spans(match_sentence(matcher, text))
        want = naive_match_spans(text, variants, exclusions)
        assert got == want, (text, variants, exclusions)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    text=st.text(alphabet="abcdefg GODsacredmother earth.,'-\t()!", max_size=120),
)
def test_matcher_equals_naive_oracle_hypothesis(data, text):
    variants = data.draw(
        st.lists(
            st.sampled_from(
                WORDS
                + ["mother earth", "sacred earth", "god of rivers"]
                # forms with punctuation at the start, at the end or inside
                + ["god's", "st. francis", "mother-earth", "'tis", "(god)", "amen!"]
            ),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    exclusions = [
        e
        for e in data.draw(
            st.lists(st.sampled_from(["mother earth", "lovely", "god"]), max_size=2, unique=True)
        )
        if e not in variants
    ]
    matcher = compile_matcher(lex({"n": variants}, exclusions))
    got = spans(match_sentence(matcher, text))
    want = naive_match_spans(text, variants, exclusions)
    assert got == want


def test_matcher_safe_for_concurrent_use(starter_matcher):
    from concurrent.futures import ThreadPoolExecutor

    texts = [
        "We honor Mother Earth today.",
        "She blessed the fields.",
        "They were scared.",
        "A sacred ritual and a prayer.",
    ] * 25
    serial = [match_sentence(starter_matcher, t) for t in texts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda t: match_sentence(starter_matcher, t), texts))
    assert serial == parallel


@pytest.mark.slow
def test_ten_thousand_variants_compile_and_beat_naive():
    rng = random.Random(7)
    variants = {f"term{i}x{rng.randint(0, 9)}" for i in range(10_000)}
    variants |= {"sacred", "mother earth"}
    lexicon = lex({"n": sorted(variants)})
    matcher = compile_matcher(lexicon)
    assert matcher.pattern_count == len(variants)

    sentences = [random_sentence(rng) or "sacred mother earth" for _ in range(5)]
    start = time.perf_counter()
    for text in sentences:
        match_sentence(matcher, text)
    matcher_time = time.perf_counter() - start

    start = time.perf_counter()
    for text in sentences:
        naive_match_spans(text, sorted(variants), [])
    naive_time = time.perf_counter() - start

    assert matcher_time < naive_time


# --- fast negative path -------------------------------------------------------
# match_sentence may answer "no" from one re search over text.lower(); the
# exact path (_match_exact) is the reference it must always agree with.

FAST_PATH_VARIANTS = [
    "god", "gods", "goddess", "god of rivers", "mother earth", "sacred",
    "θεοσ", "θεος", normalize_form("İslam"), "straße", "strasse", "a b",
]
FAST_PATH_PIECES = [
    "god", "GOD", "Gods", "GODDESS", "goddesses", "of", "Rivers", "mother",
    "EARTH", "Sacred", "ΘΕΟΣ", "θεοσ", "İslam", "ISLAM", "Straße", "STRASSE",
    "a", "B", "İ", "Σ", "σ", "ς", "ß", "\x1c", "\x1d", "\x1e", "\x1f",
    "\x85", "\xa0", " ", "  ", "\u3000", "\t", "_", "0", "7", "-", "'", "’",
    "é", ".",
]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), pieces=st.lists(st.sampled_from(FAST_PATH_PIECES), max_size=30))
def test_fast_path_equals_exact_path(data, pieces):
    variants = data.draw(
        st.lists(st.sampled_from(FAST_PATH_VARIANTS), min_size=1, max_size=6, unique=True)
    )
    exclusions = [
        e
        for e in data.draw(
            st.lists(st.sampled_from(["god of", "sacred", "mother"]), max_size=2, unique=True)
        )
        if e not in variants
    ]
    matcher = compile_matcher(lex({"n": variants}, exclusions))
    text = "".join(pieces)
    assert match_sentence(matcher, text, "s") == _match_exact(matcher, text, "s")


@pytest.mark.parametrize(
    "text, variant",
    [
        ("ΘΕΟΣ", "θεοσ"),  # str.lower gives a final ς; the normalized view lowers per character
        ("İslam", normalize_form("İslam")),  # İ lowers to two characters
        ("mother\x1cearth", "mother earth"),  # \x1c is whitespace
        ("god_", "god"),  # "_" is no letter or digit, so it bounds a word
        ("_god", "god"),
    ],
)
def test_fast_path_keeps_hits_of_the_exact_path(text, variant):
    matcher = compile_matcher(lex({"n": [variant]}))
    result = match_sentence(matcher, text)
    assert result.label == "yes"
    assert result == _match_exact(matcher, text, "")


def test_negative_sentences_never_build_the_offset_map(starter_matcher, monkeypatch):
    def exact_path_ran(text):
        raise AssertionError(f"the exact path ran on {text!r}")

    monkeypatch.setattr(matcher_module, "_normalized_view", exact_path_ran)
    for text in (
        "The ungodly heat scared the demigods' sacredness away.",
        "The café’s owner planted trees along the road.",
    ):
        assert match_sentence(starter_matcher, text) == MatchResult("", ())


def test_large_lexicon_and_long_variant_compile_and_agree_with_exact_path():
    rng = random.Random(11)
    variants = {f"term{i}x{rng.randint(0, 9)}" for i in range(5_000)}
    long_variant = ("sacred earth " * 231)[:3000]
    assert len(long_variant) == 3000
    matcher = compile_matcher(lex({"n": sorted(variants | {long_variant})}))
    assert matcher.prefilter is not None
    picked = rng.sample(sorted(variants), 20)
    texts = [random_sentence(rng) for _ in range(30)]
    texts += [f"See {v.upper()}, not {v}y." for v in picked]
    texts += [f"({long_variant.title()})", long_variant[:-1], long_variant + "s"]
    for text in texts:
        assert match_sentence(matcher, text) == _match_exact(matcher, text, "")
    assert match_sentence(matcher, f"({long_variant.title()})").label == "yes"


def test_deeply_nested_forms_fall_back_to_the_exact_path():
    matcher = compile_matcher(lex({"n": ["a" * k for k in range(1, 300)]}))
    assert matcher.prefilter is None
    assert match_sentence(matcher, "b AAA b").matches[0].span == (2, 5)


def test_lexicon_without_variants_labels_every_sentence_no():
    matcher = compile_matcher(lex({"n": []}, exclusions=["hope"]))
    assert match_sentence(matcher, "We hope.").label == "no"


def test_prefilter_classes_agree_with_str_predicates_on_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"[^\W_]", every) == [c for c in every if c.isalnum()]
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    # the exact path tests whitespace before lowering, the pattern after it
    assert all(c.lower() == c for c in every if c.isspace())
