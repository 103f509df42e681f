import random

import pytest
from oracles import _naive_trigram_bag, naive_detect_language

from sacreddetect.judge.prompts import render_prompt
from sacreddetect.textpipe.langid import (
    _CACHE_SIZE,
    _SEEDS,
    _WORD_CHARS,
    _WORD_RE,
    _trigram_bag,
    _word_trigrams,
    detect_language,
)

DUTCH_PARAGRAPH = (
    "De aarde warmt op en de zeespiegel stijgt, maar er is nog steeds hoop "
    "voor de toekomst. Nederlandse organisaties werken al jaren samen met "
    "boeren, vissers en gemeenten om de natuur te beschermen. In de duinen "
    "en op de waddeneilanden worden broedplaatsen voor vogels hersteld, "
    "terwijl in de steden steeds meer daken groen worden. Het kabinet heeft "
    "beloofd om de uitstoot van broeikasgassen fors te verminderen, al "
    "vinden veel burgers dat het sneller moet. Tijdens de jaarlijkse "
    "klimaatmars liepen tienduizenden mensen door de straten van Amsterdam."
)


def test_long_english_text_high_confidence():
    lang, confidence = detect_language(render_prompt("revised"))
    assert lang == "en"
    assert confidence >= 0.9


def test_dutch_paragraph_detected():
    lang, confidence = detect_language(DUTCH_PARAGRAPH)
    assert lang == "nl"
    assert confidence >= 0.8


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        detect_language("")


def test_single_word_low_confidence():
    lang, confidence = detect_language("de")
    assert confidence <= 0.5


def test_under_forty_chars_capped_at_half():
    text = "the quick brown fox jumps over the law"  # 39 chars
    assert len(text) < 40
    _, confidence = detect_language(text)
    assert confidence <= 0.5


def test_no_letters_returns_zero_confidence():
    lang, confidence = detect_language("1234 5678 !!")
    assert confidence == 0.0


def test_label_invariant_under_sentence_permutation():
    sentences = [s + "." for s in render_prompt("general").split(". ")]
    rng = random.Random(7)
    base_label, _ = detect_language(" ".join(sentences))
    for _ in range(10):
        rng.shuffle(sentences)
        label, _ = detect_language(" ".join(sentences))
        assert label == base_label


def test_confidence_in_unit_interval():
    for text in ("hello there my friend", DUTCH_PARAGRAPH, "a", "zzz qqq xxx"):
        _, confidence = detect_language(text)
        assert 0.0 <= confidence <= 1.0


def test_scores_equal_per_trigram_formula(sample_documents):
    # Seed paragraphs, the bundled sample pages, and each non-English seed
    # as a harvested foreign page carries it (sentences split, two
    # paragraphs), each whole and cut to its first 1, 3 and 12 words.
    texts = list(_SEEDS.values())
    texts += [doc.text for doc in sample_documents]
    for lang, seed in _SEEDS.items():
        if lang != "en":
            sentences = [s.strip() for s in seed.split(". ") if s.strip()]
            half = len(sentences) // 2
            texts.append(". ".join(sentences[:half]) + ".\n" + ". ".join(sentences[half:]) + ".")
    texts += [DUTCH_PARAGRAPH, render_prompt("revised"), render_prompt("general")]
    texts += [" ".join(t.split()[:k]) for t in list(texts) for k in (1, 3, 12)]
    for text in texts:
        assert detect_language(text) == naive_detect_language(text), text[:60]


# Forms whose lowering is not one-to-one or that the word pattern splits:
# dotted capital I, sharp s, the fi ligature, titlecase dz, a word-final
# capital sigma, words joined by a digit or an underscore, one-letter words.
EDGE_WORDS = [
    "İstanbul", "İ", "straße", "Maß", "ﬁsh", "ǅemal", "ǅ", "ΚΟΣΜΟΣ", "ΟΔΟΣ.",
    "Σ", "co2emissions", "snake_case", "a1b", "a", "I", "é", "x_", "2024",
]


def _word_salad(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    vocabulary = [w for text in _SEEDS.values() for w in text.split()] + EDGE_WORDS
    separators = [" ", " ", " ", "\n", ", ", "-", "'"]
    texts = []
    for i in range(count):
        # a third are 1-3 words, whose posteriors are far from saturated
        n = rng.randint(1, 3) if i % 3 == 0 else rng.randint(4, 80)
        words = rng.choices(vocabulary, k=n)
        if rng.random() < 0.2:
            words.append(rng.choice(EDGE_WORDS))
        texts.append("".join(w + rng.choice(separators) for w in words).strip())
    return texts


SALAD = _word_salad(seed=2113, count=3000)


def test_word_salad_bags_equal_oracle_in_key_order():
    for text in SALAD:
        bag, expected = _trigram_bag(text), _naive_trigram_bag(text)
        assert bag == expected, text[:60]
        assert list(bag) == list(expected), text[:60]


def test_word_salad_scores_equal_oracle():
    for text in SALAD:
        assert detect_language(text) == naive_detect_language(text), text[:60]


def test_results_do_not_depend_on_word_cache_history():
    warm = [detect_language(text) for text in SALAD]
    _word_trigrams.cache_clear()
    assert [detect_language(text) for text in SALAD] == warm
    maxsize = _word_trigrams.cache_info().maxsize
    # distinct letter-only words: the digits of i spelt as a-j
    words = ("".join(chr(97 + int(d)) for d in str(i)) for i in range(maxsize + 1000))
    detect_language(" ".join(words))
    assert _word_trigrams.cache_info().currsize == maxsize
    assert [detect_language(text) for text in SALAD] == warm
    assert [_trigram_bag(text) for text in SALAD[:300]] == [
        _naive_trigram_bag(text) for text in SALAD[:300]
    ]


def test_the_word_table_splits_every_code_point_as_the_word_pattern_does():
    mismatches = []
    for code in range(0x110000):
        if 0xD800 <= code <= 0xDFFF:  # surrogates
            continue
        for text in (chr(code), f"a{chr(code)}b"):
            lowered = text.lower()
            if lowered.translate(_WORD_CHARS).split() != _WORD_RE.findall(lowered):
                mismatches.append(code)
    assert mismatches == []


def test_results_do_not_depend_on_word_table_history():
    warm = [detect_language(text) for text in SALAD]
    _WORD_CHARS.clear()
    assert [detect_language(text) for text in SALAD] == warm
    # more distinct letters than the table holds: CJK ideographs
    letters = "".join(map(chr, range(0x4E00, 0x4E00 + _CACHE_SIZE + 1000)))
    detect_language(letters)
    assert 0 < len(_WORD_CHARS) <= _CACHE_SIZE
    assert [detect_language(text) for text in SALAD] == warm
    assert [_trigram_bag(text) for text in SALAD[:300]] == [
        _naive_trigram_bag(text) for text in SALAD[:300]
    ]
