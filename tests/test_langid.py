import random

import pytest
from oracles import naive_detect_language

from sacreddetect.judge.prompts import render_prompt
from sacreddetect.textpipe import detect_language
from sacreddetect.textpipe.langid import _SEEDS

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
