import itertools
import time

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_segment_sentences

from sacreddetect.textpipe.sentences import segment_sentences


def norm(s: str) -> str:
    return " ".join(s.split())


def test_abbreviation_rev_not_a_boundary():
    assert segment_sentences("Rev. Bill spoke. He left.") == [
        "Rev. Bill spoke.",
        "He left.",
    ]


def test_empty_text():
    assert segment_sentences("") == []


def test_url_periods_protected():
    assert segment_sentences("Visit https://a.b/c. Then pray.") == [
        "Visit https://a.b/c.",
        "Then pray.",
    ]


def test_email_periods_protected():
    assert segment_sentences("Mail billwinprison@protonmail.com now. Thanks a lot.") == [
        "Mail billwinprison@protonmail.com now.",
        "Thanks a lot.",
    ]


def test_number_periods_protected():
    assert segment_sentences("Pi is 3.14 roughly. Euler disagreed.") == [
        "Pi is 3.14 roughly.",
        "Euler disagreed.",
    ]


def test_eg_ie_etc():
    assert segment_sentences("Fruit, e.g. apples, is fine.") == [
        "Fruit, e.g. apples, is fine."
    ]
    assert segment_sentences("Bring tools, i.e. hammers.") == [
        "Bring tools, i.e. hammers."
    ]


def test_initials_not_boundaries():
    assert segment_sentences("Rev. F. M. Last preached. Amen followed.") == [
        "Rev. F. M. Last preached.",
        "Amen followed.",
    ]


def test_question_and_exclamation():
    assert segment_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]


def test_newline_runs_are_boundaries():
    assert segment_sentences("heading without period\nbody text here") == [
        "heading without period",
        "body text here",
    ]
    assert segment_sentences("one\n\n\ntwo") == ["one", "two"]


def test_closing_quote_stays_with_sentence():
    out = segment_sentences('He said "stop." Then he left.')
    assert out == ['He said "stop."', "Then he left."]


def test_short_segments_discarded():
    assert segment_sentences("! Real sentence here.") == ["Real sentence here."]


def test_single_letter_initial_joins_sentence():
    # "A." reads as an initial, not a one-letter sentence.
    assert segment_sentences("A. Real sentence here.") == ["A. Real sentence here."]


def test_semicolons_do_not_split():
    text = "For Our Sacred Earth; Aug 28, 2024; Climate change threatens everyone."
    assert segment_sentences(text) == [text]


_words = st.lists(
    st.sampled_from(
        ["alpha", "beta", "gamma", "delta", "words", "more", "Rev.", "e.g.", "3.14", "https://a.b/c"]
    ),
    min_size=1,
    max_size=12,
)
_texts = st.lists(
    st.builds(lambda ws, term: " ".join(ws) + term, _words, st.sampled_from([".", "!", "?", ""])),
    min_size=1,
    max_size=5,
).map(" ".join)


@given(_texts)
def test_lossless_coverage(text):
    segments = segment_sentences(text)
    assert norm(" ".join(segments)) == norm(text)


@given(st.text(alphabet="aB .!?\n'e3g:/", max_size=80))
def test_segments_are_ordered_substrings(text):
    segments = segment_sentences(text)
    cursor = 0
    for seg in segments:
        found = text.find(seg, cursor)
        assert found >= 0
        cursor = found + len(seg)
        assert len(seg.strip()) >= 2


# Pieces that put every kind of character next to a period: newlines
# ("\n." makes the look-back skip one), Unicode whitespace, quotes,
# brackets, abbreviations and initials.
_pieces = st.lists(
    st.sampled_from(
        [
            "Dr", "e.g", "i.e", "Rev", "F", "M", "a", "word", "3.14", "x.y",
            ".", ".", ".", "!", "?", "\n", "\n", " ", " ", "\t", "\r", "\x0b",
            "\x1c", "\x85", "\xa0", "\u2028", "\u3000", '"', "'", "’", "”",
            "“", "‘", "(", ")", "[", "]", "{",
        ]
    ),
    max_size=40,
).map("".join)


@settings(max_examples=500)
@given(_pieces)
def test_matches_regex_lookback_oracle(text):
    assert segment_sentences(text) == naive_segment_sentences(text)


def test_matches_regex_lookback_oracle_on_every_short_text():
    # Every string of up to five pieces: each way an abbreviation, an
    # initial, a newline, a no-break space or a quote can meet a period.
    pieces = ["Dr", "F", "x", ".", "\n", " ", "\xa0", '"', ")"]
    for k in range(1, 6):
        for combo in itertools.product(pieces, repeat=k):
            text = "".join(combo)
            assert segment_sentences(text) == naive_segment_sentences(text), repr(text)


def test_long_page_segments_in_linear_time():
    sentence = "Dr. F. M. Okafor met Rev. Hale, e.g. on Sept. {i}."
    text = " ".join(sentence.format(i=i) for i in range(2000))
    assert len(text) > 100_000
    start = time.perf_counter()
    segments = segment_sentences(text)
    elapsed = time.perf_counter() - start
    assert len(segments) == 2000
    assert elapsed < 1.0, f"{elapsed:.2f}s for 2,000 sentences"



def test_long_terminator_run_segments_in_linear_time():
    for tail in ("x", " x"):
        short = "a" + "." * 200 + tail
        assert segment_sentences(short) == naive_segment_sentences(short)
        text = "a" + "." * 20_000 + tail
        start = time.perf_counter()
        segments = segment_sentences(text)
        elapsed = time.perf_counter() - start
        assert segments == [piece.replace("." * 200, "." * 20_000) for piece in segment_sentences(short)]
        assert elapsed < 0.5, f"{elapsed:.2f}s for a run of 20,000 periods"
