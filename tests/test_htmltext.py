import re
from collections import Counter

from hypothesis import example, given
from hypothesis import strategies as st

from sacreddetect.textpipe import extract_main_text

FIFTY_WORDS = " ".join(f"word{i}" for i in range(50))

CHROME_PAGE = f"""
<html><head><title>t</title><style>p {{ color: red }}</style>
<script>var x = "<p>not text</p>";</script></head>
<body>
<nav><a href="/">Home</a> <a href="/a">About</a> <a href="/b">More</a></nav>
<header><span>Site name</span></header>
<div><p>{FIFTY_WORDS}</p></div>
<form><input name="q"><label>Search the whole site now please</label></form>
<footer><a href="/c">Privacy</a> <a href="/d">Contact</a></footer>
</body></html>
"""


def test_main_paragraph_survives_chrome():
    assert extract_main_text(CHROME_PAGE.encode()) == FIFTY_WORDS


def test_empty_body_gives_empty_string():
    assert extract_main_text(b"<html><body></body></html>") == ""


def test_entities_decoded():
    html = f"<p>A&amp;B {FIFTY_WORDS}</p>"
    out = extract_main_text(html.encode())
    assert "A&B" in out


def test_low_density_markup_heavy_block_dropped():
    # 10 words across 30 inline tags: 0.33 words/tag, under the threshold.
    links = "".join(f'<a href="/{i}"><b><i>x{i}</i></b></a> ' for i in range(10))
    html = f"<body><div>{links}</div><p>{FIFTY_WORDS}</p></body>"
    out = extract_main_text(html.encode())
    assert out == FIFTY_WORDS


def test_few_words_block_dropped():
    html = f"<body><div>Too few words here</div><p>{FIFTY_WORDS}</p></body>"
    out = extract_main_text(html.encode())
    assert out == FIFTY_WORDS


def test_short_block_sandwiched_between_kept_blocks_is_kept():
    html = (
        f"<body><p>{FIFTY_WORDS}</p>"
        "<p>Short aside.</p>"
        f"<p>{FIFTY_WORDS} again here</p></body>"
    )
    out = extract_main_text(html.encode())
    assert "Short aside." in out


def test_short_trailing_block_dropped():
    html = f"<body><p>{FIFTY_WORDS}</p><p>Bye.</p></body>"
    out = extract_main_text(html.encode())
    assert "Bye." not in out


def test_whitespace_collapsed():
    html = f"<p>spaced   out\n\ttext {FIFTY_WORDS}</p>"
    out = extract_main_text(html.encode())
    assert "spaced out text" in out


def test_undecodable_bytes_replaced_and_counted():
    counters = Counter()
    html = b"<p>\xff\xfe " + FIFTY_WORDS.encode() + b"</p>"
    out = extract_main_text(html, counters)
    assert counters["decode_errors"] == 1
    assert "word0" in out


def test_script_style_content_never_leaks():
    html = (
        "<body><script>var hidden = 'SECRET';</script>"
        "<style>p:after { content: 'STYLED' }</style>"
        f"<p>{FIFTY_WORDS}</p></body>"
    )
    out = extract_main_text(html.encode())
    assert "SECRET" not in out
    assert "STYLED" not in out


INLINE_LINKS = "".join(f"<a href='/{i}'><b><i>link{i}</i></b></a> " for i in range(10))

INLINE_PAGE = (
    "<html><head><title>t</title></head><body><nav><a href='/'>Home</a></nav>"
    "<p>The <b>river</b> <i>flows</i> past <a href='/x'>old</a> <em>mills</em> and "
    "<span>quiet</span> farms, where   the\n\tfarmers <strong>pray</strong> for rain "
    "every spring &amp; summer.</p>"
    "<p>Short <i>aside</i>.</p>"
    "<p>Forests, too, need care: <span>planting</span> <span>native</span> trees "
    "brings <u>birds</u> back within ten years &lt;b&gt; of work.</p>"
    f"<div>{INLINE_LINKS}</div>"
    "<div>Menu</div>"
    "<p>A final paragraph about sacred water and holy springs, with enough words "
    "to keep it <b"
)


def test_inline_tags_residual_tag_and_sandwiched_block_pinned():
    # Kept: two dense paragraphs, the short aside between them, and the last
    # paragraph with its residual "<b" (and the decoded "<b>") stripped.
    # Dropped: the link list (10 words over 30 tags) and "Menu".
    assert extract_main_text(INLINE_PAGE.encode()) == (
        "The river flows past old mills and quiet farms, where the farmers pray "
        "for rain every spring & summer.\n"
        "Short aside.\n"
        "Forests, too, need care: planting native trees brings birds back within "
        "ten years b> of work.\n"
        "A final paragraph about sacred water and holy springs, with enough words "
        "to keep it b"
    )


_RESIDUAL_TAG = re.compile(r"<[a-zA-Z/!]")

_html_fragments = st.lists(
    st.one_of(
        st.sampled_from(
            [
                "<p>", "</p>", "<div>", "</div>", "<br>", "<span>", "</span>",
                "<nav>", "</nav>", "<script>", "</script>", "&amp;", "&lt;",
                "<a href='x'>", "</a>", "<!-- c -->",
            ]
        ),
        st.text(
            alphabet="abcdefghij &<>\n\t",
            min_size=0,
            max_size=40,
        ),
    ),
    max_size=30,
)


@given(_html_fragments)
@example(["< <<b <", " <"])  # a run of "<" before a letter
def test_no_residual_tags_property(fragments):
    out = extract_main_text("".join(fragments).encode())
    assert not _RESIDUAL_TAG.search(out)
