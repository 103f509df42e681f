import re
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import naive_blocks, naive_extract_main_text

from sacreddetect.config import bundled_path
from sacreddetect.textpipe.htmltext import BLOCK_TAGS, SKIP_SUBTREES, _scan_blocks, extract_main_text

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


# --- the scanner against html.parser -----------------------------------------
# Only markup every CPython release reads alike: html.parser's reading of
# unclosed and otherwise malformed markup changed in 2025 (CVE-2025-6069).

_WORDS = "the river flows past old mills and quiet farms where farmers pray for rain".split()
_text = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=14).map(" ".join)


def _any_case(names):
    """A name from names, each letter upper- or lowercase."""
    return st.tuples(st.sampled_from(names), st.integers(0, 2**10 - 1)).map(
        lambda t: "".join(c.upper() if t[1] >> k & 1 else c for k, c in enumerate(t[0]))
    )


_VALUES = [
    '"a > b"', "'<b>x</b>'", '"x<y"', "'a=b'", "plain", "x-1", '"it\'s"', "'say \"hi\"'",
    '""', "''", "'&amp;'", '"/a/b"',
]
_attrs = st.lists(
    st.tuples(st.sampled_from(["href", "class", "id", "data-x", "title"]), st.sampled_from(_VALUES)),
    max_size=3,
).map(lambda attrs: "".join(f" {name}={value}" for name, value in attrs))

_TAG_NAMES = sorted(BLOCK_TAGS - {"br", "hr"}) + sorted(SKIP_SUBTREES - {"script", "style"}) + [
    "a", "b", "i", "em", "span", "strong", "u", "small",
]

_leaves = st.one_of(
    _text,
    st.sampled_from([
        "&amp;", "&lt;b&gt;", "&#65;", "&#x42;", "&copy", "&amp x", "&notit;", " a < b ", "<3",
        "<!-- a comment -->", "<!DOCTYPE html>", '<?xml version="1.0"?>', "<br/>", "<BR/>",
        '<img src="x.png" alt=\'a > b\' />', "<hr>", "<p class=x>",
    ]),
    st.tuples(_any_case(["script"]), _any_case(["script"])).map(
        lambda t: f'<{t[0]}>var s = "<p>" + x + "</p>"; if (a < b) {{}}</{t[1]}>'
    ),
    st.tuples(_any_case(["style"]), _any_case(["style"])).map(
        lambda t: f"<{t[0]} type='text/css'>p::after {{ content: '</p>'; }} a > b {{}}<p></{t[1]}>"
    ),
)
# a leaf, an element opened (a name and its attributes), or the innermost
# open element closed
_steps = st.one_of(
    _leaves.map(lambda leaf: ("leaf", leaf)),
    st.tuples(_any_case(_TAG_NAMES), _attrs).map(lambda t: ("open", t)),
    st.just(("close", None)),
)


def _nest(steps):
    out, open_names = [], []
    for kind, value in steps:
        if kind == "leaf":
            out.append(value)
        elif kind == "open":
            out.append(f"<{value[0]}{value[1]}>")
            open_names.append(value[0])
        elif open_names:
            out.append(f"</{open_names.pop()}>")
    out.extend(f"</{name}>" for name in reversed(open_names))
    return "".join(out)


_pages = st.lists(_steps, min_size=1, max_size=80).map(_nest)


def _assert_same_as_html_parser(page):
    assert _scan_blocks(page) == naive_blocks(page)
    assert extract_main_text(page) == naive_extract_main_text(page)


@settings(max_examples=2000, deadline=None)
@given(_pages)
def test_well_formed_markup_reads_as_html_parser_read_it(page):
    _assert_same_as_html_parser(page)


@pytest.mark.parametrize("workload", ["paper-mix", "religious-longform"])
def test_bench_pages_read_as_html_parser_read_them(bench_gen, workload):
    for seed in (1, 2, 3):
        docs, _ = bench_gen.generate(workload, seed)
        pages = [d.body.decode() for d in docs if d.body and not d.body.startswith(b"%PDF")]
        assert len(pages) > 4
        for page in pages:
            _assert_same_as_html_parser(page)


def test_sample_pages_read_as_html_parser_read_them():
    for ngo_id in ("cca", "greenfaith", "ien", "icsd"):
        _assert_same_as_html_parser(bundled_path(f"sample/{ngo_id}.html").read_text())


# --- malformed markup ----------------------------------------------------------
# Pinned to what CPython 3.11.7's html.parser made of each tail after a
# ten-word paragraph, not to the html.parser of the running interpreter.

TEN_WORDS = "<p>one two three four five six seven eight nine ten "
TEN = TEN_WORDS[3:-1]


@pytest.mark.parametrize(
    "tail, blocks",
    [
        ("<b", [TEN + " b"]),
        ("<a 'x y", [TEN + " a 'x y"]),
        ("<!-- x y", [TEN + " !-- x y"]),
        ("<!-->z w", [TEN + " !-->z w"]),
        ("</ p>q r", [TEN, "q r"]),  # an end tag: the block ends
        ("</>q r", [TEN + " q r"]),  # dropped
        ("<!-- a -- > q r", [TEN + " q r"]),  # the comment is closed
        ("<script>x</script foo>q r", [TEN]),  # the script is not ended
        ("<![CDATA[c d]]>", [TEN]),
        ("<?x y", [TEN + " <?x y"]),
    ],
)
def test_malformed_tails_read_as_3_11_7_read_them(tail, blocks):
    assert [b.text for b in _scan_blocks(TEN_WORDS + tail)] == blocks


def test_unclosed_quote_is_text_through_the_first_gt_and_scanning_goes_on():
    page = f"{TEN_WORDS}<a href='x>y <b>q</b></p><p>{TEN}</p>"
    assert [(b.text, b.tag_count) for b in _scan_blocks(page)] == [
        (TEN + " a href='x>y q", 1),  # the <b> after it is a tag
        (TEN, 0),
    ]


def test_a_marked_section_html_parser_raised_on_is_dropped():
    assert [b.text for b in _scan_blocks(TEN_WORDS + "<![ x y ]>q r")] == [TEN + " q r"]


# --- linear time ---------------------------------------------------------------


@pytest.mark.parametrize("unclosed", ["<!--", "<a '", '<a "', "<!", "</", "<p", "<script>"])
def test_unclosed_markup_extracts_in_linear_time(unclosed):
    page = f"{TEN_WORDS}</p>" + unclosed * 20_000
    start = time.perf_counter()
    extract_main_text(page)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"{elapsed:.2f}s for 20,000 repeats of {unclosed!r}"


@pytest.mark.parametrize("unit", ["<!-- >", "<a '>", "<a b='>' ", "<a x='>' <a x=\"", "<a b ='x>"])
def test_markup_read_past_the_first_gt_extracts_in_linear_time(unit):
    # a comment that never closes before a ">", quoted values holding ">",
    # and quotes that close only in a later tag: a later "<" must not read
    # the same stretch again (html.parser took 1.2 s for 2,000 repeats of
    # "<a b='>' " and 4.9 s for 4,000)
    page = f"{TEN_WORDS}</p>" + unit * 10_000
    start = time.perf_counter()
    extract_main_text(page)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s for 10,000 repeats of {unit!r}"
