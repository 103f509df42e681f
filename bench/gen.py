"""Seeded synthetic raw store with ground truth.

Every sentence the generator writes is built from pieces whose labels are
known in advance: English filler that holds no lexicon, exclusion or stub
form, plus injected items (lexicon variants, exclusion forms, stub terms,
report phrases). Per-NGO sentence counts and label counts are therefore
known without running the pipeline, and the output checks compare
``stats.json`` against them.

The amount of work does not depend on the seed: sentence counts per NGO,
page-length schedules and the number of yes sentences are fixed by the
workload; the seed only picks words, items and duplicates.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone

from replay import replay_reply

# Per-NGO sentence counts and tree yes-rates of the paper (TREE_FIXTURE).
PAPER_NGOS = (
    ("greenpeace", "secular", 352_247, 1.3),
    ("xr", "secular", 194_588, 2.3),
    ("wwf", "secular", 18_503, 2.5),
    ("rainforest-alliance", "secular", 243_464, 1.0),
    ("cca", "religious", 10_301, 23.0),
    ("arocha", "religious", 6_720, 16.2),
    ("greenfaith", "religious", 7_771, 20.5),
    ("ien", "religious", 49_123, 6.0),
    ("icsd", "religious", 2_403, 36.2),
)

MODELS = (("gpt-4o-mini", "openai-batch"), ("llama-3.3-70b-versatile", "groq-batch"))
FETCHED_AT = datetime(2024, 8, 28, tzinfo=timezone.utc)
REPORT_PHRASES = ("mother earth", "sacred earth", "ubuntu")
# The stub judge's documented term list (word-bounded, case-insensitive).
STUB_TERMS = frozenset({"pray", "prayer", "god", "sacred", "faith", "holy"})

LEXICON_A = """\
exclude: love, hope, submission, sacred cow

Christianity:
  christian: christian, christians
  chaplain: chaplain, chaplains
  friary: friary, friaries
  bible: bible

Islam:
  muslim: muslim, muslims
  koran: koran, quran

Judaism:
  jewish: jewish
  torah: torah

Hinduism:
  hindu: hindu, hindus
  vedas: vedas

Buddhism:
  buddhist: buddhist, buddhists
  nirvana: nirvana

indigenous cosmovisions:
  Mother Earth: mother earth
  ubuntu: ubuntu

nature spiritualities:

general:
  god: god, gods
  prayer: prayer, prayers, pray, prays, prayed, praying
  blessing: bless, blesses, blessed, blessing
  sacred: sacred
  ritual: ritual, rituals
  sacrifice: sacrifice, sacrifices, sacrificed, sacrificing
  devotion: devote, devotes, devoted, devotion
"""

# The curator's edit: two concepts added, nothing removed.
LEXICON_B = LEXICON_A.replace(
    "nature spiritualities:\n",
    "nature spiritualities:\n  spirituality: spiritual, spirituality\n",
).replace(
    "  devotion: devote, devotes, devoted, devotion\n",
    "  devotion: devote, devotes, devoted, devotion\n  faith: faith, faiths\n",
)

A_VARIANTS = (
    "christian", "christians", "chaplain", "chaplains", "friary", "friaries",
    "bible", "muslim", "muslims", "koran", "quran", "jewish", "torah", "hindu",
    "hindus", "vedas", "buddhist", "buddhists", "nirvana", "god", "gods",
    "prayer", "prayers", "pray", "prays", "prayed", "praying", "bless",
    "blesses", "blessed", "blessing", "sacred", "ritual", "rituals",
    "sacrifice", "sacrifices", "sacrificed", "sacrificing", "devote",
    "devotes", "devoted", "devotion",
)
B_ONLY_VARIANTS = ("spiritual", "spirituality", "faith", "faiths")
EXCLUSIONS = ("love", "hope", "submission", "sacred cow")
STUB_ONLY = ("holy",)

# --- English filler -----------------------------------------------------------

SUBJECTS = (
    "The committee", "Local farmers", "Our volunteers", "The regional office",
    "Young people in the city", "The research team", "Many families",
    "The new report", "Community groups", "The board", "Teachers and parents",
    "The coastal council", "Small businesses", "Our campaign staff",
    "The water authority", "Residents of the valley", "Fishing crews",
    "The transport department", "Students at the college", "The city mayor",
)
VERBS = (
    "asked for", "called for", "worked on", "pointed to", "published",
    "welcomed", "supported", "reviewed", "described", "planned", "questioned",
    "measured", "explained", "organised", "defended", "improved", "studied",
    "presented", "discussed", "funded",
)
OBJECTS = (
    "cleaner transport", "better insulation", "the river restoration",
    "new solar panels", "the forest survey", "the water plan",
    "stronger rules on pollution", "a fair energy transition",
    "the coastal wetlands", "urban gardens", "the wind farm proposal",
    "safer drinking water", "the recycling scheme", "the flood defences",
    "cheaper public buses", "the tree planting project", "the air quality data",
    "the new cycling lanes", "local food markets", "the heat action plan",
)
ADJUNCTS = (
    "before the end of the year", "across the whole region",
    "with support from local schools", "after a long public debate",
    "in several towns along the coast", "during the annual meeting",
    "as the summer grew hotter", "while prices kept rising",
    "for the next ten years", "together with their neighbours",
    "in the northern districts", "at the start of the season",
    "after the heavy rains", "in every village near the lake",
    "with help from the university", "over the past three winters",
    "in the older parts of town", "despite the tight budget",
    "after months of careful planning", "along the main river",
)
CLAUSES = (
    "and the results were shared with the public",
    "because the weather is changing quickly",
    "so that children can breathe cleaner air",
    "and many people joined the discussion",
    "while the government listened carefully",
    "and the findings surprised the experts",
    "so that costs stay low for every household",
    "and the work will continue next spring",
    "because local communities asked for it",
    "and the plan was approved without delay",
)
# Frames that carry an injected item into a sentence.
FRAMES = (
    "said members of the {} network",
    "according to the {} circle in the town",
    "as the speakers talked about {}",
    "and the visitors wrote about {} in the guest book",
    "while the leaflet mentioned {} twice",
    "and the group reflected on {} at the end",
)
_ITEM_JOINS = (" and ", ", with ", " next to ", " as well as ")

# Forms no filler word may contain, checked once when the module loads.
_FORBIDDEN = set(A_VARIANTS + B_ONLY_VARIANTS + STUB_ONLY) | STUB_TERMS | {
    "love", "hope", "submission", "cow", "mother", "earth", "ubuntu",
}


def _check_filler_vocab() -> None:
    pieces = SUBJECTS + VERBS + OBJECTS + ADJUNCTS + CLAUSES + _ITEM_JOINS
    pieces += tuple(f.format("") for f in FRAMES)
    for piece in pieces:
        for word in re.findall(r"[a-z]+", piece.lower()):
            if word in _FORBIDDEN:
                raise ValueError(f"filler word {word!r} is a lexicon, exclusion or stub form")


_check_filler_vocab()


@dataclass(frozen=True)
class Item:
    """An injected form and how each classifier should read it."""

    text: str
    tree_a: bool
    tree_b: bool
    stub: bool


def _item(text: str) -> Item:
    in_a = text in A_VARIANTS or text in REPORT_PHRASES
    in_b = in_a or text in B_ONLY_VARIANTS
    return Item(text, in_a, in_b, any(w in STUB_TERMS for w in text.split()))


YES_ITEMS = tuple(_item(v) for v in A_VARIANTS + REPORT_PHRASES)
PHRASE_ITEMS = tuple(_item(p) for p in REPORT_PHRASES)
NO_ITEMS = tuple(_item(v) for v in EXCLUSIONS + B_ONLY_VARIANTS + STUB_ONLY)


@dataclass(frozen=True)
class Sentence:
    text: str
    tree_a: bool
    tree_b: bool
    stub: bool
    phrases: tuple[str, ...]


def _filler(rng: random.Random) -> str:
    parts = [rng.choice(SUBJECTS), rng.choice(VERBS), rng.choice(OBJECTS), rng.choice(ADJUNCTS)]
    text = " ".join(parts)
    # at least ten words, so a one-sentence paragraph still passes the
    # extractor's MIN_WORDS bar
    if rng.random() < 0.5 or len(text.split()) < 10:
        text += ", " + rng.choice(CLAUSES)
    return text


def _sentence(rng: random.Random, items: list[Item]) -> Sentence:
    text = _filler(rng)
    if items:
        carried = rng.choice(_ITEM_JOINS).join(i.text for i in items)
        if rng.random() < 0.2:
            carried = carried.title()
        text += ", " + rng.choice(FRAMES).format(carried)
    text += "?" if rng.random() < 0.05 else "."
    lowered = " ".join(text.lower().split())
    return Sentence(
        text=text,
        tree_a=any(i.tree_a for i in items),
        tree_b=any(i.tree_b for i in items),
        stub=any(i.stub for i in items),
        phrases=tuple(p for p in REPORT_PHRASES if p in lowered),
    )


# --- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """What a workload's raw store looks like; the seed fills it in."""

    ngos: tuple[tuple[str, str, int, float], ...]  # ngo_id, group, sentences, pct yes
    page_sizes: tuple[int, ...]  # cycled per NGO; the last page takes the rest
    multi_hit: float  # share of yes sentences that carry two or three items
    phrase_share: float  # share of yes sentences that carry a report phrase
    no_item_share: float  # share of sentences that also carry an exclusion/B-only/stub item
    dup_share: float  # share of sentences copied from the NGO's boilerplate pool
    extra_docs: int  # per NGO: this many failed fetches, PDFs and non-English pages


def _scaled(total: int) -> tuple[tuple[str, str, int, float], ...]:
    paper_total = sum(n for _, _, n, _ in PAPER_NGOS)
    return tuple(
        (ngo, group, max(12, round(total * n / paper_total)), pct)
        for ngo, group, n, pct in PAPER_NGOS
    )


# Only the per-NGO sentence shares and tree yes-rates are measured (the
# paper's TREE_FIXTURE). Page lengths, duplicate, multi-hit, phrase and
# exclusion shares and the extra documents are assumptions: no harvested
# page-length or duplicate distribution is in the repository yet. Extract
# time, and any saving in segmentation, depends on the page lengths, so
# recalibrate them once such a distribution exists.
SHAPES = {
    "paper-mix": Shape(
        ngos=_scaled(3000),
        page_sizes=(8, 14, 20, 26, 32, 40),
        multi_hit=0.1,
        phrase_share=0.1,
        no_item_share=0.02,
        dup_share=0.1,
        extra_docs=1,
    ),
    "religious-longform": Shape(
        ngos=tuple(
            (ngo, group, 240, pct) for ngo, group, _, pct in PAPER_NGOS if group == "religious"
        ),
        page_sizes=(240,),
        multi_hit=0.4,
        phrase_share=0.35,
        no_item_share=0.1,
        dup_share=0.3,
        extra_docs=0,
    ),
}


@dataclass
class Truth:
    """Expected per-NGO counts of a generated raw store."""

    groups: dict[str, str] = field(default_factory=dict)
    sentences: Counter = field(default_factory=Counter)
    documents: Counter = field(default_factory=Counter)
    tree_yes: dict[str, Counter] = field(default_factory=lambda: {"a": Counter(), "b": Counter()})
    stub_yes: Counter = field(default_factory=Counter)
    # provider name -> label -> ngo -> count, for the replay judge
    replay: dict[str, dict[str, Counter]] = field(default_factory=dict)
    phrases: Counter = field(default_factory=Counter)

    def add(self, ngo: str, s: Sentence) -> None:
        self.sentences[ngo] += 1
        self.tree_yes["a"][ngo] += s.tree_a
        self.tree_yes["b"][ngo] += s.tree_b
        self.stub_yes[ngo] += s.stub
        for p in s.phrases:
            self.phrases[p] += 1
        for _, provider in MODELS:
            label = replay_reply(provider, s.text)[1]
            by_label = self.replay.setdefault(provider, {})
            by_label.setdefault(label, Counter())[ngo] += 1


def _ngo_sentences(rng: random.Random, shape: Shape, n: int, pct: float) -> list[Sentence]:
    n_yes = round(n * pct / 100)

    def make(yes: bool) -> Sentence:
        if yes:
            k = rng.choice((2, 3)) if rng.random() < shape.multi_hit else 1
            items = [rng.choice(YES_ITEMS) for _ in range(k)]
            if rng.random() < shape.phrase_share:
                items[0] = rng.choice(PHRASE_ITEMS)
            if rng.random() < shape.no_item_share:
                # an exclusion form next to a variant
                items.insert(rng.randrange(len(items) + 1), rng.choice(NO_ITEMS))
            return _sentence(rng, items)
        items = [rng.choice(NO_ITEMS)] if rng.random() < shape.no_item_share else []
        return _sentence(rng, items)

    pool = {yes: [make(yes) for _ in range(8)] for yes in (True, False)}
    labels = [True] * n_yes + [False] * (n - n_yes)
    rng.shuffle(labels)
    out = []
    for yes in labels:
        if rng.random() < shape.dup_share:
            out.append(rng.choice(pool[yes]))
        else:
            out.append(make(yes))
    return out


def _page_html(rng: random.Random, title: str, sentences: list[Sentence]) -> bytes:
    paras = []
    i = 0
    while i < len(sentences):
        k = rng.randint(3, 6)
        if len(sentences) - (i + k) < 3:
            k = len(sentences) - i
        texts = [s.text for s in sentences[i : i + k]]
        if rng.random() < 0.3:
            texts[0] = f"<em>{texts[0]}</em>"
        paras.append("<p>" + " ".join(texts) + "</p>")
        i += k
    body = "\n".join(paras)
    html = (
        "<!DOCTYPE html><html><head><title>{t}</title>"
        "<script>var tracker = 1;</script><style>p {{ margin: 0 }}</style></head>"
        "<body><header><a href='/'>Home</a> <a href='/news'>News</a></header>"
        "<nav><ul><li><a href='/about'>About us</a></li><li><a href='/donate'>Donate</a></li></ul></nav>"
        "<main><h1>{t}</h1>\n{b}\n<div class='share'>Share this page</div></main>"
        "<footer><p>Copyright notice and contact details for the office team members here today</p></footer>"
        "</body></html>"
    ).format(t=title, b=body)
    return html.encode("utf-8")


def _foreign_html(rng: random.Random, seeds: dict[str, str]) -> bytes:
    lang = rng.choice(sorted(lang for lang in seeds if lang != "en"))
    sentences = [s.strip() for s in seeds[lang].split(". ") if s.strip()]
    rng.shuffle(sentences)
    half = len(sentences) // 2
    paras = ["<p>" + ". ".join(chunk) + ".</p>" for chunk in (sentences[:half], sentences[half:])]
    return ("<html><body><main>" + "\n".join(paras) + "</main></body></html>").encode("utf-8")


@dataclass
class RawDoc:
    ngo_id: str
    url: str
    status: int
    content_type: str
    body: bytes


def generate(workload: str, seed: int) -> tuple[list[RawDoc], Truth]:
    """The raw documents of a workload and their ground truth."""
    from sacreddetect.textpipe.langid import _SEEDS  # non-English page text

    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    docs: list[RawDoc] = []
    truth = Truth()
    for ngo, group, n, pct in shape.ngos:
        truth.groups[ngo] = group
        sentences = _ngo_sentences(rng, shape, n, pct)
        start = page = 0
        while start < len(sentences):
            size = shape.page_sizes[page % len(shape.page_sizes)]
            if len(sentences) - start - size < min(shape.page_sizes):
                # a remainder page of a sentence or two can be too short
                # for language ID to call English, and the filter drops it
                size = len(sentences) - start
            chunk = sentences[start : start + size]
            url = f"https://{ngo}.example.org/{seed}/news/{page}"
            docs.append(RawDoc(ngo, url, 200, "text/html; charset=utf-8",
                               _page_html(rng, f"News item {page}", chunk)))
            truth.documents[ngo] += 1
            for s in chunk:
                truth.add(ngo, s)
            start += size
            page += 1
        for k in range(shape.extra_docs):
            base = f"https://{ngo}.example.org/{seed}/extra/{k}"
            docs.append(RawDoc(ngo, base + "/gone", 404, "text/html", b""))
            docs.append(RawDoc(ngo, base + "/report.pdf", 200, "application/pdf",
                               b"%PDF-1.4\n" + rng.randbytes(2048)))
            docs.append(RawDoc(ngo, base + "/foreign", 200, "text/html; charset=utf-8",
                               _foreign_html(rng, _SEEDS)))
    return docs, truth

