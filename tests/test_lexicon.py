import pytest

from sacreddetect.errors import LexiconError
from sacreddetect.lexicon.tree import Lexicon, LexiconNode, parse_lexicon_text, validate_lexicon


def test_starter_has_expected_roots(starter_lexicon):
    names = [r.name for r in starter_lexicon.roots]
    assert names == [
        "Christianity",
        "Islam",
        "Judaism",
        "Hinduism",
        "Buddhism",
        "indigenous cosmovisions",
        "nature spiritualities",
        "general",
    ]


def test_starter_buddhism_contains_nirvana(starter_lexicon):
    buddhism = next(r for r in starter_lexicon.roots if r.name == "Buddhism")
    variants = [v for _, node in Lexicon(roots=[buddhism]).walk() for v in node.variants]
    assert "nirvana" in variants


def test_starter_exclusions(starter_lexicon):
    assert starter_lexicon.exclusions == ["hope", "love", "submission"]


def test_starter_multiword_variant(starter_lexicon):
    assert "mother earth" in starter_lexicon.all_variants()


def test_variant_exclusion_overlap_is_hard_error():
    text = "exclude: love\ngeneral:\n  love: love\n"
    with pytest.raises(LexiconError, match="love"):
        parse_lexicon_text(text)


def test_empty_roots_rejected():
    with pytest.raises(LexiconError, match="no roots"):
        parse_lexicon_text("exclude: love\n")


def test_missing_general_root_rejected():
    with pytest.raises(LexiconError, match="general"):
        parse_lexicon_text("Christianity: christian\n")


def test_bad_indentation_names_line():
    text = "general: god\n   odd: x\n"
    with pytest.raises(LexiconError, match="line 2"):
        parse_lexicon_text(text)


def test_missing_colon_names_line():
    text = "general: god\nbroken line\n"
    with pytest.raises(LexiconError, match="line 2"):
        parse_lexicon_text(text)


def test_indent_jump_rejected():
    text = "general: god\n    deep: x\n"
    with pytest.raises(LexiconError, match="line 2"):
        parse_lexicon_text(text)


def test_empty_surface_form_rejected():
    with pytest.raises(LexiconError, match="line 1"):
        parse_lexicon_text("general: god, , prayer\n")


def test_variants_normalized_on_parse():
    lexicon = parse_lexicon_text("general:\n  x: Mother   EARTH , ubuntu\n")
    assert lexicon.all_variants() == ["mother earth", "ubuntu"]


def test_duplicate_variant_across_nodes_allowed_and_reported():
    text = "general:\n  a: spirit\nChristianity:\n  b: spirit\n"
    lexicon = parse_lexicon_text(text)
    dupes = lexicon.duplicate_variants()
    assert list(dupes) == ["spirit"]
    assert len(dupes["spirit"]) == 2


def test_repeated_name_along_path_rejected():
    text = "general:\n  general: x\n"
    with pytest.raises(LexiconError, match="repeats"):
        parse_lexicon_text(text)


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\ngeneral: god\n  # nested comment\n  node: prayer\n"
    lexicon = parse_lexicon_text(text)
    assert lexicon.all_variants() == ["god", "prayer"]


def test_validate_direct_construction():
    lexicon = Lexicon(
        roots=[LexiconNode("general", ["god"])],
        exclusions=["love"],
    )
    assert validate_lexicon(lexicon) is lexicon
