import pytest

from builders import label_matrix
from sacreddetect.analytics import duplicate_consistency, term_report
from sacreddetect.analytics.terms import phrase_in_text


def build(rows_spec):
    """rows_spec: list of (text, tree, gpt, llama)."""
    return label_matrix(
        [("ngo", "religious", *labels) for _, *labels in rows_spec],
        texts=[text for text, *_ in rows_spec],
    )


def test_phrase_matching_rules():
    assert phrase_in_text("We honor Mother Earth.", "mother earth")
    assert phrase_in_text("MOTHER  EARTH rises", "mother earth")
    assert not phrase_in_text("sacredearthy ground", "sacred earth")
    assert not phrase_in_text("grandmother earth", "mother earth")
    assert phrase_in_text("ubuntu", "ubuntu")
    assert not phrase_in_text("", "ubuntu")


def test_mother_earth_fixture_percentages():
    spec = []
    for i in range(1229):
        gpt = "yes" if i < 415 else "no"
        llama = "yes" if i < 457 else "no"
        spec.append((f"Sentence {i} about Mother Earth.", "yes", gpt, llama))
    matrix = build(spec)
    report = term_report(matrix, "mother earth")
    assert report["n_sentences"] == 1229
    assert report["counts"]["tree"]["pct_yes"] == 100.0
    assert abs(report["counts"]["gpt"]["pct_yes"] - 33.8) <= 0.05
    assert abs(report["counts"]["llama"]["pct_yes"] - 37.2) <= 0.05


def test_sacred_earth_fixture_percentages():
    spec = []
    for i in range(52):
        gpt = "yes" if i < 6 else "no"
        llama = "yes" if i < 39 else "no"
        spec.append((f"For our sacred earth, case {i}.", "yes", gpt, llama))
    matrix = build(spec)
    report = term_report(matrix, "sacred earth")
    assert report["n_sentences"] == 52
    assert abs(report["counts"]["gpt"]["pct_yes"] - 11.5) <= 0.05
    assert abs(report["counts"]["llama"]["pct_yes"] - 75.0) <= 0.05


def test_absent_phrase_yields_empty_report():
    matrix = build([("Nothing here.", "no", "no", "no")])
    report = term_report(matrix, "ubuntu")
    assert report["n_sentences"] == 0
    assert report["samples"] == []
    assert report["counts"]["tree"]["n_yes"] == 0


def test_empty_phrase_rejected():
    matrix = build([("Text.", "no", "no", "no")])
    with pytest.raises(ValueError):
        term_report(matrix, "   ")


def test_samples_carry_argumentation():
    matrix = build([("Mother Earth calls.", "yes", "yes", "no")])
    argumentation = {"gpt": {matrix.sentence_ids[0]: "Spiritual concept of the Earth."}}
    report = term_report(matrix, "mother earth", argumentation)
    assert report["samples"][0]["argumentation:gpt"] == "Spiritual concept of the Earth."
    assert report["samples"][0]["labels"]["llama"] == "no"


def test_duplicate_consistency_seven_of_twelve():
    text = "My heart beats rapidly; Mother Earth's heart beats far below."
    spec = []
    for i in range(12):
        llama = "yes" if i < 7 else "no"
        gpt = "yes" if i < 2 else "no"
        spec.append((text, "yes", gpt, llama))
    matrix = build(spec)
    [group] = duplicate_consistency(matrix)
    assert group["n_occurrences"] == 12
    llama = group["per_classifier"]["llama"]
    assert llama["n_yes"] == 7 and llama["n_no"] == 5
    assert llama["consistency"] == pytest.approx(7 / 12)
    gpt = group["per_classifier"]["gpt"]
    assert gpt["consistency"] == pytest.approx(10 / 12)
    assert group["per_classifier"]["tree"]["consistency"] == 1.0


def test_consistency_all_labels_equal():
    matrix = build([("Same line.", "no", "no", "no")] * 5)
    [group] = duplicate_consistency(matrix)
    for entry in group["per_classifier"].values():
        assert entry["consistency"] == 1.0


def test_no_duplicates_empty_report():
    matrix = build([("One.", "no", "no", "no"), ("Two.", "no", "no", "no")])
    assert duplicate_consistency(matrix) == []


def test_grouping_ignores_whitespace_only_differences():
    matrix = build(
        [("Mother Earth  rises.", "yes", "yes", "yes"), ("Mother Earth rises.", "yes", "no", "yes")]
    )
    [group] = duplicate_consistency(matrix)
    assert group["n_occurrences"] == 2
    assert group["per_classifier"]["gpt"]["consistency"] == pytest.approx(0.5)


def test_consistency_over_valid_labels_only():
    matrix = build(
        [("Line.", "no", "yes", "malformed"), ("Line.", "no", "yes", "malformed"),
         ("Line.", "no", "no", "yes")]
    )
    [group] = duplicate_consistency(matrix)
    llama = group["per_classifier"]["llama"]
    assert llama["n_malformed"] == 2
    assert llama["consistency"] == 1.0  # one valid label, unanimous with itself
    gpt = group["per_classifier"]["gpt"]
    assert gpt["consistency"] == pytest.approx(2 / 3)


def test_sorted_by_occurrences_desc():
    matrix = build(
        [("Twice.", "no", "no", "no")] * 2 + [("Thrice.", "no", "no", "no")] * 3
    )
    groups = duplicate_consistency(matrix)
    assert [g["n_occurrences"] for g in groups] == [3, 2]
