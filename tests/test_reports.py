import json
import math

from sacreddetect.analytics.reports import (
    fmt_pct,
    fmt_ratio,
    phrase_slug,
    render_from_bundle,
    render_rates_table,
)


def rate(n, n_yes, n_no, n_malformed):
    return {
        "n": n, "n_yes": n_yes, "n_no": n_no, "n_malformed": n_malformed,
        "pct_yes": 100.0 * n_yes / n, "pct_no": 100.0 * n_no / n,
    }


def ratio(n_yes, n_no, n_malformed_self, n_disagreements, value):
    return {
        "n_yes": n_yes, "n_no": n_no, "n_malformed_self": n_malformed_self,
        "n_disagreements": n_disagreements, "ratio": value,
        "pct_malformed": 100.0 * n_malformed_self / n_disagreements,
    }


def small_bundle(summary=(), terms=None, consistency=(), provenance=None):
    """A stats.json bundle in the layout analyze writes."""
    return {
        "corpus": list(summary),
        "classifiers": ["tree", "gpt"],
        "scopes": ["a", "total"],
        "rates": {
            "tree|a": rate(4, 1, 3, 0),
            "tree|total": rate(4, 1, 3, 0),
            "gpt|a": rate(4, 2, 1, 1),
            "gpt|total": rate(4, 2, 1, 1),
        },
        "agreement": {
            "overall": {"a": 50.0, "total": 50.0},
            "pairs": ["tree&gpt"],
            "pairwise": {"tree&gpt": {"a": 50.0, "total": 50.0}},
        },
        "ratio_pair": ["gpt", "llama"],
        "disagreement_ratios": {
            "gpt|a": ratio(27, 14, 0, 41, 27 / 14),
            "llama|a": ratio(14, 27, 0, 41, 14 / 27),
            "gpt|total": ratio(3, 0, 1, 4, "inf"),
            "llama|total": ratio(0, 0, 4, 4, None),
        },
        "terms": terms or {},
        "consistency": list(consistency),
        "provenance": provenance or {},
    }


def test_rates_csv_header():
    csv_text, _ = render_rates_table(small_bundle())
    assert csv_text.splitlines()[0] == "classifier,scope,pct_yes,pct_no"


def test_ratio_rounding_two_decimals():
    assert fmt_ratio(1.926) == "1.93"
    assert fmt_ratio(27 / 14) == "1.93"
    assert fmt_pct(33.7672) == "33.8%"


def test_ratio_sentinels():
    assert fmt_ratio(math.inf) == "∞"
    assert fmt_ratio(math.nan) == "n/a"
    # stats.json's spellings of the same two cases
    assert fmt_ratio("inf") == "∞"
    assert fmt_ratio(None) == "n/a"


def test_phrase_slug():
    assert phrase_slug("Mother Earth") == "mother-earth"
    assert phrase_slug("sacred earth!") == "sacred-earth"


def test_render_reports_bundle(tmp_path):
    summary = [{"ngo_id": "a", "group": "secular", "n_documents": 2, "n_sentences": 4}]
    written = render_from_bundle(
        tmp_path, small_bundle(summary, provenance={"corpus/a.jsonl": "abc123"})
    )
    names = {p.relative_to(tmp_path).as_posix() for p in written}
    assert {
        "table1.csv", "table1.md", "table2.csv", "table2.md",
        "table3.csv", "table3.md", "table4.csv", "table4.md",
        "consistency.md", "stats.json",
    } <= names
    table4 = (tmp_path / "table4.md").read_text()
    assert "∞" in table4  # undefined ratio rendered as infinity
    assert "(3:0)" in table4  # raw counts alongside
    footer = (tmp_path / "table2.md").read_text()
    assert "abc123" in footer
    assert "disagreement" in footer  # footnote documents the malformed rule


def test_stats_json_full_precision(tmp_path):
    render_from_bundle(tmp_path, small_bundle())
    bundle = json.loads((tmp_path / "stats.json").read_text())
    assert bundle["rates"]["gpt|a"]["pct_yes"] == 50.0
    assert bundle["disagreement_ratios"]["gpt|a"]["ratio"] == 27 / 14
    assert bundle["disagreement_ratios"]["gpt|total"]["ratio"] == "inf"


def test_render_from_bundle_round_trips_tables(tmp_path):
    summary = [{"ngo_id": "a", "group": "secular", "n_documents": 2, "n_sentences": 4}]
    term = {
        "n_sentences": 1,
        "counts": {"tree": {"n_yes": 1, "pct_yes": 100.0}, "gpt": {"n_yes": 0, "pct_yes": 0.0}},
        "samples": [
            {
                "sentence_id": "s1",
                "ngo_id": "a",
                "text": "We honor Mother Earth.",
                "argumentation:gpt": "No religious terms.",
                "labels": {"tree": "yes", "gpt": "no"},
            }
        ],
    }
    group = {
        "text": "Same line.",
        "n_occurrences": 2,
        "per_classifier": {
            "tree": {"n_yes": 2, "n_no": 0, "n_malformed": 0, "consistency": 1.0},
            "gpt": {"n_yes": 1, "n_no": 0, "n_malformed": 1, "consistency": None},
        },
    }
    bundle = small_bundle(summary, {"Mother Earth": term}, [group], {"x": "y"})
    # through real serialization: key order is normalized on disk, so the
    # bundle's explicit ordering fields must carry presentation order
    reloaded = json.loads(json.dumps(bundle, sort_keys=True))
    direct = render_from_bundle(tmp_path / "direct", bundle)
    via_disk = render_from_bundle(tmp_path / "disk", reloaded)
    names = [p.relative_to(tmp_path / "direct") for p in direct]
    assert names == [p.relative_to(tmp_path / "disk") for p in via_disk]
    assert "terms/mother-earth.md" in {n.as_posix() for n in names}
    for name in names:
        assert (tmp_path / "direct" / name).read_bytes() == (tmp_path / "disk" / name).read_bytes(), name
    samples = (tmp_path / "direct" / "terms" / "mother-earth.md").read_text()
    assert "## Samples" in samples
    assert "- (a; gpt=no, tree=yes) We honor Mother Earth." in samples
    assert "  - gpt: No religious terms." in samples
