from collections import Counter

import pytest

from sacreddetect.config import SourceSpec
from sacreddetect.errors import CdxParseError
from sacreddetect.harvest.cdx import build_cdx_query, parse_cdx_response

ICSD = SourceSpec("icsd", "religious", "interfaithsustain.com", 2014, 2024)

ICSD_QUERY = (
    "https://web.archive.org/cdx/search/cdx?url=interfaithsustain.com"
    "&matchType=prefix&output=json&from=2014&to=2024"
    "&filter=mimetype:(text/html|application/pdf)"
    "&filter=!statuscode:^[45]"
)


def test_query_is_byte_exact_for_icsd():
    assert build_cdx_query(ICSD) == ICSD_QUERY


def test_query_same_template_other_host():
    spec = SourceSpec("gp", "secular", "greenpeace.org", 2014, 2024)
    assert build_cdx_query(spec) == ICSD_QUERY.replace(
        "url=interfaithsustain.com", "url=greenpeace.org"
    )


def test_query_degenerate_year_range():
    spec = SourceSpec("x", "secular", "example.org", 2020, 2020)
    assert "from=2020&to=2020" in build_cdx_query(spec)


def test_query_deterministic():
    assert build_cdx_query(ICSD) == build_cdx_query(
        SourceSpec("icsd", "religious", "interfaithsustain.com", 2014, 2024)
    )


def test_parse_single_record():
    body = (
        '[["original","timestamp","mimetype","statuscode"],'
        '["http://a/x","20150101000000","text/html","200"]]'
    )
    records = parse_cdx_response(body)
    assert len(records) == 1
    rec = records[0]
    assert rec.original_url == "http://a/x"
    assert rec.timestamp == "20150101000000"
    assert rec.mimetype == "text/html"
    assert rec.statuscode == "200"


def test_parse_header_only():
    assert parse_cdx_response('[["original","timestamp","mimetype","statuscode"]]') == []


def test_parse_empty_array():
    assert parse_cdx_response("[]") == []


def test_parse_invalid_json_names_byte_offset():
    with pytest.raises(CdxParseError, match=r"byte \d+"):
        parse_cdx_response("not json")


def test_parse_unknown_header_names_listed():
    body = '[["original","timestamp","mimetype","statuscode","zebra","quux"]]'
    with pytest.raises(CdxParseError, match="quux, zebra"):
        parse_cdx_response(body)


def test_parse_missing_required_header():
    with pytest.raises(CdxParseError, match="statuscode"):
        parse_cdx_response('[["original","timestamp","mimetype"]]')


def test_parse_skips_and_counts_bad_rows():
    body = (
        '[["original","timestamp","mimetype","statuscode"],'
        '["http://a/1","20150101000000","text/html","200"],'
        '["http://a/2","20150101000000","text/html"],'
        '["http://a/3","","text/html","200"],'
        '["http://a/4","2015010100","text/html","200"],'
        '["http://a/5","20151301000000","text/html","200"]]'
    )
    counters = Counter()
    records = parse_cdx_response(body, counters)
    assert [r.original_url for r in records] == ["http://a/1"]
    assert counters["cdx_rows_skipped"] == 4


def test_parse_realistic_full_header():
    # Mirrors the documented JSON output shape with all default fields.
    body = (
        '[["urlkey","timestamp","original","mimetype","statuscode","digest","length"],'
        '["com,example)/","20200301123456","https://example.com/","text/html","200","ABCDEF","1234"],'
        '["com,example)/page","20210301123456","https://example.com/page","application/pdf","200","ABCDEG","999"]]'
    )
    records = parse_cdx_response(body)
    assert len(records) == 2
    assert records[1].mimetype == "application/pdf"
