from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from sacreddetect.harvest.cdx import CdxRecord, parse_cdx_response
from sacreddetect.harvest.worklist import derive_worklist, normalize_url


def rec(url: str, ts: str = "20200101000000") -> CdxRecord:
    return CdxRecord(url, ts, "text/html", "200")


def test_normalization_collapses_case_and_fragment():
    urls = list(derive_worklist([rec("http://A.com/p#frag"), rec("http://a.com/p")]))
    assert urls == ["http://a.com/p"]


def test_empty_input():
    assert list(derive_worklist([])) == []


def test_same_url_three_timestamps_dedupes():
    records = [
        rec("https://a.com/page", "20150101000000"),
        rec("https://a.com/page", "20160101000000"),
        rec("https://a.com/page", "20170101000000"),
    ]
    assert list(derive_worklist(records)) == ["https://a.com/page"]


def test_trailing_slash_and_query_preserved():
    records = [rec("https://a.com/dir/"), rec("https://a.com/dir"), rec("https://a.com/?p=2075")]
    assert list(derive_worklist(records)) == [
        "https://a.com/dir/",
        "https://a.com/dir",
        "https://a.com/?p=2075",
    ]


def test_unparseable_urls_dropped_and_counted():
    counters = Counter()
    urls = list(derive_worklist(
        [rec("ftp://a.com/x"), rec("nonsense"), rec("https://ok.com/y")], counters
    ))
    assert urls == ["https://ok.com/y"]
    assert counters["urls_dropped"] == 2


def test_first_seen_order_preserved():
    records = [rec("http://b.com/2"), rec("http://a.com/1"), rec("http://b.com/2")]
    assert list(derive_worklist(records)) == ["http://b.com/2", "http://a.com/1"]


def test_snapshot_timestamps_keep_latest():
    body = (
        '[["original","timestamp","mimetype","statuscode"],'
        '["http://A.com/p","20150101000000","text/html","200"],'
        '["http://a.com/p","20180101000000","text/html","200"],'
        '["http://a.com/p","20160101000000","text/html","200"]]'
    )
    records = parse_cdx_response(body)
    assert derive_worklist(records) == {"http://a.com/p": "20180101000000"}


_url_strategy = st.builds(
    lambda scheme, host, path, frag: f"{scheme}://{host}{path}{frag}",
    st.sampled_from(["http", "HTTP", "https", "HTTPS"]),
    st.sampled_from(["a.com", "A.com", "b.org", "b.ORG:8080"]),
    st.sampled_from(["", "/", "/x", "/x/", "/x?q=1", "/Y"]),
    st.sampled_from(["", "#f", "#g"]),
)


@given(st.lists(_url_strategy, max_size=30))
def test_worklist_properties(urls):
    records = [rec(u) for u in urls]
    out = list(derive_worklist(records))
    assert len(out) <= len(records)
    assert len(set(out)) == len(out)
    normalized_inputs = {normalize_url(u) for u in urls}
    assert set(out) <= normalized_inputs
    # idempotent: renormalizing the output changes nothing
    assert list(derive_worklist([rec(u) for u in out])) == out
