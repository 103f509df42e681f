import json
import os
import threading
import time

import pytest

from sacreddetect.config import FetchPolicy, SourceSpec
from sacreddetect.harvest import DocumentStore, HostGate, RobotsCache, fetch_live
from sacreddetect.harvest.fetch import harvest_source, make_session

FAST = FetchPolicy(rate_per_host=1000.0, retries=0, timeout=5.0)


def test_fetch_ok_returns_body(http_server):
    _, base = http_server
    doc = fetch_live(f"{base}/page", FAST, ngo_id="x")
    assert doc.status == 200
    assert b"plain words" in doc.body
    assert doc.ok
    assert "text/html" in doc.content_type


def test_fetch_404_records_empty_body(http_server):
    _, base = http_server
    doc = fetch_live(f"{base}/missing", FAST, ngo_id="x")
    assert doc.status == 404
    assert doc.body == b""
    assert not doc.ok


def test_fetch_retries_5xx_until_success(http_server):
    server, base = http_server
    policy = FetchPolicy(rate_per_host=1000.0, retries=3, timeout=5.0, backoff=1.0)
    doc = fetch_live(f"{base}/flaky", policy, ngo_id="x", sleep=lambda s: None)
    assert doc.status == 200
    assert server.flaky_hits == 3


def test_fetch_retries_429_with_the_5xx_backoff_and_no_other_4xx(http_server):
    # a stored URL is never fetched again, so a rate-limited page stored as
    # failed would be lost from the corpus for good
    server, base = http_server
    policy = FetchPolicy(rate_per_host=1000.0, retries=3, timeout=5.0, backoff=2.0)
    waits = []
    doc = fetch_live(f"{base}/throttled", policy, ngo_id="x", sleep=waits.append)
    assert doc.status == 200
    assert b"let through at last" in doc.body
    assert server.throttled_hits == 3
    assert waits == [1.0, 2.0]
    doc = fetch_live(f"{base}/missing", policy, ngo_id="x", sleep=waits.append)
    assert doc.status == 404
    assert [path for path, _ in server.request_log].count("/missing") == 1


def test_fetch_unreachable_is_recorded_not_raised():
    policy = FetchPolicy(rate_per_host=1000.0, retries=1, timeout=0.2, backoff=1.0)
    doc = fetch_live("http://127.0.0.1:1/none", policy, ngo_id="x", sleep=lambda s: None)
    assert doc.status == 0
    assert doc.body == b""


def test_rate_limit_spacing_one_per_second(http_server):
    server, base = http_server
    policy = FetchPolicy(rate_per_host=1.0, retries=0, timeout=5.0)
    gate = HostGate(policy.rate_per_host)
    session = make_session()
    fetch_live(f"{base}/one", policy, session=session, gate=gate)
    fetch_live(f"{base}/two", policy, session=session, gate=gate)
    times = [t for path, t in server.request_log if path in ("/one", "/two")]
    assert len(times) == 2
    assert times[1] - times[0] >= 0.95


class FakeClock:
    """Time that passes only by sleep and by what a test adds to now."""

    def __init__(self):
        self.now, self.waits = 0.0, []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.waits.append(seconds)
        self.now += seconds


def test_the_gate_spaces_each_host_alone_on_a_fake_clock():
    clock = FakeClock()
    gate = HostGate(2.0, clock)  # one request per 0.5 s and host
    spans = []
    for host in ["a", "a", "b", "a", "b", "c"]:
        with gate.slot(host):
            start = clock.now
            clock.now += 0.25  # the request itself
        spans.append((host, start, clock.now))
    for host in "abc":
        own = [(start, end) for h, start, end in spans if h == host]
        assert all(later[0] - earlier[1] >= gate.min_interval for earlier, later in zip(own, own[1:]))
    # only a's repeats wait: b's first request follows a's at once, and b's
    # second finds its own spacing run out while a was served
    assert clock.waits == pytest.approx([0.5, 0.25])
    assert [start for _, start, _ in spans] == pytest.approx([0.0, 0.75, 1.0, 1.5, 1.75, 2.0])


def test_a_held_host_holds_up_no_other_host():
    gate = HostGate(1.0, FakeClock())
    held, release = threading.Event(), threading.Event()

    def hold_a():
        with gate.slot("a"):
            held.set()
            release.wait(timeout=10)

    def visit_b():
        with gate.slot("b"):
            pass

    holder = threading.Thread(target=hold_a)
    holder.start()
    try:
        assert held.wait(timeout=10)
        other = threading.Thread(target=visit_b)
        other.start()
        other.join(timeout=5)
        assert not other.is_alive()
    finally:
        release.set()
        holder.join(timeout=10)


def test_doc_id_is_deterministic_over_url_and_body(http_server):
    _, base = http_server
    a = fetch_live(f"{base}/page", FAST, ngo_id="x")
    b = fetch_live(f"{base}/page", FAST, ngo_id="x")
    assert a.doc_id == b.doc_id


def test_harvest_resume_skips_stored_urls(tmp_path, http_server):
    server, base = http_server
    spec = SourceSpec("x", "secular", "example.org", 2020, 2020)
    store = DocumentStore(tmp_path / "raw")
    session = make_session()
    gate = HostGate(1000.0)
    urls = {f"{base}/p1": "20200101000000", f"{base}/p2": "20200101000000"}
    counters = harvest_source(spec, urls, store, FAST, session, gate)
    assert counters["fetched_ok"] == 2
    requests_before = len(server.request_log)

    counters = harvest_source(spec, urls, store, FAST, session, gate)
    assert counters["skipped_existing"] == 2
    assert len(server.request_log) == requests_before  # no new requests


def test_robots_disallowed_paths_skipped(tmp_path, http_server):
    server, base = http_server
    spec = SourceSpec("x", "secular", "example.org", 2020, 2020)
    store = DocumentStore(tmp_path / "raw")
    session = make_session()
    gate = HostGate(1000.0)
    robots = RobotsCache(session, FAST, gate)
    counters = harvest_source(
        spec,
        {f"{base}/private/secret": "20200101000000", f"{base}/public": "20200101000000"},
        store,
        FAST,
        session,
        gate,
        robots=robots,
    )
    assert counters["skipped_robots"] == 1
    assert counters["fetched_ok"] == 1
    assert not any(p.startswith("/private") for p, _ in server.request_log)


def test_robots_fetched_once_per_host(http_server):
    server, base = http_server
    session = make_session()
    robots = RobotsCache(session, FAST, HostGate(1000.0))
    assert robots.allowed(f"{base}/a")
    assert not robots.allowed(f"{base}/private/x")
    robots_requests = [p for p, _ in server.request_log if p == "/robots.txt"]
    assert len(robots_requests) == 1


def test_snapshot_timestamp_recorded(tmp_path, http_server):
    _, base = http_server
    spec = SourceSpec("x", "secular", "example.org", 2020, 2020)
    store = DocumentStore(tmp_path / "raw")
    url = f"{base}/page"
    harvest_source(
        spec, {url: "20200202000000"}, store, FAST, make_session(), HostGate(1000.0)
    )
    [doc] = list(store.iter_ngo("x"))
    assert doc.snapshot_ts == "20200202000000"


def test_failed_fetch_spacing_still_resumable(tmp_path, http_server):
    _, base = http_server
    spec = SourceSpec("x", "secular", "example.org", 2020, 2020)
    store = DocumentStore(tmp_path / "raw")
    harvest_source(
        spec, {f"{base}/missing": "20200101000000"}, store, FAST, make_session(), HostGate(1000.0)
    )
    [doc] = list(store.iter_ngo("x"))
    assert doc.status == 404
    assert store.has_url(f"{base}/missing")  # recorded, so not refetched


class FakeResponse:
    status_code = 200
    headers = {"Content-Type": "text/html"}
    content = b"<p>fetched</p>"


class FakeSession:
    """Answers every GET with one page and records the URLs asked for."""

    def __init__(self):
        self.urls: list[str] = []

    def get(self, url, timeout=None):
        self.urls.append(url)
        return FakeResponse()


def _store_without_flush(raw, spec, urls):
    store = DocumentStore(raw)
    for url in urls:  # a harvest that crashed before flush_index
        store.append(fetch_live(url, FAST, ngo_id=spec.ngo_id, session=FakeSession()))


def test_resume_rebuilds_a_missing_index_from_the_raw_store(tmp_path):
    spec = SourceSpec("x", "secular", "example.org", 2020, 2020)
    stored = ["https://example.org/a", "https://example.org/b"]
    _store_without_flush(tmp_path / "raw", spec, stored)
    assert not (tmp_path / "raw" / "index.json").exists()

    session = FakeSession()
    store = DocumentStore(tmp_path / "raw")
    worklist = dict.fromkeys([*stored, "https://example.org/c"], "20200101000000")
    counters = harvest_source(spec, worklist, store, FAST, session, HostGate(1000.0))
    assert counters["skipped_existing"] == 2
    assert counters["fetched_ok"] == 1
    assert session.urls == ["https://example.org/c"]
    store.flush_index()
    assert sorted(json.loads((tmp_path / "raw" / "index.json").read_text())) == [
        *stored, "https://example.org/c"
    ]


def test_resume_rebuilds_an_index_older_than_the_raw_store(tmp_path):
    spec = SourceSpec("x", "secular", "example.org", 2020, 2020)
    raw = tmp_path / "raw"
    store = DocumentStore(raw)
    store.append(fetch_live("https://example.org/a", FAST, ngo_id="x", session=FakeSession()))
    store.flush_index()
    _store_without_flush(raw, spec, ["https://example.org/b"])
    index = raw / "index.json"
    stamp = (raw / "x.jsonl").stat().st_mtime_ns - 10**9
    os.utime(index, ns=(stamp, stamp))  # flushed a second before the last append

    counters = harvest_source(
        spec, dict.fromkeys(["https://example.org/a", "https://example.org/b"], "20200101000000"),
        DocumentStore(raw), FAST, FakeSession(), HostGate(1000.0),
    )
    assert counters["skipped_existing"] == 2

