import json
import os
import threading
import time
from datetime import datetime, timezone

import pytest

from sacreddetect.config import FetchPolicy, SourceSpec
from sacreddetect.harvest.fetch import HostGate, RobotsCache, get, harvest_source, make_session
from sacreddetect.harvest.store import DocumentStore

FAST = FetchPolicy(rate_per_host=1000.0, retries=0, timeout=5.0)


class FakeClock:
    """Time that passes only by sleep and by what a test adds to now."""

    def __init__(self):
        self.now, self.waits = 0.0, []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.waits.append(seconds)
        self.now += seconds

    def time(self):
        return 1_600_000_000.0 + self.now


def fetch(url, policy=FAST, clock=time):
    """One get on a fresh session and gate."""
    return get(url, policy, make_session(), HostGate(policy.rate_per_host, clock))


def test_fetch_ok_returns_body(http_server):
    _, base = http_server
    status, content_type, body = fetch(f"{base}/page")
    assert status == 200
    assert b"plain words" in body
    assert "text/html" in content_type


def test_fetch_404_records_empty_body(http_server):
    _, base = http_server
    status, _, body = fetch(f"{base}/missing")
    assert status == 404
    assert body == b""


def test_fetch_retries_5xx_until_success(http_server):
    server, base = http_server
    policy = FetchPolicy(rate_per_host=1000.0, retries=3, timeout=5.0, backoff=1.0)
    status, _, _ = fetch(f"{base}/flaky", policy, FakeClock())
    assert status == 200
    assert server.flaky_hits == 3


def test_fetch_retries_429_with_the_5xx_backoff_and_no_other_4xx(http_server):
    # a stored URL is never fetched again, so a rate-limited page stored as
    # failed would be lost from the corpus for good
    server, base = http_server
    policy = FetchPolicy(rate_per_host=1000.0, retries=3, timeout=5.0, backoff=2.0)
    clock = FakeClock()  # the backoff waits on the gate's clock
    status, _, body = fetch(f"{base}/throttled", policy, clock)
    assert status == 200
    assert b"let through at last" in body
    assert server.throttled_hits == 3
    assert clock.waits == [1.0, 2.0]
    status, _, _ = fetch(f"{base}/missing", policy, clock)
    assert status == 404
    assert [path for path, _ in server.request_log].count("/missing") == 1
    assert clock.waits == [1.0, 2.0]


def test_fetch_unreachable_is_recorded_not_raised():
    policy = FetchPolicy(rate_per_host=1000.0, retries=1, timeout=0.2, backoff=1.0)
    status, _, body = fetch("http://127.0.0.1:1/none", policy, FakeClock())
    assert status == 0
    assert body == b""


def test_rate_limit_spacing_one_per_second(http_server):
    server, base = http_server
    policy = FetchPolicy(rate_per_host=1.0, retries=0, timeout=5.0)
    gate = HostGate(policy.rate_per_host)
    session = make_session()
    get(f"{base}/one", policy, session, gate)
    get(f"{base}/two", policy, session, gate)
    times = [t for path, t in server.request_log if path in ("/one", "/two")]
    assert len(times) == 2
    assert times[1] - times[0] >= 0.95


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


def test_doc_id_is_deterministic_over_url_and_body(tmp_path, http_server):
    _, base = http_server
    spec = SourceSpec("x", "secular", "example.org", 2020, 2020)
    docs = []
    for name in ("a", "b"):  # fetched twice, at two times
        store = DocumentStore(tmp_path / name)
        harvest_source(spec, {f"{base}/page": None}, store, FAST, make_session(), HostGate(1000.0))
        docs.extend(store.iter_ngo("x"))
    assert docs[0].doc_id == docs[1].doc_id


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


def test_each_document_is_stamped_by_the_gate_clock(tmp_path):
    spec = SourceSpec("x", "secular", "example.org", 2020, 2020)
    store = DocumentStore(tmp_path / "raw")
    clock = FakeClock()
    clock.now = 7.5
    urls = {"https://example.org/a": "20200101000000"}
    harvest_source(spec, urls, store, FAST, FakeSession(), HostGate(1000.0, clock))
    [doc] = list(store.iter_ngo("x"))
    assert doc.fetched_at == datetime.fromtimestamp(1_600_000_007.5, timezone.utc)
    assert doc.ok and doc.body == FakeResponse.content


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
    # a harvest that crashed before flush_index
    worklist = dict.fromkeys(urls, "20200101000000")
    harvest_source(spec, worklist, DocumentStore(raw), FAST, FakeSession(), HostGate(1000.0))


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
    worklist = {"https://example.org/a": "20200101000000"}
    harvest_source(spec, worklist, store, FAST, FakeSession(), HostGate(1000.0))
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

