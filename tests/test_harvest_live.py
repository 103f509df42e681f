"""The live harvest stage end to end, against a recorded web: a requests
transport adapter mounted on the harvest's session answers the CDX index,
robots.txt and the pages, so nothing leaves the process."""

import json
import threading
import time
from urllib.parse import parse_qs, urlsplit

import pytest
import requests
from requests.adapters import BaseAdapter

from sacreddetect.config import FetchPolicy, SourceSpec, sample_config_path, validate_config
from sacreddetect.errors import SacredDetectError
from sacreddetect.harvest import fetch
from sacreddetect.harvest.fetch import HostGate, RobotsCache
from sacreddetect.harvest.store import DocumentStore
from sacreddetect.manifest import read_manifest
from sacreddetect.stages import Layout, run_harvest

ALPHA = SourceSpec("alpha", "secular", "alpha.example.org", 2014, 2024)
BETA = SourceSpec("beta", "religious", "beta.example.org", 2014, 2024)
POLICY = FetchPolicy(rate_per_host=1000.0, retries=2, timeout=5.0, backoff=2.0)
PAGE = b"<html><body><p>" + b"plain words " * 12 + b"</p></body></html>"
HEADER = ["original", "timestamp", "mimetype", "statuscode"]


def _cdx_reply(*rows) -> tuple[int, bytes]:
    return 200, json.dumps([HEADER, *([*row, "text/html", "200"] for row in rows)]).encode()


class RecordedWeb(BaseAdapter):
    """Serves each CDX listing by the source host its query names, each
    robots.txt and page by URL. A list of replies is answered in turn, its
    last reply from then on; an unknown URL is a 404. Every request is
    logged with its timeout."""

    def __init__(self, cdx: dict, pages: dict):
        super().__init__()
        self.cdx, self.pages = cdx, pages
        self.log: list[tuple[str, float]] = []

    def send(self, request, timeout=None, **kwargs):
        self.log.append((request.url, timeout))
        parts = urlsplit(request.url)
        if parts.netloc == "web.archive.org":
            replies = self.cdx[parse_qs(parts.query)["url"][0]]
        else:
            replies = self.pages.get(request.url, [(404, b"")])
        status, body = replies.pop(0) if len(replies) > 1 else replies[0]
        response = requests.Response()
        response.status_code, response._content = status, body
        response.headers["Content-Type"] = "text/html"
        response.url, response.request = request.url, request
        return response

    def close(self):
        pass


class LiveHarvest:
    """The live harvest of alpha and beta, each run against a fresh
    RecordedWeb on one output root. Sleeps are recorded, not slept."""

    def __init__(self, tmp_path, monkeypatch):
        self.config = validate_config(sample_config_path())
        self.config.output_root = tmp_path / "run"
        self.config.sources, self.config.policy = [ALPHA, BETA], POLICY
        self.layout = Layout(self.config.output_root)
        self.waits: list[float] = []
        self._monkeypatch = monkeypatch
        monkeypatch.setattr(time, "sleep", self.waits.append)

    def run(self, cdx: dict, pages: dict) -> None:
        self.web = RecordedWeb(cdx, pages)

        def make_session():
            session = requests.Session()
            session.mount("https://", self.web)
            return session

        self._monkeypatch.setattr(fetch, "make_session", make_session)
        run_harvest(self.config)

    def stored(self, ngo_id: str) -> list:
        return list(DocumentStore(self.layout.raw).iter_ngo(ngo_id))

    def counters(self) -> dict:
        return read_manifest(self.layout.raw).params["counters"]


@pytest.fixture()
def harvest(tmp_path, monkeypatch):
    return LiveHarvest(tmp_path, monkeypatch)


def _pages(*urls) -> dict:
    return {url: [(200, PAGE)] for url in urls}


def test_a_cdx_503_is_retried_and_the_source_harvested(harvest):
    cdx = {
        "alpha.example.org": [_cdx_reply(["https://alpha.example.org/a", "20200101000000"])],
        "beta.example.org": [
            (503, b"busy"),
            _cdx_reply(["https://beta.example.org/b", "20210101000000"]),
        ],
    }
    harvest.run(cdx, _pages("https://alpha.example.org/a", "https://beta.example.org/b"))
    assert [doc.url for doc in harvest.stored("beta")] == ["https://beta.example.org/b"]
    counters = harvest.counters()
    assert counters["fetched_ok"] == 2 and "cdx_failed" not in counters
    log = harvest.web.log
    # alpha's query once, beta's twice, each with the CDX timeout
    assert [t for url, t in log if url.startswith("https://web.archive.org/")] == [60.0] * 3
    assert {t for url, t in log if ".example.org/" in url} == {POLICY.timeout}
    assert POLICY.backoff**0 in harvest.waits


def test_a_cdx_query_failing_every_attempt_fails_the_harvest_after_the_others(harvest):
    cdx = {
        "alpha.example.org": [_cdx_reply(["https://alpha.example.org/a", "20200101000000"])],
        "beta.example.org": [(503, b"busy")],
    }
    with pytest.raises(SacredDetectError, match=r"CDX query failed for beta;") as raised:
        harvest.run(cdx, _pages("https://alpha.example.org/a"))
    assert type(raised.value) is SacredDetectError  # exit 1
    beta_queries = [url for url, _ in harvest.web.log if "url=beta.example.org" in url]
    assert len(beta_queries) == POLICY.retries + 1
    assert [doc.url for doc in harvest.stored("alpha")] == ["https://alpha.example.org/a"]
    assert not (harvest.layout.raw / "beta.jsonl").exists()
    assert (harvest.layout.raw / "index.json").is_file()
    assert harvest.counters()["cdx_failed"] == 1


def test_a_clean_run_after_a_failed_cdx_query_rewrites_the_counters(harvest):
    alpha = _cdx_reply(["https://alpha.example.org/a", "20200101000000"])
    pages = _pages("https://alpha.example.org/a")
    with pytest.raises(SacredDetectError, match=r"CDX query failed for beta;"):
        harvest.run({"alpha.example.org": [alpha], "beta.example.org": [(503, b"busy")]}, pages)
    assert harvest.counters()["cdx_failed"] == 1
    # the sources and raw files are as the failed run left them
    harvest.run({"alpha.example.org": [alpha], "beta.example.org": [_cdx_reply()]}, pages)
    assert "cdx_failed" not in harvest.counters()
    # and a run that changes nothing leaves the manifest alone
    manifest = (harvest.layout.raw / "manifest.json").read_bytes()
    harvest.run({"alpha.example.org": [alpha], "beta.example.org": [_cdx_reply()]}, pages)
    assert (harvest.layout.raw / "manifest.json").read_bytes() == manifest


def test_a_page_robots_txt_disallows_is_skipped(harvest):
    cdx = {
        "alpha.example.org": [
            _cdx_reply(
                ["https://alpha.example.org/private/x", "20200101000000"],
                ["https://alpha.example.org/a", "20200101000000"],
            )
        ],
        "beta.example.org": [_cdx_reply()],
    }
    robots = {
        "https://alpha.example.org/robots.txt": [(200, b"User-agent: *\nDisallow: /private/\n")]
    }
    harvest.run(cdx, {**robots, **_pages("https://alpha.example.org/a")})
    counters = harvest.counters()
    assert (counters["skipped_robots"], counters["fetched_ok"]) == (1, 1)
    urls = [url for url, _ in harvest.web.log]
    assert not any("/private/" in url for url in urls)
    assert urls.count("https://alpha.example.org/robots.txt") == 1


@pytest.mark.parametrize("status", [503, 429])
def test_an_unreachable_robots_txt_disallows_its_origin_for_the_run(harvest, caplog, status):
    # RFC 9309 2.3.1.4: a robots.txt that cannot be reached disallows all
    cdx = {
        "alpha.example.org": [_cdx_reply(["https://alpha.example.org/a", "20200101000000"])],
        "beta.example.org": [_cdx_reply(["https://beta.example.org/b", "20210101000000"])],
    }
    pages = _pages("https://alpha.example.org/a", "https://beta.example.org/b")
    robots = "https://alpha.example.org/robots.txt"
    harvest.run(cdx, {robots: [(status, b"")], **pages})
    assert harvest.stored("alpha") == []
    assert [doc.url for doc in harvest.stored("beta")] == ["https://beta.example.org/b"]
    urls = [url for url, _ in harvest.web.log]
    assert "https://alpha.example.org/a" not in urls
    assert urls.count(robots) == POLICY.retries + 1
    assert (harvest.counters()["skipped_robots"], harvest.counters()["fetched_ok"]) == (1, 1)
    assert any(
        r.levelname == "WARNING" and "https://alpha.example.org" in r.getMessage()
        for r in caplog.records
    )
    # a later run that reaches robots.txt fetches the page
    harvest.run(cdx, {robots: [(200, b"User-agent: *\nAllow: /\n")], **pages})
    assert [doc.url for doc in harvest.stored("alpha")] == ["https://alpha.example.org/a"]


def test_each_raw_row_carries_its_urls_latest_snapshot(harvest, caplog):
    cdx = {
        "alpha.example.org": [
            _cdx_reply(
                ["https://alpha.example.org/a", "20160101000000"],
                ["https://ALPHA.example.org/a#top", "20190101000000"],
                ["https://alpha.example.org/b", "20170101000000"],
                ["https://alpha.example.org/a", "20180101000000"],
            )
        ],
        "beta.example.org": [_cdx_reply()],
    }
    harvest.run(cdx, _pages("https://alpha.example.org/a", "https://alpha.example.org/b"))
    assert [(doc.url, doc.snapshot_ts) for doc in harvest.stored("alpha")] == [
        ("https://alpha.example.org/a", "20190101000000"),
        ("https://alpha.example.org/b", "20170101000000"),
    ]
    # beta's listing is empty: the harvest says so, naming the source
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        "harvest beta: the CDX listing yields no URL to fetch"
    ]


def test_a_robots_txt_in_flight_holds_up_no_other_host():
    in_flight, release = threading.Event(), threading.Event()

    class SlowAlpha(RecordedWeb):
        def send(self, request, timeout=None, **kwargs):
            if "alpha" in request.url:
                in_flight.set()
                release.wait(timeout=10)
            return super().send(request, timeout=timeout, **kwargs)

    session = requests.Session()
    session.mount("https://", SlowAlpha({}, {}))
    robots = RobotsCache(session, POLICY, HostGate(POLICY.rate_per_host))
    alpha = threading.Thread(target=robots.allowed, args=("https://alpha.example.org/a",))
    alpha.start()
    try:
        assert in_flight.wait(timeout=10)
        beta = threading.Thread(target=robots.allowed, args=("https://beta.example.org/b",))
        beta.start()
        beta.join(timeout=5)
        assert not beta.is_alive()
    finally:
        release.set()
        alpha.join(timeout=10)
    assert not alpha.is_alive()
