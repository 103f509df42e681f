"""Polite live fetching: per-host rate limiting, retries, robots.txt.

Failures never abort a harvest. Timeouts, connection errors and HTTP error
statuses all become RawDocuments with the status recorded and an empty
body, so a re-run can pick up exactly where the last one stopped. Network
failures that never produced an HTTP status are recorded as status 0.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import TYPE_CHECKING
from urllib.parse import urlsplit

from ..config import FetchPolicy, SourceSpec
from .store import DocumentStore, RawDocument

if TYPE_CHECKING:
    # imported where a fetch happens, so that offline commands never load
    # the network stack (urllib3, ssl, http.client, email)
    from urllib import robotparser

    import requests

log = logging.getLogger(__name__)

USER_AGENT = "sacreddetect/0.1 (research corpus harvester)"
PROXY_ENV = "SACREDDETECT_PROXY"


def make_session() -> requests.Session:
    import requests

    session = requests.Session()
    session.headers["User-Agent"] = USER_AGENT
    proxy = os.environ.get(PROXY_ENV)
    if proxy:
        session.proxies.update({"http": proxy, "https": proxy})
    return session


class HostGate:
    """Serializes requests per host and enforces a minimum spacing.

    Each host has its own lock and next-allowed time, so distinct hosts
    proceed in parallel while one host's requests stay ordered and spaced.
    The spacing runs from the end of one request to the start of the next,
    so the host sees it whatever the connection and response latency.
    """

    def __init__(self, rate_per_host: float, clock=time):
        self.min_interval = 1.0 / rate_per_host
        self._clock = clock
        self._hosts: dict[str, tuple[threading.Lock, list[float]]] = {}
        self._registry = threading.Lock()

    def _entry(self, host: str) -> tuple[threading.Lock, list[float]]:
        with self._registry:
            if host not in self._hosts:
                self._hosts[host] = (threading.Lock(), [0.0])
            return self._hosts[host]

    @contextmanager
    def slot(self, host: str):
        """Hold the host for one request, after waiting out its spacing."""
        lock, next_ok = self._entry(host)
        with lock:
            now = self._clock.monotonic()
            if now < next_ok[0]:
                self._clock.sleep(next_ok[0] - now)
            try:
                yield
            finally:
                next_ok[0] = self._clock.monotonic() + self.min_interval


class RobotsCache:
    """robots.txt verdicts, fetched once per host."""

    def __init__(self, session: requests.Session, timeout: float = 10.0):
        self._session = session
        self._timeout = timeout
        self._parsers: dict[str, robotparser.RobotFileParser | None] = {}
        self._lock = threading.Lock()

    def allowed(self, url: str) -> bool:
        parts = urlsplit(url)
        key = f"{parts.scheme}://{parts.netloc}"
        with self._lock:
            if key not in self._parsers:
                self._parsers[key] = self._fetch(key)
            parser = self._parsers[key]
        if parser is None:
            return True
        return parser.can_fetch(USER_AGENT, url)

    def _fetch(self, origin: str) -> robotparser.RobotFileParser | None:
        from urllib import robotparser

        import requests

        try:
            resp = self._session.get(f"{origin}/robots.txt", timeout=self._timeout)
        except requests.RequestException:
            return None
        if resp.status_code != 200:
            return None
        parser = robotparser.RobotFileParser()
        parser.parse(resp.text.splitlines())
        return parser


def fetch_live(
    url: str,
    policy: FetchPolicy,
    ngo_id: str = "",
    session: requests.Session | None = None,
    gate: HostGate | None = None,
    snapshot_ts: str | None = None,
    sleep=time.sleep,
) -> RawDocument:
    """Fetch one URL under the policy; always returns a RawDocument.

    Retryable failures (timeout, connection error, 5xx, 429) are retried up
    to policy.retries times with exponential backoff. The final outcome,
    success or not, is recorded; nothing is raised.
    """
    import requests

    session = session or make_session()
    gate = gate or HostGate(policy.rate_per_host)
    host = urlsplit(url).netloc

    status = 0
    content_type = ""
    body = b""
    for attempt in range(policy.retries + 1):
        try:
            with gate.slot(host):
                resp = session.get(url, timeout=policy.timeout)
        except requests.RequestException as exc:
            log.debug("fetch %s attempt %d failed: %s", url, attempt + 1, exc)
            status, content_type, body = 0, "", b""
        else:
            status = resp.status_code
            content_type = resp.headers.get("Content-Type", "")
            body = resp.content if 200 <= status < 300 else b""
            if status < 500 and status != 429:  # 429: Too Many Requests
                break
        if attempt < policy.retries:
            sleep(policy.backoff**attempt)
    return RawDocument.make(
        ngo_id=ngo_id,
        url=url,
        status=status,
        content_type=content_type,
        body=body,
        snapshot_ts=snapshot_ts,
    )


def harvest_source(
    spec: SourceSpec,
    worklist: list[str],
    snapshots: dict[str, str],
    store: DocumentStore,
    policy: FetchPolicy,
    session: requests.Session,
    gate: HostGate,
    robots: RobotsCache | None = None,
) -> Counter:
    """Fetch a source's worklist into the store; returns outcome counters.

    URLs already present in the store, fetched or failed, are skipped, so
    an interrupted harvest continues rather than refetching.
    """
    counters: Counter = Counter()
    for url in worklist:
        if store.has_url(url):
            counters["skipped_existing"] += 1
            continue
        if robots is not None and not robots.allowed(url):
            counters["skipped_robots"] += 1
            continue
        doc = fetch_live(
            url,
            policy,
            ngo_id=spec.ngo_id,
            session=session,
            gate=gate,
            snapshot_ts=snapshots.get(url),
        )
        store.append(doc)
        counters["fetched_ok" if doc.ok else "fetched_failed"] += 1
    return counters
