"""Polite live fetching: per-host rate limiting, retries, robots.txt.

Every request a harvest sends, the CDX index query, robots.txt and each
page, goes through get, so each is spaced by its host's gate and retried.
Page failures never abort a harvest. Timeouts, connection errors and HTTP
error statuses all become RawDocuments with the status recorded and an
empty body, so a re-run can pick up exactly where the last one stopped.
Network failures that never produced an HTTP status are recorded as
status 0.

robots.txt is read per RFC 9309: an unreachable file (status 0, 429 or 5xx
after the retries) disallows every URL of its origin for the run, and any
other status but 200 allows every one.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import partial
from typing import TYPE_CHECKING, Callable
from urllib.parse import urlsplit

from ..config import FetchPolicy, SourceSpec
from .store import DocumentStore, RawDocument

if TYPE_CHECKING:
    # imported by make_session alone, so that a harvest against a recorded
    # web loads no network stack (urllib3, ssl, http.client, email)
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
    The clock (monotonic, sleep, and time, which stamps fetched_at) is the
    time module unless a recorded web brings its own; get waits out its
    retry backoff on it too, so a harvest has one clock for every wait.
    """

    def __init__(self, rate_per_host: float, clock=time):
        self.min_interval = 1.0 / rate_per_host
        self.clock = clock
        self._hosts: dict[str, tuple[threading.Lock, list[float]]] = {}
        self._registry = threading.Lock()

    @contextmanager
    def slot(self, host: str):
        """Hold the host for one request, after waiting out its spacing."""
        with self._registry:
            lock, next_ok = self._hosts.setdefault(host, (threading.Lock(), [0.0]))
        with lock:
            now = self.clock.monotonic()
            if now < next_ok[0]:
                self.clock.sleep(next_ok[0] - now)
            try:
                yield
            finally:
                next_ok[0] = self.clock.monotonic() + self.min_interval


class RobotsCache:
    """robots.txt verdicts, fetched once per origin through get."""

    def __init__(self, session: requests.Session, policy: FetchPolicy, gate: HostGate):
        self._get = partial(get, policy=policy, session=session, gate=gate)
        self._verdicts: dict[str, Callable[[str], bool]] = {}
        self._locks: dict[str, threading.Lock] = {}
        self._lock = threading.Lock()

    def allowed(self, url: str) -> bool:
        parts = urlsplit(url)
        key = f"{parts.scheme}://{parts.netloc}"
        with self._lock:
            origin_lock = self._locks.setdefault(key, threading.Lock())
        # one lock per origin: a robots.txt in retry holds up no other host
        with origin_lock:
            if key not in self._verdicts:
                self._verdicts[key] = self._fetch(key)
        return self._verdicts[key](url)

    def _fetch(self, origin: str) -> Callable[[str], bool]:
        status, _, body = self._get(f"{origin}/robots.txt")
        if status in (0, 429) or status >= 500:
            log.warning("robots.txt of %s unreachable (status %d); skipping its URLs", origin, status)
            return lambda url: False
        if status != 200:
            return lambda url: True
        from urllib import robotparser  # late: it loads urllib.request

        parser = robotparser.RobotFileParser()
        parser.parse(body.decode("utf-8", "replace").splitlines())
        return partial(parser.can_fetch, USER_AGENT)


def get(
    url: str,
    policy: FetchPolicy,
    session: requests.Session,
    gate: HostGate,
    timeout: float | None = None,
) -> tuple[int, str, bytes]:
    """One GET under the policy, each attempt in its host's gate slot:
    (status, content type, body), the body empty unless the status is 2xx.
    Retryable failures (timeout, connection error, 5xx, 429) are retried up
    to policy.retries times with exponential backoff, waited out on the
    gate's clock. Nothing is raised.
    """
    host = urlsplit(url).netloc
    status, content_type, body = 0, "", b""
    for attempt in range(policy.retries + 1):
        try:
            with gate.slot(host):
                resp = session.get(url, timeout=timeout or policy.timeout)
        except OSError as exc:  # requests.RequestException among them
            log.debug("GET %s attempt %d failed: %s", url, attempt + 1, exc)
            status, content_type, body = 0, "", b""
        else:
            status = resp.status_code
            content_type = resp.headers.get("Content-Type", "")
            body = resp.content if 200 <= status < 300 else b""
            if status < 500 and status != 429:  # 429: Too Many Requests
                break
        if attempt < policy.retries:
            gate.clock.sleep(policy.backoff**attempt)
    return status, content_type, body


def harvest_source(
    spec: SourceSpec,
    worklist: dict[str, str],
    store: DocumentStore,
    policy: FetchPolicy,
    session: requests.Session,
    gate: HostGate,
    robots: RobotsCache | None = None,
) -> Counter:
    """Fetch a source's worklist, each URL with its latest snapshot
    timestamp, into the store; returns outcome counters. Every outcome,
    success or not, is stored as a RawDocument stamped by the gate's clock.

    URLs already present in the store, fetched or failed, are skipped, so
    an interrupted harvest continues rather than refetching.
    """
    counters: Counter = Counter()
    for url, snapshot_ts in worklist.items():
        if store.has_url(url):
            counters["skipped_existing"] += 1
            continue
        if robots is not None and not robots.allowed(url):
            counters["skipped_robots"] += 1
            continue
        status, content_type, body = get(url, policy, session, gate)
        fetched_at = datetime.fromtimestamp(gate.clock.time(), timezone.utc)
        doc = RawDocument.make(spec.ngo_id, url, status, content_type, body, fetched_at, snapshot_ts)
        store.append(doc)
        counters["fetched_ok" if doc.ok else "fetched_failed"] += 1
    return counters
