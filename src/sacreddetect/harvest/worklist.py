"""Deduplicated live-URL worklists from CDX snapshot metadata.

The archive indexes many snapshots of the same page; we fetch each live URL
once. Normalization lowercases scheme and host and strips fragments, but
preserves paths (including trailing slashes) and query strings: CMS pages
like ``?p=2075`` are distinct documents.
"""

from __future__ import annotations

import logging
from collections import Counter
from urllib.parse import urlsplit, urlunsplit

from .cdx import CdxRecord

log = logging.getLogger(__name__)


def normalize_url(url: str) -> str | None:
    """Canonical form of a fetchable URL, or None if it is not one."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https") or not parts.netloc:
        return None
    return urlunsplit((scheme, parts.netloc.lower(), parts.path, parts.query, ""))


def derive_worklist(records: list[CdxRecord], counters: Counter | None = None) -> dict[str, str]:
    """Normalized original URL -> its latest snapshot timestamp, kept for
    provenance; URLs in first-seen order.

    Unparseable URLs are dropped and counted under ``urls_dropped``.
    """
    counters = counters if counters is not None else Counter()
    latest: dict[str, str] = {}
    for rec in records:
        url = normalize_url(rec.original_url)
        if url is None:
            counters["urls_dropped"] += 1
        elif rec.timestamp > latest.get(url, ""):
            latest[url] = rec.timestamp
    if counters["urls_dropped"]:
        log.warning("dropped %d unparseable URLs", counters["urls_dropped"])
    return latest
