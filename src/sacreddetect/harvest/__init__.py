"""Web-archive index queries, worklist derivation and polite live fetching."""

from .cdx import CdxRecord, build_cdx_query, parse_cdx_response
from .fetch import HostGate, RobotsCache, fetch_live
from .store import DocumentStore, RawDocument
from .worklist import derive_worklist, normalize_url

__all__ = [
    "CdxRecord",
    "DocumentStore",
    "HostGate",
    "RawDocument",
    "RobotsCache",
    "build_cdx_query",
    "derive_worklist",
    "fetch_live",
    "normalize_url",
    "parse_cdx_response",
]
