"""CDX server index queries and response parsing.

The CDX server is the Internet Archive's indexing service: given a URL
prefix it returns one metadata record per archived snapshot (original URL,
14-digit timestamp, mimetype, HTTP status). We query it in JSON mode, which
yields an array-of-arrays whose first row names the fields.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass
from datetime import datetime

from ..config import SourceSpec
from ..errors import CdxParseError

log = logging.getLogger(__name__)

CDX_ENDPOINT = "https://web.archive.org/cdx/search/cdx"

# Field names the CDX server emits in JSON mode. Anything else means the
# endpoint changed under us and positional mapping would be unsafe.
KNOWN_FIELDS = frozenset(
    {
        "urlkey",
        "timestamp",
        "original",
        "mimetype",
        "statuscode",
        "digest",
        "length",
        "redirect",
        "offset",
        "filename",
    }
)
REQUIRED_FIELDS = ("original", "timestamp", "mimetype", "statuscode")


@dataclass(frozen=True)
class CdxRecord:
    original_url: str
    timestamp: str  # YYYYMMDDhhmmss
    mimetype: str
    statuscode: str


def build_cdx_query(spec: SourceSpec) -> str:
    """Index query for one source: HTML/PDF snapshots in the year range,
    client and server errors filtered out. Byte-deterministic: equal specs
    give equal strings, and the parameter order is fixed.
    """
    return (
        f"{CDX_ENDPOINT}?url={spec.base_url}&matchType=prefix&output=json"
        f"&from={spec.from_year}&to={spec.to_year}"
        "&filter=mimetype:(text/html|application/pdf)"
        "&filter=!statuscode:^[45]"
    )


def parse_cdx_response(body: str, counters: Counter | None = None) -> list[CdxRecord]:
    """Parse the JSON array-of-arrays form into records.

    The first row is the field-name header; remaining rows map positionally.
    Rows missing a required field (short rows, empty values, unparseable
    timestamps) are skipped and counted under ``cdx_rows_skipped``.
    """
    counters = counters if counters is not None else Counter()
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise CdxParseError(f"response is not valid JSON at byte {exc.pos}") from None
    if not isinstance(payload, list):
        raise CdxParseError(f"expected a JSON array, got {type(payload).__name__}")
    if not payload:
        return []

    header = payload[0]
    if not isinstance(header, list) or not all(isinstance(h, str) for h in header):
        raise CdxParseError("first row must be a field-name header")
    unknown = [h for h in header if h not in KNOWN_FIELDS]
    if unknown:
        raise CdxParseError(f"unknown header names: {', '.join(sorted(unknown))}")
    missing = [f for f in REQUIRED_FIELDS if f not in header]
    if missing:
        raise CdxParseError(f"header lacks required fields: {', '.join(missing)}")
    index = {name: i for i, name in enumerate(header)}

    records = []
    for row in payload[1:]:
        if isinstance(row, list) and len(row) >= len(header):
            values = [row[index[f]] for f in REQUIRED_FIELDS]  # CdxRecord's field order
            record = CdxRecord(*values)
            if all(isinstance(v, str) and v for v in values) and _valid_timestamp(record.timestamp):
                records.append(record)
                continue
        counters["cdx_rows_skipped"] += 1
    if counters["cdx_rows_skipped"]:
        log.warning("skipped %d malformed CDX rows", counters["cdx_rows_skipped"])
    return records


def _valid_timestamp(ts: str) -> bool:
    if len(ts) != 14 or not ts.isdigit():
        return False
    try:
        datetime.strptime(ts, "%Y%m%d%H%M%S")
    except ValueError:
        return False
    return True
