"""Content hashing helpers. All identifiers in the pipeline are derived
from SHA-256 so that re-runs over identical inputs produce identical ids.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

SHORT_LEN = 16


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_text(text: str) -> str:
    return sha256_bytes(text.encode("utf-8"))


def sha256_file(path: str | Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def short_hash(*parts: bytes) -> str:
    """Stable short id over parts joined with NUL separators."""
    h = hashlib.sha256()
    for i, part in enumerate(parts):
        if i:
            h.update(b"\x00")
        h.update(part)
    return h.hexdigest()[:SHORT_LEN]
