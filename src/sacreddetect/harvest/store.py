"""Raw document store: one JSONL file per NGO plus a URL index.

Layout under ``raw/``:

  raw/<ngo_id>.jsonl   one RawDocument per line, body base64-encoded
  raw/index.json       normalized URL -> doc_id, for resumable harvests

doc_id is a content hash of (url, body), so refetching identical content
collides intentionally. Failed fetches are stored too (status recorded,
empty body): a harvest is resumable precisely because failures are facts.
"""

from __future__ import annotations

import base64
import json
import os
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

from ..hashing import short_hash
from ..jsonlio import read_jsonl, write_json


@dataclass(frozen=True)
class RawDocument:
    doc_id: str
    ngo_id: str
    url: str
    fetched_at: datetime
    content_type: str
    status: int
    body: bytes
    snapshot_ts: str | None = None  # latest CDX snapshot timestamp, provenance only

    @staticmethod
    def make(
        ngo_id: str,
        url: str,
        status: int,
        content_type: str,
        body: bytes,
        fetched_at: datetime | None = None,
        snapshot_ts: str | None = None,
    ) -> "RawDocument":
        return RawDocument(
            doc_id=short_hash(url.encode("utf-8"), body),
            ngo_id=ngo_id,
            url=url,
            fetched_at=fetched_at or datetime.now(timezone.utc),
            content_type=content_type,
            status=status,
            body=body,
            snapshot_ts=snapshot_ts,
        )

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "ngo_id": self.ngo_id,
            "url": self.url,
            "fetched_at": self.fetched_at.isoformat(),
            "content_type": self.content_type,
            "status": self.status,
            "snapshot_ts": self.snapshot_ts,
            "body_b64": base64.b64encode(self.body).decode("ascii"),
        }

    @staticmethod
    def from_dict(row: dict) -> "RawDocument":
        return RawDocument(
            doc_id=row["doc_id"],
            ngo_id=row["ngo_id"],
            url=row["url"],
            fetched_at=datetime.fromisoformat(row["fetched_at"]),
            content_type=row["content_type"],
            status=int(row["status"]),
            body=base64.b64decode(row["body_b64"]),
            snapshot_ts=row.get("snapshot_ts"),
        )


class DocumentStore:
    """Append-only raw store keyed by normalized URL. Thread-safe appends."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._index: dict[str, str] = {}
        index_path = self.root / "index.json"
        if index_path.is_file():
            self._index = json.loads(index_path.read_text(encoding="utf-8"))

    def has_url(self, url: str) -> bool:
        return url in self._index

    def append(self, doc: RawDocument) -> None:
        # ASCII, so that a write torn by a crash cannot split a character
        # and leave the file undecodable past the tear
        line = json.dumps(doc.to_dict()).encode("ascii")
        with self._lock:
            with open(self.root / f"{doc.ngo_id}.jsonl", "a+b") as fh:
                size = fh.seek(0, os.SEEK_END)
                if size:
                    fh.seek(size - 1)
                    if fh.read(1) != b"\n":
                        # a write torn by a crash left the last line
                        # unterminated: end it, so this document gets a
                        # line of its own
                        fh.write(b"\n")
                fh.write(line + b"\n")
            self._index[doc.url] = doc.doc_id

    def flush_index(self) -> None:
        with self._lock:
            write_json(self.root / "index.json", self._index)

    def iter_ngo(self, ngo_id: str, on_bad_line=None) -> Iterator[RawDocument]:
        """The NGO's documents in append order; on_bad_line as for
        read_jsonl, for the remains of a write torn by a crash."""
        path = self.root / f"{ngo_id}.jsonl"
        if not path.is_file():
            return
        for row in read_jsonl(path, on_bad_line):
            yield RawDocument.from_dict(row)

    def ngo_ids(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.jsonl"))
