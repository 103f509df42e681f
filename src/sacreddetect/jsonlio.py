"""JSONL read/write helpers. Writes are atomic (tmp file + rename) so a
crashed stage never leaves a half-written artifact behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import CorruptLineError


def read_jsonl(path: str | Path, on_bad_line=None) -> Iterator[dict[str, Any]]:
    """Rows of a JSONL file, each line decoded from UTF-8 on its own, so a
    line torn inside a character spoils only that line. A line that is not
    valid UTF-8 or not valid JSON raises a CorruptLineError (a ValueError)
    naming the path and the line, unless on_bad_line is given: it is then
    called with the path and the 1-based line number, and the line is
    skipped."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                if on_bad_line is None:
                    raise CorruptLineError(f"{path}: line {lineno}: {exc}") from exc
                on_bad_line(path, lineno)
                continue
            yield row


def write_jsonl(path: str | Path, rows: Iterable[dict[str, Any]]) -> int:
    """Write rows as one JSON object per line; returns the row count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    n = 0
    with open(tmp, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")
            n += 1
    os.replace(tmp, path)
    return n


def write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json(path: str | Path, obj: Any) -> None:
    write_text(path, json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n")
