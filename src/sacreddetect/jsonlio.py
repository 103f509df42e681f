"""JSONL read/write helpers. Writes are atomic (tmp file + rename) so a
crashed stage never leaves a half-written artifact behind.

Two JSON libraries, each where its behaviour is the one needed:

- orjson decodes the JSONL rows the pipeline wrote itself (read_jsonl:
  the raw store, corpus, label and batch request files). It is several
  times faster than json.loads on these rows, and it is strict: NaN and
  Infinity literals, lone surrogate escapes and invalid UTF-8 are errors,
  and the pipeline writes none of them. An integer outside the 64-bit
  range decodes to the nearest float; the pipeline writes none (its
  integers are positions, counts, HTTP statuses and 0-100 certainties).
- Provider result lines and model replies come from outside the
  pipeline, so they may hold what orjson refuses. loads_external tries
  orjson first and hands the stdlib json only what orjson refuses or what
  may nest too deep for the stdlib, so the decoded values are json's, but
  for an integer beyond 64 bits. The callers read only strings and a
  certainty clamped to 0-100 from them, so the verdicts are the ones the
  stdlib alone gives.
- The stdlib json encodes every file, since its separators, ensure_ascii
  and indent are the file format, and decodes CDX responses, a JSON
  lexicon, the manifests and stats.json, which it may have written with
  NaN or Infinity. The lines written most often are spliced from fixed
  pieces and strings its encoder encoded, to the bytes json.dumps gives
  the whole row: batch request lines (judge.batch), the stub's result
  lines (judge.providers) and the labels/<model>/ rows (Verdict.to_line).
"""

from __future__ import annotations

import json
import os
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import orjson

from .errors import CorruptLineError

# json.dumps(obj, ensure_ascii=False)'s C encoder, built once, where
# JSONEncoder.encode builds a new one per call: the same separators,
# allow_nan and TypeError for an object it cannot encode. It keeps no
# circular-reference markers, so a cyclic row raises RecursionError rather
# than ValueError; the pipeline builds none.
_encode_value = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring, None, ": ", ", ", False, False, True
)
_indented = json.JSONEncoder(ensure_ascii=False, indent=2, sort_keys=True)


def encode_json(obj: Any) -> str:
    """The same string as json.dumps(obj, ensure_ascii=False)."""
    if isinstance(obj, str):
        return encode_basestring(obj)
    return "".join(_encode_value(obj, 0))


# Fewer brackets than this, and text nests too shallowly for the stdlib
# decoder's recursion limit to refuse it. orjson 3.8 has no nesting limit,
# so deeper text goes to the stdlib, which may refuse it.
_ORJSON_MAX_BRACKETS = 256


def loads_external(text: str, stdlib: Callable[[str], Any] = json.loads) -> Any:
    """stdlib(text) for JSON from outside the pipeline, decoded by orjson
    when orjson accepts text: one JSON value and whitespace, fewer than
    _ORJSON_MAX_BRACKETS brackets, no NaN or Infinity literal, no number
    beyond a double's range and no lone surrogate. stdlib is json.loads or
    a decoder that, like raw_decode, ignores what follows the first value,
    so on such text it gives orjson's value, but for an integer beyond 64
    bits, which orjson 3.8 reads as the nearest float.
    """
    # a text shorter than the limit holds fewer brackets, uncounted
    if (
        len(text) < _ORJSON_MAX_BRACKETS
        or text.count("{") + text.count("[") < _ORJSON_MAX_BRACKETS
    ):
        try:
            return orjson.loads(text)
        except orjson.JSONDecodeError:
            pass
    return stdlib(text)


def read_jsonl(path: str | Path, on_bad_line=None) -> Iterator[dict[str, Any]]:
    """Rows of a JSONL file, each line decoded on its own by orjson, which
    checks its UTF-8, so a line torn inside a character spoils only that
    line. A line that is not valid UTF-8 or not valid JSON raises a
    CorruptLineError (a ValueError) naming the path and the line, unless
    on_bad_line is given: it is then called with the path and the 1-based
    line number, and the line is skipped."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = orjson.loads(line)
            except orjson.JSONDecodeError as exc:
                if on_bad_line is None:
                    raise CorruptLineError(f"{path}: line {lineno}: {exc}") from exc
                on_bad_line(path, lineno)
                continue
            yield row


def write_jsonl(path: str | Path, rows: Iterable[dict[str, Any]]) -> None:
    """Write rows as one JSON object per line."""
    write_text(path, (encode_json(row) + "\n" for row in rows))


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write a string, or the concatenation of an iterable of string pieces,
    which is written piece by piece and never joined in memory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
    os.replace(tmp, path)


def write_json(path: str | Path, obj: Any) -> None:
    """Write the bytes of json.dumps(obj, ensure_ascii=False, indent=2,
    sort_keys=True) + "\n", encoded piece by piece, never as one string."""
    write_text(path, chain(_indented.iterencode(obj), ["\n"]))
