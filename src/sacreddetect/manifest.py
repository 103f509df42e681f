"""Run manifests: per-stage provenance written after the stage's outputs.

Each stage output directory holds exactly one manifest.json recording the
stage name, tool version, a hash per input, and the parameters that shape
the output (splitter version, lexicon/prompt hashes, provider settings).
The manifest is written last, so a directory without one is a partial
result and the stage re-runs; a directory whose manifest matches the
current input hashes is up to date and the stage short-circuits. (The
derived stages write it into a sibling directory that then replaces theirs
whole; see stages._produce.)
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .jsonlio import write_json

MANIFEST_NAME = "manifest.json"


@dataclass
class RunManifest:
    stage: str
    inputs: dict[str, str]
    params: dict = field(default_factory=dict)
    tool_version: str = __version__
    started: str = ""
    finished: str = ""


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(
    out_dir: str | Path,
    stage: str,
    inputs: dict[str, str],
    params: dict | None = None,
    started: str | None = None,
) -> RunManifest:
    manifest = RunManifest(
        stage=stage,
        inputs=dict(sorted(inputs.items())),
        params=params or {},
        started=started or _now(),
        finished=_now(),
    )
    write_json(Path(out_dir) / MANIFEST_NAME, asdict(manifest))  # write_json sorts the keys
    return manifest


def read_manifest(out_dir: str | Path) -> RunManifest | None:
    path = Path(out_dir) / MANIFEST_NAME
    if not path.is_file():
        return None
    raw = json.loads(path.read_text(encoding="utf-8"))
    return RunManifest(
        stage=raw["stage"],
        inputs=raw.get("inputs", {}),
        params=raw.get("params", {}),
        tool_version=raw.get("tool_version", ""),
        started=raw.get("started", ""),
        finished=raw.get("finished", ""),
    )


def is_current(out_dir: str | Path, inputs: dict[str, str]) -> bool:
    """True when the directory's manifest matches the given input hashes."""
    manifest = read_manifest(out_dir)
    return manifest is not None and manifest.inputs == dict(sorted(inputs.items()))
