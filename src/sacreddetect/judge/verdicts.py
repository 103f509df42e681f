"""Strict verdict parsing with malformed-output accounting.

A model response is a valid verdict only when it contains a JSON object
with (case-insensitive) keys Religious, Certainty and Argumentation, the
Religious value reads as yes/no, the certainty parses as a percentage and
the argumentation is a string. Everything else is the ``malformed`` label
with the raw text preserved for audit -- malformed output is a finding
about the model, not an error condition, so nothing here ever raises.

By default the response is decoded as one JSON value starting at its
first ``{``, and any text before or after that value is ignored, because
models routinely wrap their JSON in prose or code fences; strict mode
requires the whole message to be the JSON object.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

LABELS = ("yes", "no", "malformed")

_DECODER = json.JSONDecoder()


@dataclass(frozen=True)
class Verdict:
    sentence_id: str
    model_id: str
    label: str  # yes | no | malformed
    certainty: int | None
    argumentation: str | None
    raw_text: str

    def to_dict(self) -> dict:
        return {
            "sentence_id": self.sentence_id,
            "model_id": self.model_id,
            "label": self.label,
            "certainty": self.certainty,
            "argumentation": self.argumentation,
            "raw_text": self.raw_text,
        }

    @staticmethod
    def from_dict(row: dict) -> "Verdict":
        return Verdict(
            sentence_id=row["sentence_id"],
            model_id=row["model_id"],
            label=row["label"],
            certainty=row.get("certainty"),
            argumentation=row.get("argumentation"),
            raw_text=row.get("raw_text", ""),
        )


def _parse_certainty(value) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        number = float(value)
    elif isinstance(value, str):
        token = value.strip().rstrip("%").strip()
        if not token:
            return None
        try:
            number = float(token)
        except ValueError:
            return None
    else:
        return None
    if not math.isfinite(number):  # JSON's Infinity and NaN, or "inf%"
        return None
    return max(0, min(100, round(number)))


def parse_verdict(
    sentence_id: str, model_id: str, raw_text: str, strict: bool = False
) -> Verdict:
    """Total over arbitrary input: always returns a Verdict, never raises."""

    def malformed() -> Verdict:
        return Verdict(sentence_id, model_id, "malformed", None, None, raw_text)

    if not isinstance(raw_text, str):
        return malformed()
    try:
        if strict:
            obj = json.loads(raw_text.strip())
        else:
            start = raw_text.find("{")
            if start < 0:
                return malformed()
            obj, _ = _DECODER.raw_decode(raw_text, start)
    except (json.JSONDecodeError, RecursionError):
        return malformed()
    if not isinstance(obj, dict):
        return malformed()

    fields = {k.lower(): v for k, v in obj.items() if isinstance(k, str)}
    religious = fields.get("religious")
    if not isinstance(religious, str) or religious.strip().lower() not in ("yes", "no"):
        return malformed()
    certainty = _parse_certainty(fields.get("certainty"))
    if certainty is None:
        return malformed()
    argumentation = fields.get("argumentation")
    if not isinstance(argumentation, str):
        return malformed()

    return Verdict(
        sentence_id=sentence_id,
        model_id=model_id,
        label=religious.strip().lower(),
        certainty=certainty,
        argumentation=argumentation,
        raw_text=raw_text,
    )


def serialize_verdict(verdict: Verdict) -> str:
    """Render a valid verdict back into the response schema string."""
    if verdict.label not in ("yes", "no"):
        raise ValueError("only yes/no verdicts serialize to the schema")
    return json.dumps(
        {
            "Religious": verdict.label.capitalize(),
            "Certainty": f"{verdict.certainty}%",
            "Argumentation": verdict.argumentation,
        },
        ensure_ascii=False,
    )
