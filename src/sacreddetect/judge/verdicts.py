"""Verdict parsing with malformed-output accounting.

A model response is a valid verdict only when it contains a JSON object
with (case-insensitive) keys Religious, Certainty and Argumentation, the
Religious value reads as yes/no, the certainty parses as a percentage and
the argumentation is a string that UTF-8 can encode. Everything else is
the ``malformed`` label, with a ``reason`` naming the first check that
failed (the raw reply stays in the batch results file for audit) --
malformed output is a finding about the model, not an error condition, so
nothing here ever raises.

The response is decoded as one JSON value starting at its first ``{``,
and any text before or after that value is ignored, because models
routinely wrap their JSON in prose or code fences. orjson decodes a bare
reply, and the stdlib json what orjson refuses (see loads_external), so
the verdict is the one the stdlib alone gives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring

from ..jsonlio import loads_external

LABELS = ("yes", "no", "malformed")
# Why a verdict is malformed: the provider gave no answer, the reply holds
# no "{", what starts there does not decode to a JSON object, or one of the
# three fields fails its check.
REASONS = ("missing", "no_json", "bad_json", "bad_religious", "bad_certainty", "bad_argumentation")
# The shape of a labels/<model>/ row (Verdict.to_line); a new value makes
# classify rewrite every labels directory from its saved results.
VERDICT_ROW_VERSION = "2"

_DECODER = json.JSONDecoder()


def _first_value(text: str):
    """The JSON value text starts with; what follows it is ignored."""
    return _DECODER.raw_decode(text)[0]


@dataclass(slots=True)
class Verdict:
    sentence_id: str
    label: str  # yes | no | malformed
    certainty: int | None
    argumentation: str | None
    reason: str | None = None  # one of REASONS iff the label is malformed

    def to_line(self) -> str:
        """The labels/<model>/ row and its newline. The model is the
        directory's, and the raw reply stays in the batch results file,
        keyed by custom_id (the sentence id). The bytes are those of
        json.dumps(row, ensure_ascii=False) for the row dict of the five
        fields in order; the label, one of LABELS, needs no escaping."""
        certainty = "null" if self.certainty is None else self.certainty
        argumentation = "null" if self.argumentation is None else encode_basestring(self.argumentation)
        reason = "null" if self.reason is None else encode_basestring(self.reason)
        return (
            f'{{"sentence_id": {encode_basestring(self.sentence_id)}, "label": "{self.label}", '
            f'"certainty": {certainty}, "argumentation": {argumentation}, "reason": {reason}}}\n'
        )


def _parse_certainty(value) -> int | None:
    if type(value) is str:  # the schema's "90%", the common case
        token = value.strip().rstrip("%").strip()
        if not token:
            return None
        try:
            number = float(token)
        except ValueError:
            return None
    elif isinstance(value, bool):
        return None
    elif isinstance(value, int):  # clamped as it is: float() overflows past 1e308
        return max(0, min(100, value))
    elif isinstance(value, float):
        number = value
    else:
        return None
    if not math.isfinite(number):  # JSON's Infinity and NaN, or "inf%"
        return None
    return max(0, min(100, round(number)))


def _encodes_to_utf8(text: str) -> bool:
    """False for text holding a lone surrogate, which only the stdlib json
    decodes (from an escape) and which no labels file can hold."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_verdict(sentence_id: str, raw_text: str) -> Verdict:
    """Total over arbitrary input: always returns a Verdict, never raises."""
    if not isinstance(raw_text, str):
        return Verdict(sentence_id, "malformed", None, None, "no_json")
    start = raw_text.find("{")
    if start < 0:
        return Verdict(sentence_id, "malformed", None, None, "no_json")
    try:
        # what starts with "{" decodes to a dict or not at all
        obj = loads_external(raw_text[start:], _first_value)
    except (ValueError, RecursionError):  # ValueError: also an int past str's digit limit
        return Verdict(sentence_id, "malformed", None, None, "bad_json")

    # keys match case-insensitively, and a later key wins over an earlier
    # one that lowers alike; JSON object keys are always strings
    religious = certainty = argumentation = None
    for key, value in obj.items():
        key = key.lower()
        if key == "religious":
            religious = value
        elif key == "certainty":
            certainty = value
        elif key == "argumentation":
            argumentation = value
    label = religious.strip().lower() if type(religious) is str else None
    if label not in ("yes", "no"):
        return Verdict(sentence_id, "malformed", None, None, "bad_religious")
    certainty = _parse_certainty(certainty)
    if certainty is None:
        return Verdict(sentence_id, "malformed", None, None, "bad_certainty")
    if type(argumentation) is not str or not _encodes_to_utf8(argumentation):
        return Verdict(sentence_id, "malformed", None, None, "bad_argumentation")

    return Verdict(sentence_id, label, certainty, argumentation)
