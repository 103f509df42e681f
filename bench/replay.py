"""Deterministic replay judge for the religious-longform workload.

It stands in for a hosted model and answers in the shapes hosted models
return: mostly bare JSON, some fenced or prose-wrapped JSON, a few
malformed replies (missing key, bad certainty, bad label, truncated) and a
few rows missing from the result file. Both the answer and its shape are a
function of the provider name and the sentence text alone, so the
generator can compute the expected label of every sentence in advance.
"""

from __future__ import annotations

import hashlib
import json
import re

_CUES = frozenset(
    """
    christian christians chaplain chaplains friary friaries bible muslim
    muslims koran quran jewish torah hindu hindus vedas buddhist buddhists
    nirvana god gods prayer prayers pray prays prayed praying bless blesses
    blessed blessing sacred ritual rituals sacrifice sacrifices sacrificed
    sacrificing devote devotes devoted devotion ubuntu spiritual spirituality
    faith faiths holy
    """.split()
)
_WORD = re.compile(r"[a-z]+")


def replay_reply(provider: str, text: str) -> tuple[str | None, str]:
    """(message content or None for a missing row, expected parsed label)."""
    h = hashlib.sha256(f"{provider}\0{text}".encode("utf-8")).digest()
    religious = not _CUES.isdisjoint(_WORD.findall(text.lower()))
    if h[0] < 13:  # about 5% of answers disagree with the cue words
        religious = not religious
    label = "yes" if religious else "no"
    verdict = {
        "Religious": label.capitalize(),
        "Certainty": f"{55 + h[2] % 45}%" if h[3] & 1 else 55 + h[2] % 45,
        "Argumentation": "The sentence uses religious vocabulary."
        if religious
        else "The sentence describes environmental work in secular terms.",
    }
    shape = h[1]
    if shape < 179:
        return json.dumps(verdict), label
    if shape < 204:
        return "```json\n" + json.dumps(verdict, indent=2) + "\n```", label
    if shape < 224:
        return f"Here is my assessment: {json.dumps(verdict)} Let me know if more detail helps.", label
    if shape < 232:
        del verdict["Argumentation"]
        return json.dumps(verdict), "malformed"
    if shape < 238:
        verdict["Certainty"] = "very high"
        return json.dumps(verdict), "malformed"
    if shape < 244:
        full = json.dumps(verdict)
        return full[: len(full) // 2], "malformed"
    if shape < 249:
        verdict["Religious"] = "Possibly"
        return json.dumps(verdict), "malformed"
    return None, "malformed"


class ReplayProvider:
    """A batch provider whose results come from replay_reply."""

    def __init__(self, name: str) -> None:
        self.name = name

    def run_batch(self, lines: list[str], state: dict | None = None, state_save=None) -> list[str]:
        out = []
        for line in lines:
            request = json.loads(line)
            content, _ = replay_reply(self.name, request["body"]["messages"][-1]["content"])
            if content is None:
                continue
            out.append(
                json.dumps(
                    {
                        "custom_id": request["custom_id"],
                        "response": {
                            "status_code": 200,
                            "body": {"choices": [{"message": {"role": "assistant", "content": content}}]},
                        },
                        "error": None,
                    }
                )
            )
        return out
