"""Batch-inference request files: one JSONL line per sentence.

Both supported providers accept the same OpenAI-style batch line --
custom_id, method, url, body with chat messages -- so one emitter serves
both. Line order is fixed to (ngo_id, doc_id, position), which makes the
emitted file byte-deterministic for a given corpus, template and model.
"""

from __future__ import annotations

import json
import logging
from collections import Counter

from ..textpipe.corpus import SentenceRecord
from .prompts import render_prompt

log = logging.getLogger(__name__)

CHAT_COMPLETIONS_URL = "/v1/chat/completions"


def build_batch_file(
    corpus: list[SentenceRecord],
    template_id: str,
    model_id: str,
    counters: Counter | None = None,
) -> list[str]:
    """Request lines for a corpus; custom_id is the sentence_id.

    The sentence text goes in verbatim as the user message -- the models
    judge exactly what the corpus holds. Sentences with empty text are
    skipped and counted under ``batch_skipped_empty``.
    """
    counters = counters if counters is not None else Counter()
    system_text = render_prompt(template_id)

    lines = []
    for rec in sorted(corpus, key=lambda r: (r.ngo_id, r.doc_id, r.position)):
        if not rec.text:
            counters["batch_skipped_empty"] += 1
            continue
        line = {
            "custom_id": rec.sentence_id,
            "method": "POST",
            "url": CHAT_COMPLETIONS_URL,
            "body": {
                "model": model_id,
                "messages": [
                    {"role": "system", "content": system_text},
                    {"role": "user", "content": rec.text},
                ],
            },
        }
        lines.append(json.dumps(line, ensure_ascii=False))
    if counters["batch_skipped_empty"]:
        log.warning("skipped %d empty sentences", counters["batch_skipped_empty"])
    return lines
