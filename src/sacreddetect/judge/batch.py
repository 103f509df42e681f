"""Batch-inference request files: one JSONL line per sentence.

Both supported providers accept the same OpenAI-style batch line --
custom_id, method, url, body with chat messages -- so one emitter serves
both. Line order is fixed to (ngo_id, doc_id, position), which makes the
emitted file byte-deterministic for a given corpus, template and model.

All of a line but the custom_id and the user text is the same for every
sentence of a file, the system prompt above all, so it is encoded once per
call and each line splices in just the two encoded strings. The bytes are
those of ``json.dumps(line_dict, ensure_ascii=False)`` with the dict's key
order and the default separators.
"""

from __future__ import annotations

import logging
from collections import Counter

from ..jsonlio import encode_json as _encode
from ..textpipe.corpus import SentenceRecord
from .prompts import render_prompt

log = logging.getLogger(__name__)

CHAT_COMPLETIONS_URL = "/v1/chat/completions"
# The OpenAI Batch API's per-batch limit: requests in a batch and bytes in
# its input file (https://platform.openai.com/docs/guides/batch).
BATCH_LIMIT = {"requests": 50_000, "bytes": 200_000_000}


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
    # {"custom_id": <id>, "method": "POST", "url": <url>, "body": {"model":
    # <model>, "messages": [{"role": "system", "content": <prompt>},
    # {"role": "user", "content": <text>}]}}
    between = (
        f', "method": "POST", "url": {_encode(CHAT_COMPLETIONS_URL)}, "body": '
        f'{{"model": {_encode(model_id)}, "messages": [{{"role": "system", '
        f'"content": {_encode(render_prompt(template_id))}}}, {{"role": "user", "content": '
    )

    lines = []
    skipped = 0
    for rec in sorted(corpus, key=lambda r: (r.ngo_id, r.doc_id, r.position)):
        if not rec.text:
            skipped += 1
            continue
        lines.append(
            '{"custom_id": ' + _encode(rec.sentence_id) + between + _encode(rec.text) + "}]}}"
        )
    if skipped:
        # counters may run across calls; the warning is about this one
        counters["batch_skipped_empty"] += skipped
        log.warning("skipped %d empty sentences", skipped)
    return lines
