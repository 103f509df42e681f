"""Batch classification providers: OpenAI, Groq, and a deterministic stub.

A provider turns batch request lines into batch result lines (the
OpenAI-style ``{"custom_id": ..., "response": {...}}`` JSONL). Joining
results back onto the corpus and parsing verdicts is pure and lives here
too, so providers stay exchangeable and the stub can drive full offline
end-to-end runs.

Run-level failures (auth, quota, network) raise ProviderError; the caller
persists the submission state so an interrupted live run resumes by
polling the same batch instead of re-uploading. Per-sentence anomalies
never abort a run -- they become malformed verdicts.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
from typing import TYPE_CHECKING, Iterable, Protocol

import orjson

from ..errors import ProviderError
from ..jsonlio import loads_external
from .verdicts import Verdict, parse_verdict

if TYPE_CHECKING:
    import requests  # imported by the live providers alone, so --stub loads no network stack

log = logging.getLogger(__name__)

TERMINAL_STATUSES = {"completed", "failed", "expired", "cancelled", "cancelled_final"}

# The same bytes as json.dumps(obj), without building an encoder per call.
_encode = json.JSONEncoder().encode


class BatchProvider(Protocol):
    name: str

    def run_batch(
        self, lines: Iterable[str], state: dict | None = None, state_save=None
    ) -> list[str]:
        """Execute a batch and return raw result lines.

        lines is read once, in order. Each line is a batch request as
        batch-build writes it, without its newline: a str that encodes to
        UTF-8. A line holding a lone surrogate cannot be in a batch file,
        and run_batch raises ValueError on it.

        state carries submission identifiers across attempts; state_save,
        when given, is called with the state right after submission so the
        caller can persist it before the long poll begins.
        """
        ...


class StubProvider:
    """Deterministic local stand-in for a hosted model.

    Labels a sentence yes iff it contains one of a tiny built-in term list
    (word-boundary, case-insensitive), always with certainty 90 and a
    templated argumentation. Exists so the whole pipeline runs offline and
    reproducibly; it is not a model of model behavior.

    One search for all the terms at once decides most sentences: a miss
    answers "No". On a hit the terms are tried one by one, so the reply
    names the first matching term in TERMS order, not the leftmost one in
    the text. The seven possible replies are encoded once, and each result
    line splices in just the encoded custom_id; the bytes are those of
    ``json.dumps(result_dict)`` with its key order and default settings.
    """

    name = "stub"
    TERMS = ("pray", "prayer", "god", "sacred", "faith", "holy")

    def __init__(self) -> None:
        def bounded(alternatives: str) -> re.Pattern:
            return re.compile(rf"(?<![0-9A-Za-z]){alternatives}(?![0-9A-Za-z])", re.IGNORECASE)

        def line_tail(religious: str, argumentation: str) -> str:
            # {"custom_id": <id>, "response": {"status_code": 200, "body":
            # {"choices": [{"message": {"role": "assistant", "content":
            # <reply>}}]}}, "error": null}
            reply = json.dumps(
                {"Religious": religious, "Certainty": "90%", "Argumentation": argumentation}
            )
            return (
                ', "response": {"status_code": 200, "body": {"choices": [{"message": '
                '{"role": "assistant", "content": ' + _encode(reply) + '}}]}}, "error": null}'
            )

        self._any_term = bounded("(?:" + "|".join(map(re.escape, self.TERMS)) + ")")
        self._terms = [
            (bounded(re.escape(term)), line_tail("Yes", f"Contains the term '{term}'."))
            for term in self.TERMS
        ]
        self._no = line_tail("No", "No religious terms or ideas detected.")

    def _line_tail(self, user_text: str) -> str:
        if self._any_term.search(user_text):
            for pattern, tail in self._terms:
                if pattern.search(user_text):
                    return tail
        return self._no

    def run_batch(
        self, lines: Iterable[str], state: dict | None = None, state_save=None
    ) -> list[str]:
        out = []
        for line in lines:
            request = orjson.loads(line)  # a line batch-build wrote, as read_jsonl's rows
            user_text = request["body"]["messages"][-1]["content"]
            out.append('{"custom_id": ' + _encode(request["custom_id"]) + self._line_tail(user_text))
        return out


class _HttpBatchProvider:
    """Shared OpenAI-style batch REST flow: upload, create, poll, download."""

    name = "http-batch"
    base_url = ""
    key_env = ""

    def __init__(self, session: requests.Session | None = None, poll_interval: float = 30.0):
        import requests

        self._session = session or requests.Session()
        self.poll_interval = poll_interval

    def _headers(self) -> dict[str, str]:
        key = os.environ.get(self.key_env, "")
        if not key:
            raise ProviderError(f"{self.name}: environment variable {self.key_env} is not set")
        return {"Authorization": f"Bearer {key}"}

    def _request(self, method: str, path: str, **kwargs):
        import requests

        try:
            resp = self._session.request(
                method, f"{self.base_url}{path}", headers=self._headers(), **kwargs
            )
        except requests.RequestException as exc:
            raise ProviderError(f"{self.name}: network failure: {exc}") from None
        if resp.status_code >= 400:
            raise ProviderError(
                f"{self.name}: HTTP {resp.status_code} on {path}: {resp.text[:500]}"
            )
        return resp

    def run_batch(
        self, lines: Iterable[str], state: dict | None = None, state_save=None
    ) -> list[str]:
        state = state if state is not None else {}
        if "batch_id" not in state:
            payload = "".join(line + "\n" for line in lines).encode("utf-8")
            upload = self._request(
                "POST",
                "/files",
                files={"file": ("batch.jsonl", payload)},
                data={"purpose": "batch"},
            ).json()
            batch = self._request(
                "POST",
                "/batches",
                json={
                    "input_file_id": upload["id"],
                    "endpoint": "/v1/chat/completions",
                    "completion_window": "24h",
                },
            ).json()
            state["batch_id"] = batch["id"]
            if state_save is not None:
                state_save(state)
            log.info(
                "%s: submitted batch %s (%d requests)",
                self.name, batch["id"], payload.count(b"\n"),
            )

        batch = self._poll(state["batch_id"])
        if batch.get("status") != "completed":
            raise ProviderError(
                f"{self.name}: batch {state['batch_id']} ended in status {batch.get('status')!r}"
            )
        output_file = batch.get("output_file_id")
        if not output_file:
            raise ProviderError(f"{self.name}: batch {state['batch_id']} has no output file")
        content = self._request("GET", f"/files/{output_file}/content").text
        # not splitlines: JSON strings may hold U+2028, U+0085 and the like raw
        return [line for line in content.split("\n") if line.strip()]

    def _poll(self, batch_id: str) -> dict:
        while True:
            batch = self._request("GET", f"/batches/{batch_id}").json()
            status = batch.get("status")
            log.debug("%s: batch %s status %s", self.name, batch_id, status)
            if status in TERMINAL_STATUSES:
                return batch
            time.sleep(self.poll_interval)


class OpenAIBatchProvider(_HttpBatchProvider):
    name = "openai-batch"
    base_url = "https://api.openai.com/v1"
    key_env = "OPENAI_API_KEY"


class GroqBatchProvider(_HttpBatchProvider):
    name = "groq-batch"
    base_url = "https://api.groq.com/openai/v1"
    key_env = "GROQ_API_KEY"


def get_provider(name: str) -> BatchProvider:
    if name == "stub":
        return StubProvider()
    if name == "openai-batch":
        return OpenAIBatchProvider()
    if name == "groq-batch":
        return GroqBatchProvider()
    raise ProviderError(f"unknown provider {name!r}")


def parse_result_lines(lines: Iterable[str]) -> dict[str, str]:
    """custom_id -> assistant message content; unusable rows are dropped
    (their sentences then surface as malformed, reason "missing"). A line
    is decoded by orjson, or by the stdlib json if orjson refuses it.
    """
    results: dict[str, str] = {}
    for line in lines:
        try:
            row = loads_external(line)
            custom_id = row["custom_id"]
            content = row["response"]["body"]["choices"][0]["message"]["content"]
        # ValueError: not JSON, or an int past str's digit limit; RecursionError:
        # nested too deep for the stdlib json
        except (ValueError, RecursionError, KeyError, IndexError, TypeError):
            continue
        if isinstance(custom_id, str) and isinstance(content, str):
            results[custom_id] = content
    return results


def join_verdicts(
    sentence_ids: list[str], results: dict[str, str], strict_json: bool = False
) -> list[Verdict]:
    """One verdict per sentence id, in the order given, always: sentences
    the provider did not answer become malformed verdicts with reason
    "missing".
    """
    verdicts = []
    for sentence_id in sentence_ids:
        raw = results.get(sentence_id)
        if raw is None:
            verdicts.append(Verdict(sentence_id, "malformed", None, None, "missing"))
        else:
            verdicts.append(parse_verdict(sentence_id, raw, strict=strict_json))
    return verdicts
