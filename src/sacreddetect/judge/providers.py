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
from typing import Protocol

import requests

from ..errors import ProviderError
from ..textpipe.corpus import SentenceRecord
from .verdicts import Verdict, parse_verdict

log = logging.getLogger(__name__)

MISSING_RAW_TEXT = "<missing>"
TERMINAL_STATUSES = {"completed", "failed", "expired", "cancelled", "cancelled_final"}


class BatchProvider(Protocol):
    name: str

    def run_batch(
        self, lines: list[str], state: dict | None = None, state_save=None
    ) -> list[str]:
        """Execute a batch and return raw result lines.

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
    """

    name = "stub"
    TERMS = ("pray", "prayer", "god", "sacred", "faith", "holy")

    def __init__(self) -> None:
        self._patterns = [
            (term, re.compile(rf"(?<![0-9A-Za-z]){re.escape(term)}(?![0-9A-Za-z])", re.IGNORECASE))
            for term in self.TERMS
        ]

    def _verdict_text(self, user_text: str) -> str:
        for term, pattern in self._patterns:
            if pattern.search(user_text):
                return json.dumps(
                    {
                        "Religious": "Yes",
                        "Certainty": "90%",
                        "Argumentation": f"Contains the term '{term}'.",
                    }
                )
        return json.dumps(
            {
                "Religious": "No",
                "Certainty": "90%",
                "Argumentation": "No religious terms or ideas detected.",
            }
        )

    def run_batch(
        self, lines: list[str], state: dict | None = None, state_save=None
    ) -> list[str]:
        out = []
        for line in lines:
            request = json.loads(line)
            user_text = request["body"]["messages"][-1]["content"]
            out.append(
                json.dumps(
                    {
                        "custom_id": request["custom_id"],
                        "response": {
                            "status_code": 200,
                            "body": {
                                "choices": [
                                    {
                                        "message": {
                                            "role": "assistant",
                                            "content": self._verdict_text(user_text),
                                        }
                                    }
                                ]
                            },
                        },
                        "error": None,
                    }
                )
            )
        return out


class _HttpBatchProvider:
    """Shared OpenAI-style batch REST flow: upload, create, poll, download."""

    name = "http-batch"
    base_url = ""
    key_env = ""

    def __init__(self, session: requests.Session | None = None, poll_interval: float = 30.0):
        self._session = session or requests.Session()
        self.poll_interval = poll_interval

    def _headers(self) -> dict[str, str]:
        key = os.environ.get(self.key_env, "")
        if not key:
            raise ProviderError(f"{self.name}: environment variable {self.key_env} is not set")
        return {"Authorization": f"Bearer {key}"}

    def _request(self, method: str, path: str, **kwargs):
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
        self, lines: list[str], state: dict | None = None, state_save=None
    ) -> list[str]:
        state = state if state is not None else {}
        if "batch_id" not in state:
            payload = ("\n".join(lines) + "\n").encode("utf-8")
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
            log.info("%s: submitted batch %s (%d requests)", self.name, batch["id"], len(lines))

        batch = self._poll(state["batch_id"])
        if batch.get("status") != "completed":
            raise ProviderError(
                f"{self.name}: batch {state['batch_id']} ended in status {batch.get('status')!r}"
            )
        output_file = batch.get("output_file_id")
        if not output_file:
            raise ProviderError(f"{self.name}: batch {state['batch_id']} has no output file")
        content = self._request("GET", f"/files/{output_file}/content").text
        return [line for line in content.splitlines() if line.strip()]

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


def parse_result_lines(lines: list[str]) -> dict[str, str]:
    """custom_id -> assistant message content; unusable rows are dropped
    (their sentences then surface as malformed-with-<missing>).
    """
    results: dict[str, str] = {}
    for line in lines:
        try:
            row = json.loads(line)
            custom_id = row["custom_id"]
            content = row["response"]["body"]["choices"][0]["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError):
            continue
        if isinstance(custom_id, str) and isinstance(content, str):
            results[custom_id] = content
    return results


def join_verdicts(
    corpus: list[SentenceRecord],
    results: dict[str, str],
    model_id: str,
    strict_json: bool = False,
) -> list[Verdict]:
    """One verdict per corpus sentence, always: sentences the provider did
    not answer become malformed verdicts with raw_text "<missing>".
    """
    verdicts = []
    for rec in corpus:
        raw = results.get(rec.sentence_id)
        if raw is None:
            verdicts.append(
                Verdict(rec.sentence_id, model_id, "malformed", None, None, MISSING_RAW_TEXT)
            )
        else:
            verdicts.append(parse_verdict(rec.sentence_id, model_id, raw, strict=strict_json))
    return verdicts
