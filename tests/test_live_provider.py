import json

import pytest

from sacreddetect.errors import ProviderError
from sacreddetect.judge.providers import (
    GroqBatchProvider,
    OpenAIBatchProvider,
    parse_result_lines,
)


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text if text is not None else json.dumps(payload or {})

    def json(self):
        return self._payload


class FakeBatchSession:
    """Scripted OpenAI-style batch endpoints; records every request."""

    def __init__(self, polls_until_done=2, final_status="completed", reply=None):
        self.calls = []
        self.reply = reply or '{"Religious":"No","Certainty":"90%","Argumentation":"x"}'
        self.polls = 0
        self.polls_until_done = polls_until_done
        self.final_status = final_status

    def request(self, method, url, headers=None, **kwargs):
        self.calls.append((method, url))
        if method == "POST" and url.endswith("/files"):
            return FakeResponse(payload={"id": "file-in"})
        if method == "POST" and url.endswith("/batches"):
            return FakeResponse(payload={"id": "batch-1", "status": "validating"})
        if method == "GET" and "/batches/batch-1" in url:
            self.polls += 1
            if self.polls < self.polls_until_done:
                return FakeResponse(payload={"id": "batch-1", "status": "in_progress"})
            return FakeResponse(
                payload={
                    "id": "batch-1",
                    "status": self.final_status,
                    "output_file_id": "file-out",
                }
            )
        if method == "GET" and url.endswith("/files/file-out/content"):
            lines = [
                json.dumps(
                    {
                        "custom_id": "s1",
                        "response": {
                            "status_code": 200,
                            "body": {
                                "choices": [
                                    {"message": {"content": self.reply}}
                                ]
                            },
                        },
                    },
                    ensure_ascii=False,
                )
            ]
            return FakeResponse(text="\n".join(lines))
        return FakeResponse(status_code=404, payload={}, text="not found")


@pytest.fixture(autouse=True)
def api_keys(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "test-key")
    monkeypatch.setenv("GROQ_API_KEY", "test-key")


def make_provider(session, cls=OpenAIBatchProvider):
    return cls(session=session, poll_interval=0.0)


def test_happy_path_uploads_polls_downloads():
    session = FakeBatchSession()
    provider = make_provider(session)
    saved = []
    lines = provider.run_batch(['{"custom_id":"s1"}'], state_save=saved.append)
    assert len(lines) == 1
    assert json.loads(lines[0])["custom_id"] == "s1"
    assert saved and saved[0]["batch_id"] == "batch-1"  # persisted before polling
    methods = [f"{m} {u.split('/v1')[-1]}" for m, u in session.calls]
    assert methods[0] == "POST /files"
    assert methods[1] == "POST /batches"


def test_resume_skips_upload():
    session = FakeBatchSession(polls_until_done=1)
    provider = make_provider(session)
    lines = provider.run_batch([], state={"batch_id": "batch-1"})
    assert len(lines) == 1
    assert not any(m == "POST" for m, _ in session.calls)


def test_terminal_failure_raises_provider_error():
    session = FakeBatchSession(polls_until_done=1, final_status="expired")
    provider = make_provider(session)
    with pytest.raises(ProviderError, match="expired"):
        provider.run_batch(['{"custom_id":"s1"}'])


def test_http_error_raises_provider_error():
    class AlwaysBroken:
        def request(self, *args, **kwargs):
            return FakeResponse(status_code=503, payload={}, text="overloaded")

    provider = make_provider(AlwaysBroken())
    with pytest.raises(ProviderError, match="503"):
        provider.run_batch(["{}"])


def test_groq_uses_its_own_base_url():
    session = FakeBatchSession(polls_until_done=1)
    provider = make_provider(session, cls=GroqBatchProvider)
    provider.run_batch(['{"custom_id":"s1"}'])
    assert all(u.startswith("https://api.groq.com/openai/v1") for _, u in session.calls)


def test_downloaded_lines_are_not_torn_at_unicode_line_separators():
    reply = '{"Religious":"Yes","Certainty":"90%","Argumentation":"a\u2028b\x85c"}'
    session = FakeBatchSession(polls_until_done=1, reply=reply)
    lines = make_provider(session).run_batch(['{"custom_id":"s1"}'])
    assert len(lines) == 1
    assert parse_result_lines(lines) == {"s1": reply}
