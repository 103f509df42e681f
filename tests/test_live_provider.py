import json

import pytest

from sacreddetect import stages
from sacreddetect.config import ModelSpec, sample_config_path, validate_config
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
    """Scripted OpenAI-style batch endpoints; records every request.

    Batches are numbered batch-1, batch-2, ... as they are created.
    final_status is the status every batch ends in, or a tuple of the
    status each batch ends in, by number, the last one for the batches
    past its end. A batch ends with output_file_id and, when it is set,
    error_file_id.
    """

    def __init__(self, polls_until_done=2, final_status="completed", reply=None,
                 output_file_id="file-out", error_file_id=None):
        self.calls = []
        self.uploads = []  # the bytes of each uploaded file
        self.reply = reply or '{"Religious":"No","Certainty":"90%","Argumentation":"x"}'
        self.polls = 0
        self.polls_until_done = polls_until_done
        self.final_status = final_status
        self.batches = 0
        self.output_file_id = output_file_id
        self.error_file_id = error_file_id

    def _final_status(self, number):
        if isinstance(self.final_status, str):
            return self.final_status
        return self.final_status[min(number, len(self.final_status)) - 1]

    def request(self, method, url, headers=None, **kwargs):
        self.calls.append((method, url))
        if method == "POST" and url.endswith("/files"):
            self.uploads.append(kwargs["files"]["file"][1])
            return FakeResponse(payload={"id": "file-in"})
        if method == "POST" and url.endswith("/batches"):
            self.batches += 1
            return FakeResponse(payload={"id": f"batch-{self.batches}", "status": "validating"})
        if method == "GET" and "/batches/batch-" in url:
            batch_id = url.rsplit("/", 1)[1]
            self.polls += 1
            if self.polls < self.polls_until_done:
                return FakeResponse(payload={"id": batch_id, "status": "in_progress"})
            batch = {
                "id": batch_id,
                "status": self._final_status(int(batch_id.removeprefix("batch-"))),
                "output_file_id": self.output_file_id,
            }
            if self.error_file_id:
                batch["error_file_id"] = self.error_file_id
            return FakeResponse(payload=batch)
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


def test_upload_is_the_request_file_read_line_by_line(tmp_path, caplog):
    path = tmp_path / "cca.jsonl"
    # raw U+2028 and U+0085 inside a JSON string do not end a line
    path.write_bytes('{"custom_id":"s1","x":"a\u2028b"}\n{"custom_id":"s2","x":"c\x85d"}\n'.encode())
    session = FakeBatchSession()
    caplog.set_level("INFO")
    make_provider(session).run_batch(stages._read_lines(path))
    assert session.uploads == [path.read_bytes()]
    assert "submitted batch batch-1 (2 requests)" in caplog.text


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


def test_a_batch_that_ended_failed_is_submitted_again_on_the_rerun(tmp_path, monkeypatch):
    config = validate_config(sample_config_path())
    config.output_root = tmp_path / "run"
    config.models = [ModelSpec("gpt-4o-mini", "openai-batch")]
    stages.run_harvest(config, sample=True)
    stages.run_extract(config)
    stages.run_batch_build(config)
    batches = stages.Layout(config.output_root).batches("gpt-4o-mini")
    session = FakeBatchSession(polls_until_done=1, final_status=("failed", "completed"))
    monkeypatch.setattr(stages.providers_mod, "get_provider", lambda name: make_provider(session))

    with pytest.raises(ProviderError, match="batch-1 ended in status 'failed'"):
        stages.run_classify(config)
    assert json.loads((batches / "cca.state.json").read_text()) == {"provider": "openai-batch"}
    stages.run_classify(config)  # batch-1 is not polled again: cca goes out in batch-2
    corpus = stages.Layout(config.output_root).corpus
    assert len(session.uploads) == 1 + len(list(corpus.glob("*.jsonl")))
    assert session.uploads[:2] == [(batches / "cca.jsonl").read_bytes()] * 2
    assert session.calls.count(("GET", f"{OpenAIBatchProvider.base_url}/batches/batch-1")) == 1
    assert json.loads((batches / "cca.state.json").read_text()) == {
        "provider": "openai-batch", "done": True
    }
    labels = stages.Layout(config.output_root).labels_model("gpt-4o-mini")
    assert (labels / "cca.jsonl").read_text().count("\n") == len(
        (batches / "cca.jsonl").read_text().splitlines()
    )


def test_a_completed_batch_without_an_output_file_is_submitted_again():
    # as when every request in it errored: only an error file came back
    session = FakeBatchSession(polls_until_done=1, output_file_id=None, error_file_id="file-err")
    provider = make_provider(session)
    state, saved = {}, []
    with pytest.raises(ProviderError, match="batch-1 completed with no output file.*file-err"):
        provider.run_batch(['{"custom_id":"s1"}'], state=state, state_save=saved.append)
    assert state == {} and saved[-1] == {}  # forgotten
    session.output_file_id = "file-out"
    lines = provider.run_batch(['{"custom_id":"s1"}'], state=state, state_save=saved.append)
    assert session.uploads == [b'{"custom_id":"s1"}\n'] * 2  # sent again, as batch-2
    assert state == {"batch_id": "batch-2"}
    assert [json.loads(line)["custom_id"] for line in lines] == ["s1"]


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
