import json

import pytest

from sacreddetect.errors import ProviderError
from sacreddetect.judge.batch import build_batch_file
from sacreddetect.judge.providers import (
    MISSING_RAW_TEXT,
    StubProvider,
    get_provider,
    join_verdicts,
    parse_result_lines,
)
from sacreddetect.textpipe.corpus import SentenceRecord


def corpus(*texts):
    return [SentenceRecord.make("d", "n", i, t) for i, t in enumerate(texts)]


def classify(corpus, template_id, model_id, provider):
    """The batch -> provider -> verdict chain that run_classify applies to
    each NGO file; returns (verdicts, raw result lines)."""
    raw_lines = provider.run_batch(build_batch_file(corpus, template_id, model_id))
    results = parse_result_lines(raw_lines)
    return join_verdicts(corpus, results, model_id), raw_lines


class DropsSomeProvider:
    """Mock provider that loses the last `drop` requests."""

    name = "mock"

    def __init__(self, drop=0):
        self.drop = drop

    def run_batch(self, lines, state=None, state_save=None):
        keep = lines[: len(lines) - self.drop] if self.drop else lines
        return StubProvider().run_batch(keep)


def test_stub_yes_on_pray():
    verdicts, _ = classify(corpus("We pray daily."), "revised", "m", StubProvider())
    assert verdicts[0].label == "yes"
    assert verdicts[0].certainty == 90
    assert "pray" in verdicts[0].argumentation


def test_stub_no_on_tuna():
    verdicts, _ = classify(corpus("The net is used for tuna."), "revised", "m", StubProvider())
    assert verdicts[0].label == "no"


def test_stub_is_deterministic():
    c = corpus("We pray daily.", "Sacred rivers flow.", "Plain text.")
    first, lines1 = classify(c, "revised", "m", StubProvider())
    second, lines2 = classify(c, "revised", "m", StubProvider())
    assert first == second
    assert lines1 == lines2


def test_missing_results_become_malformed():
    c = corpus("One sacred place.", "Two plain places.", "Three more lines.", "Four.")
    verdicts, _ = classify(c, "revised", "m", DropsSomeProvider(drop=2))
    assert len(verdicts) == len(c)
    missing = [v for v in verdicts if v.raw_text == MISSING_RAW_TEXT]
    assert len(missing) == 2
    assert all(v.label == "malformed" for v in missing)


def test_verdict_totality_with_empty_sentence():
    c = corpus("We pray.", "")  # empty text never reaches the provider
    verdicts, _ = classify(c, "revised", "m", StubProvider())
    assert len(verdicts) == 2
    assert verdicts[1].label == "malformed"
    assert verdicts[1].raw_text == MISSING_RAW_TEXT


def test_parse_result_lines_drops_garbage():
    lines = StubProvider().run_batch(
        build_batch_file(corpus("We pray."), "revised", "m")
    )
    lines += ["not json", json.dumps({"custom_id": 5}), json.dumps({"response": {}})]
    results = parse_result_lines(lines)
    assert len(results) == 1


def test_join_verdicts_parses_content():
    c = corpus("Holy ground here.")
    lines = StubProvider().run_batch(build_batch_file(c, "revised", "m"))
    verdicts = join_verdicts(c, parse_result_lines(lines), "m")
    assert verdicts[0].label == "yes"
    assert verdicts[0].model_id == "m"
    assert verdicts[0].sentence_id == c[0].sentence_id


def test_get_provider_names():
    assert get_provider("stub").name == "stub"
    assert get_provider("openai-batch").name == "openai-batch"
    assert get_provider("groq-batch").name == "groq-batch"
    with pytest.raises(ProviderError):
        get_provider("mystery")


def test_live_provider_requires_api_key(monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    provider = get_provider("openai-batch")
    with pytest.raises(ProviderError, match="OPENAI_API_KEY"):
        provider.run_batch(["{}"])


def test_stub_word_boundaries():
    verdicts, _ = classify(corpus("The godless goddess."), "revised", "m", StubProvider())
    assert verdicts[0].label == "no"  # 'god' must not match inside other words
