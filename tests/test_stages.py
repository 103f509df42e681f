import json
import os
import re

import pytest

from sacreddetect.config import sample_config_path, validate_config
from sacreddetect import stages
from sacreddetect.errors import ConfigError, PrerequisiteError, ProviderError, StageLockedError
from sacreddetect.harvest.store import DocumentStore, RawDocument
from sacreddetect.jsonlio import read_jsonl
from sacreddetect.judge.providers import StubProvider
from sacreddetect.manifest import read_manifest
from sacreddetect.stages import (
    Layout,
    run_analyze,
    run_batch_build,
    run_classify,
    run_extract,
    run_harvest,
    run_match,
    run_report,
    stage_lock,
)


@pytest.fixture()
def sample_config(tmp_path):
    config = validate_config(sample_config_path())
    config.output_root = tmp_path / "run"
    return config


def test_extract_before_harvest_names_command(sample_config):
    with pytest.raises(PrerequisiteError, match="sacreddetect harvest"):
        run_extract(sample_config)


def test_match_before_extract_names_command(sample_config):
    with pytest.raises(PrerequisiteError, match="sacreddetect extract"):
        run_match(sample_config)


def test_analyze_before_match_names_command(sample_config):
    with pytest.raises(PrerequisiteError, match="sacreddetect match"):
        run_analyze(sample_config, tree_only=True)


def test_analyze_before_classify_names_command(sample_config):
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_match(sample_config)
    with pytest.raises(PrerequisiteError, match="classify"):
        run_analyze(sample_config)  # model verdicts missing, tree-only not set


def test_report_before_analyze_names_command(sample_config):
    with pytest.raises(PrerequisiteError, match="sacreddetect analyze"):
        run_report(sample_config)


def test_full_sample_pipeline(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_match(sample_config)
    run_batch_build(sample_config)
    run_classify(sample_config, stub=True)
    run_analyze(sample_config)
    run_report(sample_config)

    assert (layout.corpus / "summary.csv").is_file()
    assert (layout.labels_tree / "cca.jsonl").is_file()
    assert (layout.labels_tree / "lexicon.json").is_file()  # canonical export
    assert (layout.labels_model("gpt-4o-mini") / "icsd.jsonl").is_file()
    assert (layout.batches("gpt-4o-mini") / "ien.results.jsonl").is_file()
    for name in ("table1.csv", "table2.csv", "table3.csv", "table4.csv",
                 "consistency.md", "stats.json"):
        assert (layout.reports / name).is_file(), name
    assert (layout.reports / "terms" / "mother-earth.md").is_file()

    bundle = json.loads((layout.analysis / "stats.json").read_text())
    assert bundle["rates"]["tree|total"]["n"] == 10
    # term samples quote the models' argumentation
    mother_earth = (layout.reports / "terms" / "mother-earth.md").read_text()
    assert "## Samples" in mother_earth
    assert "  - gpt-4o-mini: " in mother_earth


def test_tree_only_analysis(sample_config):
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_match(sample_config)
    run_analyze(sample_config, tree_only=True)
    run_report(sample_config)
    layout = Layout(sample_config.output_root)
    assert (layout.reports / "table2.csv").is_file()
    assert not (layout.reports / "table4.csv").exists()  # needs two models


def test_match_short_circuits_on_unchanged_inputs(sample_config):
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_match(sample_config)
    layout = Layout(sample_config.output_root)
    label_file = layout.labels_tree / "cca.jsonl"
    before = (label_file.stat().st_mtime_ns, read_manifest(layout.labels_tree).finished)
    run_match(sample_config)
    after = (label_file.stat().st_mtime_ns, read_manifest(layout.labels_tree).finished)
    assert before == after


def test_harvest_sample_idempotent(sample_config):
    run_harvest(sample_config, sample=True)
    layout = Layout(sample_config.output_root)
    raw = (layout.raw / "cca.jsonl").read_bytes()
    run_harvest(sample_config, sample=True)
    assert (layout.raw / "cca.jsonl").read_bytes() == raw  # no duplicate append


def test_stage_lock_blocks_concurrent_runs(sample_config, tmp_path):
    root = tmp_path / "locked"
    root.mkdir()
    (root / ".lock").write_text(str(os.getpid()))  # a live pid: ours
    with pytest.raises(StageLockedError):
        with stage_lock(root):
            pass


def test_stage_lock_steals_stale_lock(tmp_path):
    root = tmp_path / "stale"
    root.mkdir()
    (root / ".lock").write_text("999999999")  # no such pid
    with stage_lock(root):
        assert (root / ".lock").is_file()
    assert not (root / ".lock").exists()


def test_crash_safety_partial_outputs_rerun(sample_config):
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    layout = Layout(sample_config.output_root)
    # simulate a crash: outputs exist but the manifest is gone
    (layout.corpus / "manifest.json").unlink()
    with pytest.raises(PrerequisiteError):
        run_match(sample_config)
    run_extract(sample_config)  # re-runs, rewrites the manifest
    run_match(sample_config)


def test_adhoc_match_directories(sample_config, tmp_path):
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    layout = Layout(sample_config.output_root)
    out = tmp_path / "adhoc-labels"
    run_match(sample_config, corpus_dir=layout.corpus, out_dir=out)
    assert (out / "cca.jsonl").is_file()
    assert read_manifest(out) is not None


def test_stage_lock_race_raises_locked_error(monkeypatch, tmp_path):
    root = tmp_path / "race"
    real_open = os.open

    def open_after_rival(path, flags, *args):
        # another process creates the lock between the check and the open
        (root / ".lock").write_text("12345")
        return real_open(path, flags, *args)

    monkeypatch.setattr(stages.os, "open", open_after_rival)
    with pytest.raises(StageLockedError):
        with stage_lock(root):
            pass
    assert (root / ".lock").read_text() == "12345"  # the rival's lock stays


def _write(name, text="x"):
    def build(out):
        (out / name).write_text(text)
        return {"wrote": name}
    return build


def test_produce_failed_build_keeps_previous_output(tmp_path):
    out = tmp_path / "stage"
    stages._produce("demo", out, {"in": "1"}, _write("a.txt"))
    manifest = (out / "manifest.json").read_bytes()

    def failing(tmp):
        (tmp / "a.txt").write_text("half")
        raise RuntimeError("crash mid-build")

    with pytest.raises(RuntimeError):
        stages._produce("demo", out, {"in": "2"}, failing)
    assert (out / "manifest.json").read_bytes() == manifest
    assert (out / "a.txt").read_text() == "x"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stage"]  # no partial sibling


def test_produce_rerun_removes_files_it_no_longer_writes(tmp_path):
    out = tmp_path / "stage"

    def both(tmp):
        (tmp / "a.txt").write_text("a")
        (tmp / "b.txt").write_text("b")
        return {}

    stages._produce("demo", out, {"in": "1"}, both)
    stages._produce("demo", out, {"in": "2"}, _write("a.txt"))
    assert sorted(p.name for p in out.iterdir()) == ["a.txt", "manifest.json"]
    assert read_manifest(out).inputs == {"in": "2"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stage"]


def test_produce_refuses_unmanaged_directory(sample_config, tmp_path):
    user_dir = tmp_path / "mine"
    user_dir.mkdir()
    (user_dir / "notes.txt").write_text("keep me")
    with pytest.raises(ConfigError, match="manifest.json"):
        stages._produce("demo", user_dir, {"in": "1"}, _write("a.txt"), adopt=False)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    layout = Layout(sample_config.output_root)
    with pytest.raises(ConfigError):  # `match --out` onto a user's directory
        run_match(sample_config, corpus_dir=layout.corpus, out_dir=user_dir)
    assert sorted(p.name for p in user_dir.iterdir()) == ["notes.txt"]
    assert (user_dir / "notes.txt").read_text() == "keep me"


def test_dropped_source_leaves_corpus_and_labels(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_match(sample_config)
    run_analyze(sample_config, tree_only=True)
    sample_config.sources = [s for s in sample_config.sources if s.ngo_id != "ien"]
    run_extract(sample_config)
    run_match(sample_config)
    run_analyze(sample_config, tree_only=True)

    assert (layout.raw / "ien.jsonl").is_file()  # the raw store is append-only
    assert not (layout.corpus / "ien.jsonl").exists()
    assert not (layout.labels_tree / "ien.jsonl").exists()
    bundle = json.loads((layout.analysis / "stats.json").read_text())
    assert "ien" not in bundle["scopes"]
    assert "ien" not in (layout.corpus / "summary.csv").read_text()
    assert bundle["rates"]["tree|total"]["n"] < 10


def test_classify_records_the_template_the_batches_carry(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_batch_build(sample_config)  # the sample config uses "revised"
    built = read_manifest(layout.batches("gpt-4o-mini"))
    sample_config.prompt_template = "general"
    run_classify(sample_config, stub=True)
    params = read_manifest(layout.labels_model("gpt-4o-mini")).params
    assert params["template"] == "revised"
    assert params["prompt_sha256"] == built.inputs["prompt"]


def test_extract_skips_a_document_stored_twice(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    raw = layout.raw / "cca.jsonl"
    raw.write_text(raw.read_text() * 2)  # the one cca document, appended again
    run_extract(sample_config)

    rows = [json.loads(line) for line in (layout.corpus / "cca.jsonl").read_text().splitlines()]
    ids = [row["sentence_id"] for row in rows]
    assert len(ids) == len(set(ids)) == 5
    assert read_manifest(layout.corpus).params["counters"]["skipped_duplicate_doc"] == 1


def test_extract_skips_a_torn_line_and_keeps_the_reappended_document(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    raw = layout.raw / "cca.jsonl"
    [doc] = DocumentStore(layout.raw).iter_ngo("cca")
    line = raw.read_bytes()
    raw.write_bytes(line[: len(line) // 2])  # the append torn mid-line
    DocumentStore(layout.raw).append(doc)  # the resumed harvest stores it again
    run_extract(sample_config)

    rows = (layout.corpus / "cca.jsonl").read_text().splitlines()
    assert len(rows) == 5
    counters = read_manifest(layout.corpus).params["counters"]
    assert counters["skipped_torn_line"] == 1
    assert "skipped_duplicate_doc" not in counters


def test_extract_skips_a_line_torn_inside_a_character(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    raw = layout.raw / "cca.jsonl"
    [doc] = DocumentStore(layout.raw).iter_ngo("cca")
    doc = RawDocument.make(
        doc.ngo_id, doc.url + "/caf\u00e8", doc.status, doc.content_type, doc.body, doc.fetched_at
    )
    # a line holding raw UTF-8, torn by a crash after the first byte of "è"
    line = json.dumps(doc.to_dict(), ensure_ascii=False).encode("utf-8")
    raw.write_bytes(line[: line.index("\u00e8".encode("utf-8")) + 1])
    DocumentStore(layout.raw).append(doc)  # the resumed harvest stores it again
    run_extract(sample_config)

    assert len((layout.corpus / "cca.jsonl").read_text().splitlines()) == 5
    assert read_manifest(layout.corpus).params["counters"]["skipped_torn_line"] == 1


def test_read_jsonl_names_the_path_and_line_of_a_bad_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n\n{"b": "caf\xc3')
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: line 3: "):
        list(read_jsonl(path))
    bad = []
    assert list(read_jsonl(path, lambda *where: bad.append(where))) == [{"a": 1}]
    assert bad == [(path, 3)]


class FlakyProvider:
    """Stub answers, with a provider failure on one call."""

    def __init__(self, fail_on_call=None):
        self.sent: list[list[str]] = []
        self.states: list[dict] = []
        self.fail_on_call = fail_on_call

    def run_batch(self, lines, state=None, state_save=None):
        self.sent.append(lines)
        self.states.append(dict(state or {}))
        if len(self.sent) == self.fail_on_call:
            raise ProviderError("quota exceeded")
        return StubProvider().run_batch(lines)


def test_classify_resume_does_not_resend_finished_files(sample_config, monkeypatch):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_batch_build(sample_config)
    model = "gpt-4o-mini"
    cca_lines = (layout.batches(model) / "cca.jsonl").read_text().splitlines()

    def classify_with(provider, **kwargs):
        monkeypatch.setattr(stages.providers_mod, "get_provider", lambda name: provider)
        run_classify(sample_config, only_model=model, **kwargs)

    with pytest.raises(ProviderError):  # cca done, greenfaith fails
        classify_with(FlakyProvider(fail_on_call=2))
    resumed = FlakyProvider()
    classify_with(resumed)
    assert len(resumed.sent) == 3
    assert cca_lines not in resumed.sent
    labels = (layout.labels_model(model) / "cca.jsonl").read_text().splitlines()
    assert len(labels) == len(cca_lines)

    other = FlakyProvider()  # another provider's results are not reused
    classify_with(other, provider_override="openai-batch")
    assert len(other.sent) == 4


def test_classify_ignores_another_providers_pending_state(sample_config, monkeypatch):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_batch_build(sample_config)
    model = "gpt-4o-mini"
    state_path = layout.batches(model) / "cca.state.json"
    state_path.write_text(json.dumps({"batch_id": "batch_from_openai"}))  # no provider named
    provider = FlakyProvider()
    monkeypatch.setattr(stages.providers_mod, "get_provider", lambda name: provider)
    run_classify(sample_config, only_model=model, provider_override="groq-batch")
    assert len(provider.states) == 4
    assert not any("batch_id" in state for state in provider.states)
    assert json.loads(state_path.read_text()) == {"provider": "groq-batch", "done": True}


class SubmittingProvider:
    """Saves a batch id on submission, then fails while polling."""

    def __init__(self):
        self.states: list[dict] = []

    def run_batch(self, lines, state=None, state_save=None):
        self.states.append(dict(state))
        state["batch_id"] = "batch_1"
        state_save(state)
        raise ProviderError("poll timed out")


def test_classify_pending_state_names_its_provider(sample_config, monkeypatch):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_batch_build(sample_config)
    model = "gpt-4o-mini"
    provider = SubmittingProvider()
    monkeypatch.setattr(stages.providers_mod, "get_provider", lambda name: provider)

    def classify(provider_name):
        with pytest.raises(ProviderError):
            run_classify(sample_config, only_model=model, provider_override=provider_name)
        return provider.states[-1]

    assert classify("openai-batch") == {}
    state_path = layout.batches(model) / "cca.state.json"
    saved = {"provider": "openai-batch", "batch_id": "batch_1"}
    assert json.loads(state_path.read_text()) == saved
    assert classify("openai-batch") == {"batch_id": "batch_1"}  # resumed
    assert classify("groq-batch") == {}  # not handed to another provider
