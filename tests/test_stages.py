import dataclasses
import json
import os
import re
import shutil

import pytest

from sacreddetect.config import ModelSpec, bundled_path, sample_config_path, validate_config
from sacreddetect import stages
from sacreddetect.errors import (
    CoverageError,
    PrerequisiteError,
    ProviderError,
    StageLockedError,
)
from sacreddetect.harvest import store as store_mod
from sacreddetect.harvest.store import DocumentStore, RawDocument
from sacreddetect.jsonlio import read_jsonl
from sacreddetect.judge.batch import build_batch_file
from sacreddetect.judge.providers import StubProvider, parse_result_lines
from sacreddetect.judge.verdicts import REASONS
from sacreddetect.lexicon import parse_lexicon_text
from sacreddetect.manifest import read_manifest
from sacreddetect.textpipe.corpus import SentenceRecord
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

    assert not (layout.corpus / "summary.csv").exists()  # table 1 reads the manifest
    assert (layout.labels_tree / "cca.jsonl").is_file()
    assert (layout.labels_tree / "lexicon.json").is_file()  # canonical export
    assert (layout.labels_model("gpt-4o-mini") / "icsd.jsonl").is_file()
    assert (layout.batches("gpt-4o-mini") / "ien.results.jsonl").is_file()
    for name in ("table1.csv", "table2.csv", "table3.csv", "table4.csv",
                 "consistency.md", "stats.json"):
        assert (layout.reports / name).is_file(), name
    assert (layout.reports / "terms" / "mother-earth.md").is_file()
    stats = (layout.analysis / "stats.json").read_bytes()
    assert (layout.reports / "stats.json").read_bytes() == stats

    bundle = json.loads(stats)
    assert bundle["rates"]["tree|total"]["n"] == 10
    counters = read_manifest(layout.corpus).params["counters"]
    assert [(r["ngo_id"], r["n_documents"], r["n_sentences"]) for r in bundle["corpus"]] == [
        (ngo, counters[f"documents:{ngo}"], counters[f"sentences:{ngo}"])
        for ngo in ("cca", "greenfaith", "icsd", "ien")
    ]
    # term samples quote the models' argumentation
    mother_earth = (layout.reports / "terms" / "mother-earth.md").read_text()
    assert "## Samples" in mother_earth
    assert "  - gpt-4o-mini: " in mother_earth


def _run_all(config):
    run_harvest(config, sample=True)
    run_extract(config)
    run_match(config)
    run_batch_build(config)
    run_classify(config, stub=True)
    run_analyze(config)
    run_report(config)


def _exported_tree(node, path=()):
    """(path, variants) of each node of lexicon.json, depth first."""
    here = (*path, node["name"])
    yield here, node["variants"]
    for child in node["children"]:
        yield from _exported_tree(child, here)


def test_a_lexicon_edit_in_the_config_reruns_match_and_analyze_only(sample_config, tmp_path):
    """The curator's loop: the config's lexicon key names an edited tree,
    match rebuilds from it and exports it, and no model stage re-runs."""
    layout = Layout(sample_config.output_root)
    _run_all(sample_config)
    untouched = [
        layout.corpus,
        *(layout.batches(m.model_id) for m in sample_config.models),
        *(layout.labels_model(m.model_id) for m in sample_config.models),
    ]
    manifests = {d: (d / "manifest.json").read_bytes() for d in untouched}
    match_inputs = read_manifest(layout.labels_tree).inputs
    analysis_inputs = read_manifest(layout.analysis).inputs
    tree_yes = json.loads((layout.analysis / "stats.json").read_text())["rates"]["tree|total"]["n_yes"]

    tree_text = bundled_path("starter.tree").read_text(encoding="utf-8") + "  apostle: apostles\n"
    (tmp_path / "curated.tree").write_text(tree_text, encoding="utf-8")
    config_text = sample_config_path().read_text(encoding="utf-8")
    assert 'lexicon = "starter"' in config_text
    (tmp_path / "curated.toml").write_text(
        config_text.replace('lexicon = "starter"', 'lexicon = "curated.tree"'), encoding="utf-8"
    )
    curated = validate_config(tmp_path / "curated.toml")
    curated.output_root = sample_config.output_root
    _run_all(curated)

    assert {d: (d / "manifest.json").read_bytes() for d in untouched} == manifests
    inputs = read_manifest(layout.labels_tree).inputs
    assert inputs["lexicon"] != match_inputs["lexicon"]
    assert {k: v for k, v in inputs.items() if k != "lexicon"} == {
        k: v for k, v in match_inputs.items() if k != "lexicon"
    }
    # the export records the lexicon match ran with
    lexicon = parse_lexicon_text(tree_text)
    exported = json.loads((layout.labels_tree / "lexicon.json").read_text(encoding="utf-8"))
    assert [node for root in exported["roots"] for node in _exported_tree(root)] == [
        (path, node.variants) for path, node in lexicon.walk()
    ]
    assert exported["exclusions"] == lexicon.exclusions
    # "the apostles and disciples" is now religious language
    assert read_manifest(layout.analysis).inputs != analysis_inputs
    bundle = json.loads((layout.analysis / "stats.json").read_text())
    assert bundle["rates"]["tree|total"]["n_yes"] == tree_yes + 1
    assert (layout.reports / "stats.json").read_text() == (layout.analysis / "stats.json").read_text()


def test_sample_rows_decode_equal_under_json_and_orjson(sample_config):
    """read_jsonl's orjson gives every row the sample run writes exactly as
    the stdlib json does."""
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_match(sample_config)
    run_batch_build(sample_config)
    run_classify(sample_config, stub=True)
    paths = sorted(
        path
        for directory in (layout.raw, layout.corpus, layout.root / "labels", layout.root / "batches")
        for path in directory.rglob("*.jsonl")
    )
    assert {p.relative_to(layout.root).parts[0] for p in paths} == {"raw", "corpus", "labels", "batches"}
    for path in paths:
        with open(path, "rb") as fh:
            expected = [json.loads(line.decode("utf-8")) for line in fh]
        assert repr(list(read_jsonl(path))) == repr(expected), path  # tells 1 from 1.0


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


def test_failed_stage_leaves_no_output_root_it_made(sample_config, tmp_path):
    sample_config.output_root = tmp_path / "newroot" / "a"
    with pytest.raises(PrerequisiteError, match="sacreddetect extract"):
        run_match(sample_config)
    assert not (tmp_path / "newroot").exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    sample_config.output_root = existing
    with pytest.raises(PrerequisiteError):
        run_match(sample_config)
    assert sorted(existing.iterdir()) == []  # a root that was there stays


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
    def build(tmps):
        [(out, tmp)] = tmps.items()
        (tmp / name).write_text(text)
        return {out: {"wrote": name}}
    return build


def test_produce_failed_build_keeps_previous_output(tmp_path):
    out = tmp_path / "stage"
    stages._produce("demo", {out: {"in": "1"}}, _write("a.txt"))
    manifest = (out / "manifest.json").read_bytes()

    def failing(tmps):
        (tmps[out] / "a.txt").write_text("half")
        raise RuntimeError("crash mid-build")

    with pytest.raises(RuntimeError):
        stages._produce("demo", {out: {"in": "2"}}, failing)
    assert (out / "manifest.json").read_bytes() == manifest
    assert (out / "a.txt").read_text() == "x"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stage"]  # no partial sibling


def test_produce_rerun_removes_files_it_no_longer_writes(tmp_path):
    out = tmp_path / "stage"

    def both(tmps):
        (tmps[out] / "a.txt").write_text("a")
        (tmps[out] / "b.txt").write_text("b")
        return {out: {}}

    stages._produce("demo", {out: {"in": "1"}}, both)
    stages._produce("demo", {out: {"in": "2"}}, _write("a.txt"))
    assert sorted(p.name for p in out.iterdir()) == ["a.txt", "manifest.json"]
    assert read_manifest(out).inputs == {"in": "2"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stage"]


def test_produce_removes_a_killed_runs_siblings_beside_a_current_output(tmp_path):
    out = tmp_path / "stage"
    stages._produce("demo", {out: {"in": "1"}}, _write("a.txt"))
    manifest = (out / "manifest.json").read_bytes()
    for suffix in ("tmp", "old"):  # as a run killed mid-build or mid-swap leaves them
        sibling = tmp_path / f".stage.{suffix}"
        sibling.mkdir()
        (sibling / "a.txt").write_text("left over")
    stages._produce("demo", {out: {"in": "1"}}, _write("a.txt"))  # up to date: a no-op
    assert (out / "manifest.json").read_bytes() == manifest
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stage"]


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
    assert "documents:ien" not in read_manifest(layout.corpus).params["counters"]
    assert "ien" not in [row["ngo_id"] for row in bundle["corpus"]]
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


def test_extract_and_match_record_per_ngo_counts(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_match(sample_config)
    extract_counters = read_manifest(layout.corpus).params["counters"]
    match_counters = read_manifest(layout.labels_tree).params["counters"]
    ngos = sorted(p.stem for p in layout.raw.glob("*.jsonl"))
    assert ngos
    for ngo in ngos:
        rows = list(read_jsonl(layout.corpus / f"{ngo}.jsonl"))
        labels = list(read_jsonl(layout.labels_tree / f"{ngo}.jsonl"))
        assert extract_counters[f"documents:{ngo}"] == len({r["doc_id"] for r in rows}) == 1
        assert extract_counters[f"sentences:{ngo}"] == len(rows) > 0
        assert match_counters[f"sentences:{ngo}"] == len(labels) == len(rows)
        assert match_counters[f"yes:{ngo}"] == sum(r["label"] == "yes" for r in labels)
    assert sum(match_counters[f"yes:{ngo}"] for ngo in ngos) > 0


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


def test_batch_build_records_requests_and_bytes_per_file(sample_config, monkeypatch, caplog):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    monkeypatch.setitem(stages.batch_mod.BATCH_LIMIT, "requests", 2)
    run_batch_build(sample_config)
    over = set()
    for model in sample_config.models:
        batch_dir = layout.batches(model.model_id)
        counters = read_manifest(batch_dir).params["counters"]
        for path in sorted(batch_dir.glob("*.jsonl")):
            n = path.read_text(encoding="utf-8").count("\n")
            assert counters[f"requests:{path.stem}"] == n
            assert counters[f"bytes:{path.stem}"] == path.stat().st_size
            if n > 2:
                over.add(str(path))
    warned = {str(r.args[0]) for r in caplog.records if "per-batch limit" in r.getMessage()}
    assert over and warned == over


def _extract_with_extra_cca_sentences(config, texts, doc_id="extra"):
    run_harvest(config, sample=True)
    run_extract(config)
    corpus = Layout(config.output_root).corpus
    with open(corpus / "cca.jsonl", "a", encoding="utf-8") as fh:
        for i, text in enumerate(texts):
            row = SentenceRecord.make(doc_id, "cca", i, text).to_dict()
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def test_batch_build_files_equal_the_joined_lines_of_each_model(sample_config):
    _extract_with_extra_cca_sentences(
        sample_config, ["", "Sacred earth,\u2028Schöpfung, 創造 \U0001f600."]
    )
    layout = Layout(sample_config.output_root)
    run_batch_build(sample_config)
    assert len(sample_config.models) == 2
    for model in sample_config.models:
        batch_dir = layout.batches(model.model_id)
        names = sorted(p.name for p in batch_dir.glob("*.jsonl"))
        assert names == sorted(p.name for p in layout.corpus.glob("*.jsonl"))
        for name in names:
            corpus = stages.load_corpus(layout.corpus / name)
            lines = build_batch_file(corpus, sample_config.prompt_template, model.model_id)
            expected = "\n".join(lines) + "\n"
            assert (batch_dir / name).read_bytes() == expected.encode("utf-8")


def test_batch_lines_follow_the_corpus_file_order(sample_config):
    # appended rows whose doc_id sorts before every hashed one: a re-sort on
    # (ngo_id, doc_id, position) would move them to the top
    _extract_with_extra_cca_sentences(sample_config, ["Sacred rivers run.", "We pray."], "0")
    layout = Layout(sample_config.output_root)
    run_batch_build(sample_config)
    for model in sample_config.models:
        for path in sorted(layout.corpus.glob("*.jsonl")):
            batch = layout.batches(model.model_id) / path.name
            assert [row["custom_id"] for row in read_jsonl(batch)] == [
                sentence_id for sentence_id, _ in stages.load_corpus(path)
            ]


def test_batch_build_warns_once_per_model_about_empty_sentences(sample_config, caplog):
    _extract_with_extra_cca_sentences(sample_config, [""])  # cca is the first file
    caplog.set_level("WARNING")
    run_batch_build(sample_config)
    warned = [r for r in caplog.records if "empty sentences" in r.getMessage()]
    assert [r.getMessage() for r in warned] == ["skipped 1 empty sentences"] * 2
    layout = Layout(sample_config.output_root)
    for model in sample_config.models:
        counters = read_manifest(layout.batches(model.model_id)).params["counters"]
        assert counters["batch_skipped_empty"] == 1


def _file_stats(directory):
    return {
        p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
        for p in sorted(directory.iterdir())
    }


def test_batch_build_rebuilds_only_the_models_whose_inputs_changed(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_batch_build(sample_config)
    kept, changed = sample_config.models
    for model in sample_config.models:
        batch_dir = layout.batches(model.model_id)
        (batch_dir / "cca.results.jsonl").write_text("{}\n")
        (batch_dir / "cca.state.json").write_text('{"provider": "stub", "done": true}')
    kept_dir, changed_dir = (layout.batches(m.model_id) for m in (kept, changed))
    before = _file_stats(kept_dir)
    changed_inputs = read_manifest(changed_dir).inputs

    sample_config.models[1] = ModelSpec(changed.model_id, "groq-batch")
    run_batch_build(sample_config)
    assert _file_stats(kept_dir) == before  # saved results and state kept too
    assert not (changed_dir / "cca.results.jsonl").exists()
    assert not (changed_dir / "cca.state.json").exists()
    rebuilt = read_manifest(changed_dir).inputs
    assert rebuilt["model"] != changed_inputs["model"]
    assert {k: v for k, v in rebuilt.items() if k != "model"} == {
        k: v for k, v in changed_inputs.items() if k != "model"
    }
    assert sorted(p.name for p in (sample_config.output_root / "batches").iterdir()) == sorted(
        m.model_id for m in sample_config.models
    )


def test_batch_build_failing_on_the_second_model_keeps_every_previous_batch(
    sample_config, monkeypatch
):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    second = sample_config.models[1].model_id
    untouched = stages.batch_mod.build_batch_file

    def failing(corpus, template_id, model_id, counters=None):
        if model_id == second:
            raise RuntimeError("crash while building the second model")
        return untouched(corpus, template_id, model_id, counters)

    monkeypatch.setattr(stages.batch_mod, "build_batch_file", failing)
    with pytest.raises(RuntimeError):
        run_batch_build(sample_config)
    assert not (sample_config.output_root / "batches").exists()  # none made, none left

    monkeypatch.setattr(stages.batch_mod, "build_batch_file", untouched)
    run_batch_build(sample_config)
    before = {m.model_id: _file_stats(layout.batches(m.model_id)) for m in sample_config.models}
    _extract_with_extra_cca_sentences(sample_config, ["A new sentence for both models."])
    monkeypatch.setattr(stages.batch_mod, "build_batch_file", failing)
    with pytest.raises(RuntimeError):
        run_batch_build(sample_config)
    after = {m.model_id: _file_stats(layout.batches(m.model_id)) for m in sample_config.models}
    assert after == before
    batches = sample_config.output_root / "batches"
    assert sorted(p.name for p in batches.iterdir()) == sorted(before)  # no .tmp sibling


def test_classify_keeps_saved_results_whole_at_unicode_line_separators(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_batch_build(sample_config)
    model = "gpt-4o-mini"
    batch_dir = layout.batches(model)
    reply = '{"Religious": "Yes", "Certainty": "80%", "Argumentation": "a\u2028b\x85c"}'
    ids = [row["custom_id"] for row in read_jsonl(batch_dir / "cca.jsonl")]
    results = [
        {"custom_id": sid, "response": {"body": {"choices": [{"message": {"content": reply}}]}}}
        for sid in ids
    ]
    (batch_dir / "cca.results.jsonl").write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in results), encoding="utf-8"
    )
    (batch_dir / "cca.state.json").write_text(json.dumps({"provider": "stub", "done": True}))
    run_classify(sample_config, stub=True, only_model=model)
    verdicts = list(read_jsonl(layout.labels_model(model) / "cca.jsonl"))
    assert [v["label"] for v in verdicts] == ["yes"] * len(ids)
    assert verdicts[0]["argumentation"] == "a\u2028b\x85c"


def test_classify_records_verdict_counters_per_file(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    with open(layout.corpus / "cca.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(SentenceRecord.make("extra", "cca", 0, "").to_dict()) + "\n")
    run_batch_build(sample_config)  # skips the empty sentence
    model = "gpt-4o-mini"
    run_classify(sample_config, stub=True, only_model=model)
    labels = layout.labels_model(model)
    counters = read_manifest(labels).params["counters"]
    for path in sorted(labels.glob("*.jsonl")):
        verdicts = list(read_jsonl(path))
        ngo = path.stem
        assert counters[f"verdicts:{ngo}"] == len(verdicts)
        assert counters[f"malformed:{ngo}"] == sum(v["label"] == "malformed" for v in verdicts)
        assert counters[f"missing:{ngo}"] == (1 if ngo == "cca" else 0)
        assert counters[f"reused:{ngo}"] == 0
    assert counters["verdicts:cca"] == 6 and counters["malformed:cca"] == 1
    inputs = read_manifest(labels).inputs

    run_classify(sample_config, stub=True, only_model=model, strict_json=True)
    counters = read_manifest(labels).params["counters"]  # every file read back
    assert {k: v for k, v in counters.items() if k.startswith("reused:")} == {
        f"reused:{path.stem}": 1 for path in labels.glob("*.jsonl")
    }
    assert counters["missing:cca"] == 1
    assert set(read_manifest(labels).inputs) == set(inputs)


MALFORMED_REPLIES = {
    "no_json": "I cannot tell from one sentence.",
    "bad_json": '{"Religious": "Yes", "Certainty": "80%", "Argumentation": "cut',
    "bad_religious": '{"Religious": "Maybe", "Certainty": "80%", "Argumentation": "a"}',
    "bad_certainty": '{"Religious": "Yes", "Certainty": "high", "Argumentation": "a"}',
    "bad_argumentation": '{"Religious": "Yes", "Certainty": "80%"}',
}


class MalformedRepliesProvider:
    """Stub answers, except that the first request sent goes unanswered and
    the next five each get a reply of one malformed shape."""

    def __init__(self):
        self.shapes = iter([("missing", None), *MALFORMED_REPLIES.items()])
        self.reasons: dict[str, str] = {}  # custom_id -> the reason its verdict must give

    def run_batch(self, lines, state=None, state_save=None):
        out = []
        for line in lines:
            reason, reply = next(self.shapes, (None, None))
            if reason is None:
                out += StubProvider().run_batch([line])
                continue
            custom_id = json.loads(line)["custom_id"]
            self.reasons[custom_id] = reason
            if reply is not None:
                body = {"choices": [{"message": {"content": reply}}]}
                out.append(json.dumps({"custom_id": custom_id, "response": {"body": body}}))
        return out


def test_classify_rows_name_the_malformed_reason_and_count_each(sample_config, monkeypatch):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_batch_build(sample_config)
    model = "gpt-4o-mini"
    provider = MalformedRepliesProvider()
    monkeypatch.setattr(stages.providers_mod, "get_provider", lambda name: provider)
    run_classify(sample_config, only_model=model)
    assert sorted(provider.reasons.values()) == sorted(REASONS)

    labels = layout.labels_model(model)
    counters = read_manifest(labels).params["counters"]
    for path in sorted(labels.glob("*.jsonl")):
        ngo = path.stem
        rows = list(read_jsonl(path))
        for row in rows:
            assert list(row) == ["sentence_id", "label", "certainty", "argumentation", "reason"]
            assert row["reason"] == provider.reasons.get(row["sentence_id"])
            assert (row["label"] == "malformed") == (row["reason"] is not None)
        for reason in REASONS:  # zeros included
            assert counters[f"{reason}:{ngo}"] == sum(row["reason"] == reason for row in rows)
        assert counters[f"malformed:{ngo}"] == sum(row["label"] == "malformed" for row in rows)
        assert counters[f"malformed:{ngo}"] == sum(counters[f"{r}:{ngo}"] for r in REASONS)
    assert sum(v for k, v in counters.items() if k.startswith("missing:")) == 1


class LoneSurrogateProvider:
    """Answers yes to every request, with a lone surrogate in the
    argumentation: escaped in the reply, or escaped in the result line so
    that the reply holds it raw."""

    def run_batch(self, lines, state=None, state_save=None):
        out = []
        for i, line in enumerate(lines):
            argumentation = '"\\ud800 broken"' if i % 2 else '"\ud800 broken"'
            reply = f'{{"Religious": "Yes", "Certainty": "90%", "Argumentation": {argumentation}}}'
            body = {"choices": [{"message": {"content": reply}}]}
            out.append(json.dumps({"custom_id": json.loads(line)["custom_id"], "response": {"body": body}}))
        return out


def test_a_lone_surrogate_argumentation_is_malformed_and_its_saved_results_reread(
    sample_config, monkeypatch
):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_batch_build(sample_config)
    model = "gpt-4o-mini"
    monkeypatch.setattr(stages.providers_mod, "get_provider", lambda name: LoneSurrogateProvider())
    run_classify(sample_config, only_model=model)
    labels = layout.labels_model(model)
    first = {path.name: path.read_bytes() for path in labels.glob("*.jsonl")}
    rows = [row for path in sorted(labels.glob("*.jsonl")) for row in read_jsonl(path)]
    assert len(rows) > 2
    assert {row["reason"] for row in rows} <= {"bad_argumentation", "missing"}
    assert sum(row["reason"] == "bad_argumentation" for row in rows) >= 2

    # the next run reads the saved results back, and they classify alike
    shutil.rmtree(labels)
    provider = FlakyProvider()
    monkeypatch.setattr(stages.providers_mod, "get_provider", lambda name: provider)
    run_classify(sample_config, only_model=model)
    assert provider.sent == []
    assert {path.name: path.read_bytes() for path in labels.glob("*.jsonl")} == first


def test_classify_rewrites_an_old_format_labels_directory_from_saved_results(
    sample_config, monkeypatch
):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_batch_build(sample_config)
    model = "gpt-4o-mini"
    run_classify(sample_config, stub=True, only_model=model)
    labels = layout.labels_model(model)
    fresh = {path.name: path.read_bytes() for path in labels.glob("*.jsonl")}

    # the directory as the row format before reasons wrote it: each row
    # copied the model id and the raw reply, and no input named the format
    for path in labels.glob("*.jsonl"):
        replies = parse_result_lines(
            stages._read_lines(layout.batches(model) / f"{path.stem}.results.jsonl")
        )
        old = [
            {
                "sentence_id": row["sentence_id"], "model_id": model, "label": row["label"],
                "certainty": row["certainty"], "argumentation": row["argumentation"],
                "raw_text": replies[row["sentence_id"]],
            }
            for row in read_jsonl(path)
        ]
        path.write_text("".join(json.dumps(row) + "\n" for row in old))
    manifest = json.loads((labels / "manifest.json").read_text())
    del manifest["inputs"]["row_version"], manifest["params"]["row_version"]
    (labels / "manifest.json").write_text(json.dumps(manifest))

    provider = FlakyProvider()
    monkeypatch.setattr(stages.providers_mod, "get_provider", lambda name: provider)
    run_classify(sample_config, stub=True, only_model=model)
    assert provider.sent == []  # read back from the results files, not sent again
    counters = read_manifest(labels).params["counters"]
    assert {k: v for k, v in counters.items() if k.startswith("reused:")} == {
        f"reused:{name.removesuffix('.jsonl')}": 1 for name in fresh
    }
    assert {path.name: path.read_bytes() for path in labels.glob("*.jsonl")} == fresh


def test_read_lines_splits_at_newline_only(tmp_path):
    path = tmp_path / "lines.jsonl"
    for text in ["", "\n", "a\n\nb\n", "a\r\nb\rc\x85d\n\n", "last line open", "x\u2028y\u2029z\n"]:
        path.write_bytes(text.encode("utf-8"))
        assert list(stages._read_lines(path)) == [ln for ln in text.split("\n") if ln]


def test_classify_rerun_hashes_no_saved_results(sample_config, monkeypatch):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_batch_build(sample_config)
    run_classify(sample_config, stub=True)
    assert list(layout.batches("gpt-4o-mini").glob("*.results.jsonl"))
    hashed = []
    untouched = stages.sha256_file

    def recording(path):
        hashed.append(str(path))
        return untouched(path)

    monkeypatch.setattr(stages, "sha256_file", recording)
    run_classify(sample_config, stub=True)  # short-circuits
    assert any(p.endswith("/batches/gpt-4o-mini/cca.jsonl") for p in hashed)
    assert not [p for p in hashed if p.endswith(".results.jsonl")]


def _switch_provider(config, provider_name):
    """Configure every model on provider_name, as an edit of the config file does."""
    config.models = [dataclasses.replace(m, provider=provider_name) for m in config.models]


class FlakyProvider:
    """Stub answers, with a provider failure on one call."""

    def __init__(self, fail_on_call=None):
        self.sent: list[list[str]] = []
        self.states: list[dict] = []
        self.fail_on_call = fail_on_call

    def run_batch(self, lines, state=None, state_save=None):
        lines = list(lines)
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

    def classify_with(provider):
        monkeypatch.setattr(stages.providers_mod, "get_provider", lambda name: provider)
        run_classify(sample_config, only_model=model)

    with pytest.raises(ProviderError):  # cca done, greenfaith fails
        classify_with(FlakyProvider(fail_on_call=2))
    resumed = FlakyProvider()
    classify_with(resumed)
    assert len(resumed.sent) == 3
    assert cca_lines not in resumed.sent
    labels = (layout.labels_model(model) / "cca.jsonl").read_text().splitlines()
    assert len(labels) == len(cca_lines)

    other = FlakyProvider()  # another provider's results are not reused
    _switch_provider(sample_config, "openai-batch")
    classify_with(other)
    assert len(other.sent) == 4


def test_classify_refuses_batches_built_from_an_older_corpus(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_match(sample_config)
    run_batch_build(sample_config)
    run_classify(sample_config, stub=True)
    labels = {
        path: (path.read_bytes(), path.stat().st_mtime_ns)
        for path in (layout.root / "labels").rglob("*")
        if path.is_file()
    }
    [doc] = DocumentStore(layout.raw).iter_ngo("cca")
    DocumentStore(layout.raw).append(  # a second cca page, harvested later
        RawDocument.make(doc.ngo_id, doc.url + "?page=2", doc.status, doc.content_type, doc.body)
    )
    run_extract(sample_config)
    assert len((layout.corpus / "cca.jsonl").read_text().splitlines()) > 5

    # the labels are current for the old batches, so without the check
    # classify would short-circuit
    with pytest.raises(PrerequisiteError, match=r"'gpt-4o-mini'.*sacreddetect batch-build"):
        run_classify(sample_config, stub=True)
    assert labels == {
        path: (path.read_bytes(), path.stat().st_mtime_ns)
        for path in (layout.root / "labels").rglob("*")
        if path.is_file()
    }
    run_batch_build(sample_config)
    run_classify(sample_config, stub=True)


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
    _switch_provider(sample_config, "groq-batch")
    run_classify(sample_config, only_model=model)
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
        _switch_provider(sample_config, provider_name)
        with pytest.raises(ProviderError):
            run_classify(sample_config, only_model=model)
        return provider.states[-1]

    assert classify("openai-batch") == {}
    state_path = layout.batches(model) / "cca.state.json"
    saved = {"provider": "openai-batch", "batch_id": "batch_1"}
    assert json.loads(state_path.read_text()) == saved
    assert classify("openai-batch") == {"batch_id": "batch_1"}  # resumed
    assert classify("groq-batch") == {}  # not handed to another provider


def _count_reads(monkeypatch, owner):
    """Record every path owner.read_jsonl opens."""
    read = []
    untouched = owner.read_jsonl

    def recording(path, *args):
        read.append(path)
        return untouched(path, *args)

    monkeypatch.setattr(owner, "read_jsonl", recording)
    return read


def test_classify_reads_each_corpus_file_once_for_all_models(sample_config, monkeypatch):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_batch_build(sample_config)
    read = _count_reads(monkeypatch, stages)
    run_classify(sample_config, stub=True)
    assert len(sample_config.models) == 2
    corpus_files = sorted(layout.corpus.glob("*.jsonl"))
    assert sorted(p for p in read if p.parent == layout.corpus) == corpus_files
    for model in sample_config.models:
        labels = layout.labels_model(model.model_id)
        assert sorted(p.name for p in labels.glob("*.jsonl")) == [p.name for p in corpus_files]


def test_classify_failing_on_the_second_model_keeps_every_model_labels(
    sample_config, monkeypatch
):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_batch_build(sample_config)
    run_classify(sample_config, stub=True)
    before = {m.model_id: _file_stats(layout.labels_model(m.model_id)) for m in sample_config.models}
    _extract_with_extra_cca_sentences(sample_config, ["A new sentence for both models."])
    run_batch_build(sample_config)
    first, second = (m.model_id for m in sample_config.models)
    cca_first = (layout.batches(first) / "cca.jsonl").read_text().splitlines()

    def classify_with(provider):
        monkeypatch.setattr(stages.providers_mod, "get_provider", lambda name: provider)
        run_classify(sample_config)

    with pytest.raises(ProviderError):  # cca done for the first model, failed for the second
        classify_with(FlakyProvider(fail_on_call=2))
    after = {m.model_id: _file_stats(layout.labels_model(m.model_id)) for m in sample_config.models}
    assert after == before
    assert sorted(p.name for p in (layout.root / "labels").iterdir()) == sorted(before)

    resumed = FlakyProvider()
    classify_with(resumed)
    assert len(resumed.sent) == 7  # all but the first model's cca
    assert cca_first not in resumed.sent
    for model_id in (first, second):
        labels = (layout.labels_model(model_id) / "cca.jsonl").read_text().splitlines()
        assert len(labels) == 6


def test_classify_checks_every_model_before_sending(sample_config, monkeypatch):
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_batch_build(sample_config)
    _extract_with_extra_cca_sentences(sample_config, ["A sentence the second model never saw."])
    models = sample_config.models
    sample_config.models = models[:1]
    run_batch_build(sample_config)  # the first model's batches only
    sample_config.models = models
    provider = FlakyProvider()
    monkeypatch.setattr(stages.providers_mod, "get_provider", lambda name: provider)
    with pytest.raises(PrerequisiteError, match=rf"{models[1].model_id!r}.*batch-build"):
        run_classify(sample_config)
    assert provider.sent == []
    assert not (sample_config.output_root / "labels").exists()


def test_extract_reads_each_raw_file_once_with_a_stale_index(sample_config, monkeypatch):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    (layout.raw / "index.json").unlink()  # as after a harvest that crashed
    read = _count_reads(monkeypatch, store_mod)
    run_extract(sample_config)
    assert sorted(read) == sorted(layout.raw.glob("*.jsonl"))
    assert not (layout.raw / "index.json").exists()


def test_analyze_refuses_a_tree_label_file_that_repeats_a_sentence_id(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_match(sample_config)
    labels = layout.labels_tree / "icsd.jsonl"
    first = labels.read_text().splitlines()[0]
    with open(labels, "a", encoding="utf-8") as fh:
        fh.write(first + "\n")
    sentence_id = json.loads(first)["sentence_id"]
    n_rows = len(labels.read_text().splitlines())
    with pytest.raises(
        CoverageError, match=rf"icsd\.jsonl: line {n_rows}: sentence id {sentence_id} is past the end"
    ):
        run_analyze(sample_config, tree_only=True)
    assert not layout.analysis.exists()


def test_analyze_reruns_when_groups_phrases_or_model_order_change(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_match(sample_config)
    run_batch_build(sample_config)
    run_classify(sample_config, stub=True)
    run_analyze(sample_config)
    stats = lambda: json.loads((layout.analysis / "stats.json").read_text())  # noqa: E731
    provenance = stats()["provenance"]
    assert "secular_total" not in stats()["scopes"]

    sample_config.sources = [
        dataclasses.replace(s, group="secular") if s.ngo_id == "cca" else s
        for s in sample_config.sources
    ]
    run_analyze(sample_config)  # extract not re-run
    bundle = stats()
    assert "secular_total" in bundle["scopes"]
    assert {row["ngo_id"]: row["group"] for row in bundle["corpus"]}["cca"] == "secular"

    sample_config.report_phrases = ("holy spirit",)
    run_analyze(sample_config)
    assert list(stats()["terms"]) == ["holy spirit"]

    sample_config.models = sample_config.models[::-1]
    run_analyze(sample_config)
    bundle = stats()
    model_ids = [m.model_id for m in sample_config.models]
    assert bundle["classifiers"] == ["tree", *model_ids]
    assert bundle["ratio_pair"] == model_ids
    # the bundle cites the same label and corpus files throughout
    assert bundle["provenance"] == provenance


def test_a_group_flip_leaves_extract_alone_and_reaches_table_1(sample_config):
    layout = Layout(sample_config.output_root)
    stages_in_order = [
        lambda: run_harvest(sample_config, sample=True),
        lambda: run_extract(sample_config),
        lambda: run_match(sample_config),
        lambda: run_analyze(sample_config, tree_only=True),
        lambda: run_report(sample_config),
    ]
    for run in stages_in_order:
        run()
    manifest = layout.corpus / "manifest.json"
    before = (manifest.stat().st_ino, manifest.read_bytes())
    assert "| cca | religious |" in (layout.reports / "table1.md").read_text()

    sample_config.sources = [
        dataclasses.replace(s, group="secular") if s.ngo_id == "cca" else s
        for s in sample_config.sources
    ]
    for run in stages_in_order[1:]:
        run()
    assert (manifest.stat().st_ino, manifest.read_bytes()) == before  # extract was a no-op
    assert "| cca | secular |" in (layout.reports / "table1.md").read_text()


def test_analyze_without_a_corpus_manifest_names_extract(sample_config):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    run_extract(sample_config)
    run_match(sample_config)
    (layout.corpus / "manifest.json").unlink()
    with pytest.raises(PrerequisiteError, match="sacreddetect extract"):
        run_analyze(sample_config, tree_only=True)
    assert not layout.analysis.exists()


DUTCH = (
    "De aarde warmt op en de zeespiegel stijgt, maar er is nog steeds hoop "
    "voor de toekomst. Nederlandse organisaties werken al jaren samen met "
    "boeren, vissers en gemeenten om de natuur te beschermen."
)


def test_extract_filters_one_ngo_at_a_time_and_leaves_out_an_ngo_with_none_kept(
    sample_config, monkeypatch
):
    layout = Layout(sample_config.output_root)
    run_harvest(sample_config, sample=True)
    (layout.raw / "ien.jsonl").unlink()
    store = DocumentStore(layout.raw)
    page = "<html><body><main><p>{}</p></main></body></html>"
    for url, status, content_type, body in [
        ("https://www.ienearth.org/gone", 404, "text/html", b""),
        ("https://www.ienearth.org/report.pdf", 200, "application/pdf", b"%PDF-1.7"),
        ("https://www.ienearth.org/nl", 200, "text/html", page.format(DUTCH).encode()),
    ]:
        store.append(RawDocument.make("ien", url, status, content_type, body))
    calls = []
    untouched = stages.filter_corpus

    def spy(docs, counters=None):
        calls.append([doc.ngo_id for doc in docs])
        return untouched(docs, counters)

    monkeypatch.setattr(stages, "filter_corpus", spy)
    run_extract(sample_config)

    # the sample has one page per NGO; ien's only page that reaches the
    # filter is the Dutch one
    assert calls == [["cca"], ["greenfaith"], ["icsd"], ["ien"]]
    assert sorted(p.name for p in layout.corpus.glob("*.jsonl")) == [
        "cca.jsonl", "greenfaith.jsonl", "icsd.jsonl"
    ]
    counters = read_manifest(layout.corpus).params["counters"]
    assert [k for k, v in counters.items() if k.startswith("documents:") and v] == [
        "documents:cca", "documents:greenfaith", "documents:icsd"
    ]
    assert counters["documents:ien"] == counters["sentences:ien"] == 0
    assert counters["dropped_non_english:ien"] == 1
    assert counters["skipped_failed_fetch"] == counters["skipped_pdf"] == 1

