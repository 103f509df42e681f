"""Analyze's lockstep pass: alignment of the per-NGO files, and the stats
bundle against the column matrix it replaced."""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import ColumnMatrix, column_duplicate_consistency, column_term_report
from sacreddetect import stages
from sacreddetect.analytics.stats import disagreement_ratios, group_rates, pairwise_agreement
from sacreddetect.config import (
    FetchPolicy,
    ModelSpec,
    PipelineConfig,
    SourceSpec,
    sample_config_path,
    validate_config,
)
from sacreddetect.errors import CoverageError, PrerequisiteError
from sacreddetect.manifest import write_manifest
from sacreddetect.stages import Layout, run_analyze


@pytest.fixture(scope="module")
def classified(tmp_path_factory):
    """The sample pipeline's output root, run up to classify once."""
    config = validate_config(sample_config_path())
    config.output_root = tmp_path_factory.mktemp("classified") / "run"
    stages.run_harvest(config, sample=True)
    stages.run_extract(config)
    stages.run_match(config)
    stages.run_batch_build(config)
    stages.run_classify(config, stub=True)
    return config.output_root


@pytest.fixture()
def sample(classified, tmp_path):
    """A copy of the classified sample run: its config and layout."""
    config = validate_config(sample_config_path())
    config.output_root = tmp_path / "run"
    shutil.copytree(classified, config.output_root)
    return config, Layout(config.output_root)


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def test_analyze_label_readers_yield_rows_in_file_order(sample, tmp_path):
    config, layout = sample
    model_id = config.models[0].model_id
    corpus = [sid for sid, _ in stages.load_corpus(layout.corpus / "cca.jsonl")]
    tree = list(stages._load_tree_results(layout.labels_tree / "cca.jsonl"))
    verdicts = list(stages._load_verdicts(layout.labels_model(model_id) / "cca.jsonl"))
    assert len(corpus) == 5
    assert [sid for sid, _ in tree] == [sid for sid, _, _ in verdicts] == corpus
    assert {label for _, label in tree} <= {"yes", "no"}

    odd = tmp_path / "odd.jsonl"
    odd.write_text(
        json.dumps({"sentence_id": "s1", "label": "maybe", "argumentation": None}) + "\n"
        + json.dumps({"sentence_id": "s2", "label": "no", "argumentation": "none found"}) + "\n"
    )
    assert list(stages._load_verdicts(odd)) == [("s1", "maybe", None), ("s2", "no", "none found")]


@pytest.mark.parametrize("which", ["tree", "model"])
@pytest.mark.parametrize(
    "defect, message",
    [
        ("swapped", r"cca\.jsonl: line 1: sentence id \w+, where .*cca\.jsonl has sentence id \w+"),
        ("short", r"cca\.jsonl: no line 5; .*cca\.jsonl has sentence id \w+ there"),
        ("long", r"cca\.jsonl: line 6: sentence id \w+ is past the end of .*cca\.jsonl"),
    ],
)
def test_analyze_refuses_a_misaligned_label_file(sample, which, defect, message):
    config, layout = sample
    model_id = config.models[1].model_id
    directory = layout.labels_tree if which == "tree" else layout.labels_model(model_id)
    path = directory / "cca.jsonl"
    lines = _lines(path)
    if defect == "swapped":
        lines[0], lines[1] = lines[1], lines[0]
    elif defect == "short":
        lines.pop()
    else:
        lines.append(lines[0])
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(CoverageError, match=rf"{directory.name}/{message}"):
        run_analyze(config)
    assert not layout.analysis.exists()


def test_analyze_refuses_a_missing_model_label_file(sample):
    config, layout = sample
    path = layout.labels_model(config.models[0].model_id) / "icsd.jsonl"
    path.unlink()
    with pytest.raises(CoverageError, match=rf"{path}: missing; .*corpus/icsd\.jsonl"):
        run_analyze(config)


def test_analyze_refuses_a_label_file_without_a_corpus_file(sample):
    config, layout = sample
    (layout.corpus / "icsd.jsonl").unlink()
    config.models = []
    with pytest.raises(CoverageError, match=r"tree/icsd\.jsonl: labels of no corpus file"):
        run_analyze(config)


def test_analyze_refuses_one_sentence_id_in_two_ngos(sample):
    config, layout = sample
    sentence_id = json.loads(_lines(layout.corpus / "cca.jsonl")[0])["sentence_id"]
    models = [layout.labels_model(m.model_id) for m in config.models]
    for directory in [layout.corpus, layout.labels_tree, *models]:
        with open(directory / "ien.jsonl", "a", encoding="utf-8") as fh:
            fh.write(_lines(directory / "cca.jsonl")[0])
    with pytest.raises(CoverageError, match=rf"sentence id {sentence_id} occurs more than once"):
        run_analyze(config)


def test_analyze_refuses_an_ngo_the_config_no_longer_names(sample):
    config, layout = sample
    config.sources = [s for s in config.sources if s.ngo_id != "icsd"]
    message = r"'icsd' is not a configured source; run `sacreddetect extract`"
    with pytest.raises(PrerequisiteError, match=message):
        run_analyze(config)
    assert not layout.analysis.exists()


# --- the bundle against the column matrix ----------------------------------------

# words rather than phrases, so that the whitespace inside a phrase varies
FRAGMENTS = [
    "Mother", "mother", "EARTH", "earth", "earth", "sacred", "sacredearth", "grandmother",
    "ubuntu", "Σ", "ΟΔΟΣ", "İstanbul", "İ", "x", "-", "(", "’", "1",
]
SPACES = [" ", "  ", "\t", "\n", "\u00a0", "\u0085", "\u2003"]
PHRASES = ["mother earth", "sacred earth", "ubuntu", "earth", "σ", "İstanbul", "οδος"]


@st.composite
def corpora(draw):
    """Per-NGO rows over a few texts that differ in whitespace runs only,
    with 1-3 models, malformed labels and optional argumentation."""
    models = [f"m{k}" for k in range(draw(st.integers(1, 3)))]
    base = st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=4)
    bases = draw(st.lists(base, min_size=1, max_size=6))
    space = st.sampled_from(SPACES)
    ngos = {}
    for n in range(draw(st.integers(1, 3))):
        rows = []
        for _ in range(draw(st.integers(0, 14))):
            words = draw(st.sampled_from(bases))
            edges = draw(st.sampled_from(["", " ", "\u00a0", "\u0085 "]))
            text = edges + "".join(w + draw(space) for w in words[:-1]) + words[-1] + edges[::-1]
            labels = [draw(st.sampled_from(["yes", "no"]))]
            labels += [draw(st.sampled_from(["yes", "no", "malformed"])) for _ in models]
            reasons = [draw(st.sampled_from([None, "scripture", "Σ ends"])) for _ in models]
            rows.append((text, labels, reasons))
        ngos[f"ngo{n}"] = (draw(st.sampled_from(["secular", "religious"])), rows)
    phrases = draw(st.lists(st.sampled_from(PHRASES), unique=True, min_size=1, max_size=4))
    return models, ngos, phrases


def _write_run(root: Path, models, ngos) -> tuple[ColumnMatrix, dict]:
    """Writes corpus and label files under root; returns them as columns,
    with model_id -> {sentence_id -> argumentation}."""
    layout = Layout(root)
    label_dirs = [layout.labels_tree, *map(layout.labels_model, models)]
    for directory in [layout.corpus, *label_dirs]:
        directory.mkdir(parents=True)
    columns = ColumnMatrix([], [], [], {}, {c: [] for c in ["tree", *models]})
    argumentation = {m: {} for m in models}
    for ngo, (group, rows) in ngos.items():
        columns.groups[ngo] = group
        lines: list[list[str]] = [[] for _ in range(1 + len(label_dirs))]
        for i, (text, labels, reasons) in enumerate(rows):
            sentence_id = f"{ngo}-{i}"
            record = {"sentence_id": sentence_id, "ngo_id": ngo, "text": text}
            lines[0].append(json.dumps(record, ensure_ascii=False) + "\n")
            for k, label in enumerate(labels):
                row = {"sentence_id": sentence_id, "label": label}
                if k:
                    row["argumentation"] = reasons[k - 1]
                    if reasons[k - 1] is not None:
                        argumentation[models[k - 1]][sentence_id] = reasons[k - 1]
                lines[1 + k].append(json.dumps(row) + "\n")
            columns.sentence_ids.append(sentence_id)
            columns.ngo_ids.append(ngo)
            columns.texts.append(text)
            for classifier, label in zip(columns.labels, labels):
                columns.labels[classifier].append(label)
        for directory, chunk in zip([layout.corpus, *label_dirs], lines):
            (directory / f"{ngo}.jsonl").write_text("".join(chunk), encoding="utf-8")
    write_manifest(layout.corpus, "extract", {})
    for directory in label_dirs:
        write_manifest(directory, "match", {})
    return columns, argumentation


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora())
def test_stats_json_equals_the_column_matrix_bundle(corpus):
    models, ngos, phrases = corpus
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "run"
        columns, argumentation = _write_run(root, models, ngos)
        config = PipelineConfig(
            sources=[
                SourceSpec(ngo, group, f"{ngo}.example.org", 2014, 2024)
                for ngo, (group, _) in ngos.items()
            ],
            models=[ModelSpec(m, "stub") for m in models],
            policy=FetchPolicy(),
            lexicon_path=Path(tmp) / "unused.tree",
            prompt_template="revised",
            output_root=root,
            report_phrases=tuple(phrases),
        )
        run_analyze(config)
        got = (root / "analysis" / "stats.json").read_text(encoding="utf-8")

    want = {
        "corpus": [],
        "classifiers": list(columns.classifiers),
        "scopes": list(columns.scopes()),
        "rates": group_rates(columns),
        "agreement": pairwise_agreement(columns),
        "terms": {p: column_term_report(columns, p, argumentation) for p in phrases},
        "consistency": column_duplicate_consistency(columns),
        "provenance": json.loads(got)["provenance"],
    }
    if len(models) >= 2:
        want["ratio_pair"] = models[:2]
        want["disagreement_ratios"] = disagreement_ratios(columns)
    assert got == json.dumps(want, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
