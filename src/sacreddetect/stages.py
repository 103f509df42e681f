"""Stage implementations behind the CLI: harvest, extract, match,
batch-build, classify, analyze, report.

Stages communicate only through files under the output root, each stage
directory carrying a manifest (see manifest.py). Every derived directory is
produced by _produce: re-running a stage whose inputs are unchanged is a
no-op, and otherwise the stage builds a fresh sibling directory and swaps
it in whole, so no file of an earlier run survives and a crash leaves the
previous complete output. Running a stage before its prerequisites raises
PrerequisiteError naming the command to run. One stage executes per output
root at a time, enforced with a lock file.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import shutil
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import requests

from .analytics import matrix as matrix_mod
from .analytics import reports as reports_mod
from .analytics.consistency import duplicate_consistency
from .analytics.stats import disagreement_ratios, group_rates, pairwise_agreement
from .analytics.terms import term_report
from .config import PipelineConfig
from .errors import (
    CdxParseError,
    ConfigError,
    PrerequisiteError,
    ProviderError,
    StageLockedError,
)
from .harvest import cdx, fetch, worklist
from .harvest.store import DocumentStore, RawDocument
from .hashing import sha256_bytes, sha256_file, sha256_text
from .jsonlio import read_jsonl, write_json, write_jsonl, write_text
from .judge import batch as batch_mod
from .judge import providers as providers_mod
from .judge.prompts import prompt_hash
from .judge.verdicts import Verdict
from .lexicon.matcher import classify_corpus, compile_matcher, yes_rate_summary
from .lexicon.tree import lexicon_to_json, load_lexicon
from .manifest import MANIFEST_NAME, RunManifest, is_current, read_manifest, write_manifest
from .textpipe.corpus import (
    CleanDocument,
    SentenceRecord,
    build_sentence_corpus,
    corpus_summary,
    filter_corpus,
)
from .textpipe.htmltext import extract_main_text
from .textpipe.langid import detect_language
from .textpipe.sentences import SPLITTER_VERSION

log = logging.getLogger(__name__)

STAGES = ("harvest", "extract", "match", "batch-build", "classify", "analyze", "report")

SAMPLE_PAGES = {
    "cca": "https://christianclimateaction.org/2021/08/26/following-christ-to-prison-pt-1/",
    "greenfaith": "https://greenfaith.org/press-release-body-soul-against-eacop-2/page/2/?et_blog",
    "ien": "https://www.ienearth.org/?p=2075",
    "icsd": "https://interfaithsustain.com/?p=15296",
}
SAMPLE_FETCHED_AT = datetime(2024, 8, 28, tzinfo=timezone.utc)
SAMPLE_SNAPSHOT_TS = "20240828000000"


class Layout:
    """Directory layout under one output root."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def raw(self) -> Path:
        return self.root / "raw"

    @property
    def corpus(self) -> Path:
        return self.root / "corpus"

    @property
    def labels_tree(self) -> Path:
        return self.root / "labels" / "tree"

    def labels_model(self, model_id: str) -> Path:
        return self.root / "labels" / model_id

    def batches(self, model_id: str) -> Path:
        return self.root / "batches" / model_id

    @property
    def analysis(self) -> Path:
        return self.root / "analysis"

    @property
    def reports(self) -> Path:
        return self.root / "reports"


@contextmanager
def stage_lock(root: Path):
    """One stage execution per output root; stale locks from dead processes
    are stolen."""
    root.mkdir(parents=True, exist_ok=True)
    lock_path = root / ".lock"
    if lock_path.is_file():
        try:
            pid = int(lock_path.read_text().strip())
            os.kill(pid, 0)
        except (ValueError, ProcessLookupError):
            lock_path.unlink(missing_ok=True)  # stale
        except PermissionError:
            raise StageLockedError(f"output root is locked by pid in {lock_path}") from None
        else:
            raise StageLockedError(
                f"another stage (pid {pid}) is running on this output root"
            )
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:  # another process created it since the check
        raise StageLockedError(f"another stage took the lock {lock_path} first") from None
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        lock_path.unlink(missing_ok=True)


def _hash_dir_files(directory: Path, pattern: str = "*.jsonl") -> dict[str, str]:
    return {
        p.name: sha256_file(p) for p in sorted(directory.glob(pattern)) if p.is_file()
    }


def _require_manifest(directory: Path, producing_command: str) -> RunManifest:
    manifest = read_manifest(directory)
    if manifest is None:
        raise PrerequisiteError(
            f"missing outputs under {directory}; run `sacreddetect {producing_command}` first"
        )
    return manifest


def _produce(stage: str, out_dir: Path, inputs: dict[str, str], build, adopt: bool = True) -> None:
    """Produce out_dir unless its manifest already matches inputs.

    build(tmp) writes the outputs into an empty sibling directory and
    returns the manifest params; the manifest goes in last and the sibling
    replaces out_dir whole. A build that raises leaves out_dir untouched.
    A non-empty out_dir without a manifest is replaced only with adopt (a
    stage directory under the output root); otherwise it may be a user's
    directory, and it is refused.
    """
    if is_current(out_dir, inputs):
        log.info("%s: %s is up to date", stage, out_dir)
        return
    if not adopt and read_manifest(out_dir) is None and any(out_dir.glob("*")):
        raise ConfigError(f"{out_dir} is not empty and has no {MANIFEST_NAME}; not replacing it")
    started = datetime.now(timezone.utc).isoformat()
    tmp, old = (out_dir.with_name(f".{out_dir.name}.{suffix}") for suffix in ("tmp", "old"))
    for leftover in (tmp, old):  # left by a killed run
        shutil.rmtree(leftover, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        write_manifest(tmp, stage, inputs, build(tmp), started)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if out_dir.exists():
        out_dir.rename(old)
    tmp.rename(out_dir)
    shutil.rmtree(old, ignore_errors=True)


def _sources_fingerprint(config: PipelineConfig) -> str:
    payload = json.dumps(
        [
            [s.ngo_id, s.group, s.base_url, s.from_year, s.to_year]
            for s in config.sources
        ]
    )
    return sha256_text(payload)


# --- harvest ----------------------------------------------------------------


def run_harvest(config: PipelineConfig, resume: bool = True, sample: bool = False) -> None:
    layout = Layout(config.output_root)
    with stage_lock(layout.root):
        if sample:
            _harvest_sample(config, layout)
        else:
            _harvest_live(config, layout, resume=resume)


def _harvest_sample(config: PipelineConfig, layout: Layout) -> None:
    started = datetime.now(timezone.utc).isoformat()
    data = resources.files("sacreddetect").joinpath("data", "sample")
    inputs = {"sources": _sources_fingerprint(config)}
    pages: dict[str, bytes] = {}
    for spec in config.sources:
        if spec.ngo_id not in SAMPLE_PAGES:
            log.warning("no bundled sample page for %s; skipped", spec.ngo_id)
            continue
        body = data.joinpath(f"{spec.ngo_id}.html").read_bytes()
        pages[spec.ngo_id] = body
        inputs[f"sample/{spec.ngo_id}.html"] = sha256_bytes(body)
    if is_current(layout.raw, inputs):
        log.info("harvest: up to date")
        return
    store = DocumentStore(layout.raw)
    for ngo_id, body in pages.items():
        url = SAMPLE_PAGES[ngo_id]
        if store.has_url(url):
            continue
        store.append(
            RawDocument.make(
                ngo_id=ngo_id,
                url=url,
                status=200,
                content_type="text/html; charset=utf-8",
                body=body,
                fetched_at=SAMPLE_FETCHED_AT,
                snapshot_ts=SAMPLE_SNAPSHOT_TS,
            )
        )
    store.flush_index()
    write_manifest(layout.raw, "harvest", inputs, {"mode": "sample"}, started)
    log.info("harvest: installed %d sample documents", len(pages))


def _harvest_live(config: PipelineConfig, layout: Layout, resume: bool) -> None:
    started = datetime.now(timezone.utc).isoformat()
    store = DocumentStore(layout.raw)
    session = fetch.make_session()
    gate = fetch.HostGate(config.policy.rate_per_host)
    robots = fetch.RobotsCache(session, timeout=config.policy.timeout)
    totals: Counter = Counter()

    def harvest_one(spec) -> Counter:
        counters: Counter = Counter()
        query = cdx.build_cdx_query(spec)
        log.info("harvest %s: querying CDX index", spec.ngo_id)
        try:
            resp = session.get(query, timeout=max(config.policy.timeout, 60.0))
            resp.raise_for_status()
            records = cdx.parse_cdx_response(resp.text, counters)
        except (requests.RequestException, CdxParseError) as exc:
            log.error("harvest %s: CDX query failed: %s", spec.ngo_id, exc)
            counters["cdx_failed"] = 1
            return counters
        urls = worklist.derive_worklist(records, counters)
        snapshots = cdx.snapshot_timestamps(records)
        log.info("harvest %s: %d snapshot records, %d live URLs", spec.ngo_id, len(records), len(urls))
        counters.update(
            fetch.harvest_source(
                spec, urls, snapshots, store, config.policy, session, gate, robots, resume
            )
        )
        return counters

    # One worker per source: sources are distinct hosts, so this is the
    # per-host serial queue, and the HostGate still guards any shared host.
    with ThreadPoolExecutor(max_workers=max(1, len(config.sources))) as pool:
        for counters in pool.map(harvest_one, config.sources):
            totals.update(counters)
    store.flush_index()
    inputs = {"sources": _sources_fingerprint(config)}
    inputs.update(_hash_dir_files(layout.raw))
    write_manifest(
        layout.raw,
        "harvest",
        inputs,
        {"mode": "live", "policy": vars(config.policy), "counters": dict(totals)},
        started,
    )
    log.info("harvest: %s", dict(totals))


# --- extract ----------------------------------------------------------------


def run_extract(config: PipelineConfig) -> None:
    layout = Layout(config.output_root)
    with stage_lock(layout.root):
        _require_manifest(layout.raw, "harvest")
        # only the configured sources: a dropped source's raw file stays in
        # the append-only store but must leave the corpus
        ngo_ids = sorted(
            s.ngo_id for s in config.sources if (layout.raw / f"{s.ngo_id}.jsonl").is_file()
        )
        inputs = {f"{n}.jsonl": sha256_file(layout.raw / f"{n}.jsonl") for n in ngo_ids}
        inputs.update({f"group/{s.ngo_id}": sha256_text(s.group) for s in config.sources})
        inputs["splitter_version"] = sha256_text(SPLITTER_VERSION)

        def build(out: Path) -> dict:
            store = DocumentStore(layout.raw)
            counters: Counter = Counter()
            docs: list[CleanDocument] = []

            def torn_line(path: Path, lineno: int) -> None:
                # the remains of a crashed append; its document was fetched
                # again and stored on a later line
                counters["skipped_torn_line"] += 1
                log.warning("extract: skipped undecodable line %d of %s", lineno, path)

            for ngo_id in ngo_ids:
                seen: set[str] = set()
                for raw_doc in store.iter_ngo(ngo_id, torn_line):
                    if raw_doc.doc_id in seen:
                        # the same (url, body) appended twice, as by a harvest
                        # resumed before its index was flushed
                        counters["skipped_duplicate_doc"] += 1
                        continue
                    seen.add(raw_doc.doc_id)
                    if not raw_doc.ok or not raw_doc.body:
                        counters["skipped_failed_fetch"] += 1
                        continue
                    ctype = raw_doc.content_type.lower()
                    if "pdf" in ctype or raw_doc.body.startswith(b"%PDF"):
                        # Stored for a future extractor; not text-extracted here.
                        counters["skipped_pdf"] += 1
                        continue
                    text = extract_main_text(raw_doc.body, counters)
                    if text:
                        lang, confidence = detect_language(text)
                    else:
                        lang, confidence = "en", 0.0
                    docs.append(
                        CleanDocument(
                            doc_id=raw_doc.doc_id, ngo_id=raw_doc.ngo_id, text=text,
                            lang=lang, lang_confidence=confidence,
                        )
                    )

            kept = filter_corpus(docs, counters)
            records = build_sentence_corpus(kept)
            by_ngo: dict[str, list[SentenceRecord]] = {}
            for rec in records:
                by_ngo.setdefault(rec.ngo_id, []).append(rec)
            for ngo_id in sorted({d.ngo_id for d in kept}):
                write_jsonl(out / f"{ngo_id}.jsonl", (r.to_dict() for r in by_ngo.get(ngo_id, [])))
            summary = corpus_summary(kept, records, config.groups())
            _write_summary_csv(out / "summary.csv", summary)
            log.info("extract: %d documents -> %d sentences (%s)",
                     len(kept), len(records), dict(counters))
            return {"splitter_version": SPLITTER_VERSION, "counters": dict(counters)}

        _produce("extract", layout.corpus, inputs, build)


def _write_summary_csv(path: Path, summary: list[dict]) -> None:
    header = ["ngo_id", "group", "n_documents", "n_sentences"]
    rows = [header] + [[row[h] for h in header] for row in summary]
    out = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    write_text(path, out)


def load_corpus(layout: Layout, ngo_id: str | None = None) -> list[SentenceRecord]:
    records = []
    paths = (
        [layout.corpus / f"{ngo_id}.jsonl"]
        if ngo_id
        else sorted(layout.corpus.glob("*.jsonl"))
    )
    for path in paths:
        if path.is_file():
            records.extend(SentenceRecord.from_dict(row) for row in read_jsonl(path))
    return records


# --- match ------------------------------------------------------------------


def run_match(
    config: PipelineConfig,
    lexicon_path: Path | None = None,
    corpus_dir: Path | None = None,
    out_dir: Path | None = None,
) -> None:
    """Staged match over the pipeline corpus, or ad-hoc over explicit dirs."""
    layout = Layout(config.output_root)
    src = corpus_dir or layout.corpus
    dst = out_dir or layout.labels_tree
    with stage_lock(layout.root):
        if corpus_dir is None:
            _require_manifest(layout.corpus, "extract")
        elif not any(src.glob("*.jsonl")):
            raise PrerequisiteError(f"no corpus files (*.jsonl) under {src}")
        lexicon_file = lexicon_path or config.lexicon_path
        inputs = _hash_dir_files(src)
        inputs["lexicon"] = sha256_file(lexicon_file)

        def build(out: Path) -> dict:
            lexicon = load_lexicon(lexicon_file)
            matcher = compile_matcher(lexicon)
            write_text(out / "lexicon.json", lexicon_to_json(lexicon))  # canonical export
            for path in sorted(src.glob("*.jsonl")):
                corpus = [SentenceRecord.from_dict(row) for row in read_jsonl(path)]
                results = classify_corpus(matcher, corpus)
                write_jsonl(out / path.name, (r.to_dict() for r in results))
                for ngo_id, entry in yes_rate_summary(corpus, results).items():
                    log.info(
                        "match %s: %d/%d yes (%.1f%%)",
                        ngo_id, entry["yes"], entry["n"], entry["pct_yes"],
                    )
            return {"lexicon": str(lexicon_file), "patterns": matcher.pattern_count}

        _produce("match", dst, inputs, build, adopt=out_dir is None)


# --- batch-build ------------------------------------------------------------


def run_batch_build(config: PipelineConfig) -> None:
    layout = Layout(config.output_root)
    with stage_lock(layout.root):
        _require_manifest(layout.corpus, "extract")
        corpus_inputs = _hash_dir_files(layout.corpus)
        for model in config.models:
            inputs = dict(corpus_inputs)
            inputs["prompt"] = prompt_hash(config.prompt_template)
            inputs["model"] = sha256_text(f"{model.model_id}|{model.provider}")

            def build(out: Path) -> dict:
                counters: Counter = Counter()
                for path in sorted(layout.corpus.glob("*.jsonl")):
                    corpus = [SentenceRecord.from_dict(row) for row in read_jsonl(path)]
                    lines = batch_mod.build_batch_file(
                        corpus, config.prompt_template, model.model_id, counters
                    )
                    write_text(out / path.name, "\n".join(lines) + ("\n" if lines else ""))
                log.info("batch-build %s: done", model.model_id)
                return {"template": config.prompt_template, "counters": dict(counters)}

            _produce("batch-build", layout.batches(model.model_id), inputs, build)


# --- classify ---------------------------------------------------------------


def run_classify(
    config: PipelineConfig,
    stub: bool = False,
    only_model: str | None = None,
    provider_override: str | None = None,
    strict_json: bool = False,
) -> None:
    layout = Layout(config.output_root)
    with stage_lock(layout.root):
        models = [m for m in config.models if only_model in (None, m.model_id)]
        if not models:
            raise ConfigError(f"no configured model matches {only_model!r}")
        for model in models:
            batch_dir = layout.batches(model.model_id)
            batch_manifest = _require_manifest(batch_dir, "batch-build")
            provider_name = "stub" if stub else (provider_override or model.provider)
            provider = providers_mod.get_provider(provider_name)
            inputs = {
                name: digest
                for name, digest in _hash_dir_files(batch_dir).items()
                if not name.endswith(".results.jsonl")
            }
            inputs["provider"] = sha256_text(provider_name)
            inputs["strict_json"] = sha256_text(str(strict_json))

            def build(out: Path) -> dict:
                # Submission state and raw results live beside the batch
                # files they belong to; re-running batch-build discards them.
                for path in sorted(batch_dir.glob("*.jsonl")):
                    if path.name.endswith(".results.jsonl"):
                        continue
                    ngo_id = path.stem
                    corpus = load_corpus(layout, ngo_id)
                    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln]
                    state_path = batch_dir / f"{ngo_id}.state.json"
                    results_path = batch_dir / f"{ngo_id}.results.jsonl"
                    state = (
                        json.loads(state_path.read_text(encoding="utf-8"))
                        if state_path.is_file()
                        else {}
                    )
                    owner = state.pop("provider", None)
                    if state and owner != provider_name:
                        # a batch id means nothing to another provider
                        log.warning(
                            "classify %s/%s: ignoring submission state of provider %r",
                            model.model_id, ngo_id, owner,
                        )
                        state = {}
                    save_state = lambda s: write_text(  # noqa: E731
                        state_path, json.dumps({"provider": provider_name, **s})
                    )
                    if state == {"done": True} and results_path.is_file():
                        # finished by this provider in a run that failed on a
                        # later file: read back, not sent (and paid for) again
                        raw_lines = results_path.read_text(encoding="utf-8").splitlines()
                    else:
                        if state.get("done"):  # its results file is gone
                            state = {}
                        try:
                            raw_lines = provider.run_batch(lines, state=state, state_save=save_state)
                        except ProviderError:
                            if state:
                                save_state(state)
                                log.error(
                                    "classify %s/%s: provider failed; submission state saved, "
                                    "re-run to resume", model.model_id, ngo_id,
                                )
                            raise
                        write_text(results_path, "\n".join(raw_lines) + ("\n" if raw_lines else ""))
                        save_state({"done": True})
                    results = providers_mod.parse_result_lines(raw_lines)
                    verdicts = providers_mod.join_verdicts(
                        corpus, results, model.model_id, strict_json=strict_json
                    )
                    write_jsonl(out / f"{ngo_id}.jsonl", (v.to_dict() for v in verdicts))
                    log.info(
                        "classify %s/%s: %d verdicts, %d malformed", model.model_id, ngo_id,
                        len(verdicts), sum(v.label == "malformed" for v in verdicts),
                    )
                return {
                    "provider": provider_name,
                    "model_id": model.model_id,
                    # the prompt the batch lines carry, as batch-build recorded it
                    "template": batch_manifest.params["template"],
                    "prompt_sha256": batch_manifest.inputs["prompt"],
                    "strict_json": strict_json,
                    # No decoding parameters are sent; the provider's own
                    # defaults apply and that fact is the record.
                    "decoding": "provider-defaults",
                }

            _produce("classify", layout.labels_model(model.model_id), inputs, build)


# --- analyze ----------------------------------------------------------------


def _load_tree_results(layout: Layout) -> dict[str, str]:
    """sentence_id -> tree label, over every labels/tree file."""
    return {
        row["sentence_id"]: row["label"]
        for path in sorted(layout.labels_tree.glob("*.jsonl"))
        for row in read_jsonl(path)
    }


def _load_verdicts(layout: Layout, model_id: str) -> list[Verdict]:
    verdicts = []
    for path in sorted(layout.labels_model(model_id).glob("*.jsonl")):
        verdicts.extend(Verdict.from_dict(row) for row in read_jsonl(path))
    return verdicts


def run_analyze(config: PipelineConfig, tree_only: bool = False) -> None:
    layout = Layout(config.output_root)
    with stage_lock(layout.root):
        _require_manifest(layout.labels_tree, "match")
        model_ids = [] if tree_only else [m.model_id for m in config.models]
        for model_id in model_ids:
            if read_manifest(layout.labels_model(model_id)) is None:
                raise PrerequisiteError(
                    f"no verdicts for model {model_id!r}; run `sacreddetect classify` "
                    "first (or pass --tree-only)"
                )
        inputs = {f"tree/{k}": v for k, v in _hash_dir_files(layout.labels_tree).items()}
        inputs.update(
            {f"corpus/{k}": v for k, v in _hash_dir_files(layout.corpus).items()}
        )
        for model_id in model_ids:
            inputs.update(
                {
                    f"{model_id}/{k}": v
                    for k, v in _hash_dir_files(layout.labels_model(model_id)).items()
                }
            )

        def build(out: Path) -> dict:
            verdict_sets = {}
            argumentation: dict[str, dict[str, str]] = {}
            for model_id in model_ids:
                verdicts = _load_verdicts(layout, model_id)
                verdict_sets[model_id] = {v.sentence_id: v.label for v in verdicts}
                argumentation[model_id] = {
                    v.sentence_id: v.argumentation
                    for v in verdicts
                    if v.argumentation is not None
                }

            matrix = matrix_mod.tabulate(
                load_corpus(layout), _load_tree_results(layout), verdict_sets, config.groups()
            )
            bundle = {
                "corpus": _read_summary_csv(layout.corpus / "summary.csv"),
                # explicit presentation order: stats.json is written with
                # sorted keys, so key order cannot carry it
                "classifiers": list(matrix.classifiers),
                "scopes": list(matrix.scopes()),
                "rates": group_rates(matrix),
                "agreement": pairwise_agreement(matrix),
                "terms": {
                    phrase: term_report(matrix, phrase, argumentation)
                    for phrase in config.report_phrases
                },
                "consistency": duplicate_consistency(matrix),
                "provenance": inputs,
            }
            if len(model_ids) >= 2:
                bundle["ratio_pair"] = model_ids[:2]
                bundle["disagreement_ratios"] = disagreement_ratios(matrix)
            write_json(out / "stats.json", bundle)
            log.info("analyze: %d rows, %d classifiers", len(matrix.sentence_ids), len(matrix.classifiers))
            return {"models": model_ids}

        _produce("analyze", layout.analysis, inputs, build)


def _read_summary_csv(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            {
                "ngo_id": row["ngo_id"],
                "group": row["group"],
                "n_documents": int(row["n_documents"]),
                "n_sentences": int(row["n_sentences"]),
            }
            for row in csv.DictReader(fh)
        ]


# --- report -----------------------------------------------------------------


def run_report(config: PipelineConfig) -> None:
    layout = Layout(config.output_root)
    with stage_lock(layout.root):
        _require_manifest(layout.analysis, "analyze")
        stats_path = layout.analysis / "stats.json"

        def build(out: Path) -> dict:
            bundle = json.loads(stats_path.read_text(encoding="utf-8"))
            written = reports_mod.render_from_bundle(out, bundle)
            log.info("report: wrote %d files", len(written))
            return {}

        _produce("report", layout.reports, {"stats.json": sha256_file(stats_path)}, build)
