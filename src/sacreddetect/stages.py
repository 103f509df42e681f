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

import json
import logging
import os
import shutil
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from itertools import takewhile, zip_longest
from pathlib import Path
from typing import Iterator

from .analytics import matrix as matrix_mod
from .analytics import reports as reports_mod
from .analytics.matrix import Row
from .analytics.consistency import duplicate_consistency
from .analytics.stats import disagreement_ratios, group_rates, pairwise_agreement
from .analytics.terms import term_report
from .config import PipelineConfig
from .errors import (
    CdxParseError,
    ConfigError,
    CoverageError,
    PrerequisiteError,
    ProviderError,
    StageLockedError,
)
from .harvest import cdx, worklist
from .harvest.store import DocumentStore, RawDocument
from .hashing import sha256_bytes, sha256_file, sha256_text
from .jsonlio import read_jsonl, write_json, write_jsonl, write_text
from .judge import batch as batch_mod
from .judge import providers as providers_mod
from .judge.prompts import prompt_hash
from .judge.verdicts import REASONS, VERDICT_ROW_VERSION
from .lexicon.matcher import classify_corpus, compile_matcher
from .lexicon.tree import lexicon_to_json, load_lexicon
from .manifest import RunManifest, is_current, read_manifest, write_manifest
from .textpipe.corpus import CleanDocument, build_sentence_corpus, filter_corpus
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


def _missing_dirs(path: Path) -> list[Path]:
    """The directories mkdir(parents=True) would create for path, nearest first."""
    return list(takewhile(lambda p: not p.exists(), [path, *path.parents]))


def _remove_while_empty(dirs: list[Path]) -> None:
    for directory in dirs:
        try:
            directory.rmdir()
        except OSError:
            break


@contextmanager
def stage_lock(root: Path):
    """One stage execution per output root; stale locks from dead processes
    are stolen. A stage that raises leaves behind none of the directories
    the lock created for the root, while they are empty."""
    made = _missing_dirs(root)
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
    except BaseException:
        lock_path.unlink(missing_ok=True)
        _remove_while_empty(made)
        raise
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


def _sibling(out_dir: Path, suffix: str) -> Path:
    return out_dir.with_name(f".{out_dir.name}.{suffix}")


def _produce(stage: str, outputs: dict[Path, dict[str, str]], build) -> None:
    """Produce each output directory unless its manifest already matches
    its inputs; outputs maps each directory to its inputs.

    The hidden siblings a killed run left beside any output directory go
    first, whether or not the directory is current. build(tmps) gets a
    dict from each stale directory to an empty sibling directory, writes
    that directory's outputs into the sibling, and returns a dict from each
    stale directory to its manifest params. Each manifest goes in last, and
    then each sibling replaces its directory whole; a directory that is up
    to date is left untouched. A build that raises leaves every directory
    untouched and removes the siblings and the parent directories this
    call made, while they are empty.
    """
    stale = {}
    for out_dir, inputs in outputs.items():
        for leftover in (_sibling(out_dir, "tmp"), _sibling(out_dir, "old")):
            shutil.rmtree(leftover, ignore_errors=True)
        if is_current(out_dir, inputs):
            log.info("%s: %s is up to date", stage, out_dir)
        else:
            stale[out_dir] = inputs
    if not stale:
        return
    started = datetime.now(timezone.utc).isoformat()
    tmps = {out_dir: _sibling(out_dir, "tmp") for out_dir in stale}
    made: list[list[Path]] = []
    try:
        for tmp in tmps.values():
            made.append(_missing_dirs(tmp.parent))
            tmp.mkdir(parents=True)
        params = build(tmps)
        for out_dir, tmp in tmps.items():
            write_manifest(tmp, stage, stale[out_dir], params[out_dir], started)
    except BaseException:
        for tmp in tmps.values():
            shutil.rmtree(tmp, ignore_errors=True)
        for dirs in reversed(made):  # a later sibling's parents sit below an earlier one's
            _remove_while_empty(dirs)
        raise
    for out_dir, tmp in tmps.items():
        old = _sibling(out_dir, "old")
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


def run_harvest(config: PipelineConfig, sample: bool = False) -> None:
    layout = Layout(config.output_root)
    with stage_lock(layout.root):
        if sample:
            _harvest_sample(config, layout)
        else:
            _harvest_live(config, layout)


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


def _harvest_live(config: PipelineConfig, layout: Layout) -> None:
    # the network stack loads here, so that no offline command pays for it
    import requests

    from .harvest import fetch

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
                spec, urls, snapshots, store, config.policy, session, gate, robots
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
        inputs["splitter_version"] = sha256_text(SPLITTER_VERSION)

        def build(tmps: dict[Path, Path]) -> dict[Path, dict]:
            out = tmps[layout.corpus]
            store = DocumentStore(layout.raw)
            counters: Counter = Counter()

            def torn_line(path: Path, lineno: int) -> None:
                # the remains of a crashed append; its document was fetched
                # again and stored on a later line
                counters["skipped_torn_line"] += 1
                log.warning("extract: skipped undecodable line %d of %s", lineno, path)

            # one source at a time, so memory is bounded by the largest NGO
            for ngo_id in ngo_ids:
                docs: list[CleanDocument] = []
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
                if kept:
                    write_jsonl(out / f"{ngo_id}.jsonl", (r.to_dict() for r in records))
                counters[f"documents:{ngo_id}"] = len(kept)
                counters[f"sentences:{ngo_id}"] = len(records)
                log.info(
                    "extract %s: %d documents -> %d sentences", ngo_id, len(kept), len(records)
                )
                del docs, kept, records  # freed before the next source is read
            params = {"splitter_version": SPLITTER_VERSION, "counters": dict(counters)}
            return {layout.corpus: params}

        _produce("extract", {layout.corpus: inputs}, build)


# --- match ------------------------------------------------------------------


def load_corpus(path: Path) -> Iterator[tuple[str, str]]:
    """(sentence_id, text) of each row of one corpus file, in file order:
    all that match, batch-build, classify and analyze read of the corpus."""
    for row in read_jsonl(path):
        yield row["sentence_id"], row["text"]


def run_match(config: PipelineConfig) -> None:
    layout = Layout(config.output_root)
    with stage_lock(layout.root):
        _require_manifest(layout.corpus, "extract")
        inputs = _hash_dir_files(layout.corpus)
        inputs["lexicon"] = sha256_file(config.lexicon_path)

        def build(tmps: dict[Path, Path]) -> dict[Path, dict]:
            out = tmps[layout.labels_tree]
            lexicon = load_lexicon(config.lexicon_path)
            matcher = compile_matcher(lexicon)
            write_text(out / "lexicon.json", lexicon_to_json(lexicon))  # canonical export
            counters: Counter = Counter()
            for path in sorted(layout.corpus.glob("*.jsonl")):
                results = classify_corpus(matcher, load_corpus(path))
                write_jsonl(out / path.name, (r.to_dict() for r in results))
                # a corpus file holds one NGO's sentences
                yes = sum(r.label == "yes" for r in results)
                counters[f"yes:{path.stem}"] = yes
                counters[f"sentences:{path.stem}"] = len(results)
                log.info(
                    "match %s: %d/%d yes (%.1f%%)", path.stem, yes, len(results),
                    100.0 * yes / len(results) if results else 0.0,
                )
            return {
                layout.labels_tree: {
                    "lexicon": str(config.lexicon_path),
                    "patterns": matcher.pattern_count,
                    "counters": dict(counters),
                }
            }

        _produce("match", {layout.labels_tree: inputs}, build)


# --- batch-build ------------------------------------------------------------


def run_batch_build(config: PipelineConfig) -> None:
    layout = Layout(config.output_root)
    with stage_lock(layout.root):
        _require_manifest(layout.corpus, "extract")
        corpus_inputs = _hash_dir_files(layout.corpus)
        models = {layout.batches(model.model_id): model for model in config.models}
        outputs = {
            out_dir: {
                **corpus_inputs,
                "prompt": prompt_hash(config.prompt_template),
                "model": sha256_text(f"{model.model_id}|{model.provider}"),
            }
            for out_dir, model in models.items()
        }

        def build(tmps: dict[Path, Path]) -> dict[Path, dict]:
            counters = {out_dir: Counter() for out_dir in tmps}
            for path in sorted(layout.corpus.glob("*.jsonl")):
                # decoded once for every stale model
                corpus = list(load_corpus(path))
                for out_dir, tmp in tmps.items():
                    lines = batch_mod.build_batch_file(
                        corpus, config.prompt_template, models[out_dir].model_id, counters[out_dir]
                    )
                    dest = tmp / path.name
                    write_text(dest, (line + "\n" for line in lines))
                    sizes = {"requests": len(lines), "bytes": dest.stat().st_size}
                    del lines  # freed before the next model's lines are built
                    for key, value in sizes.items():
                        counters[out_dir][f"{key}:{path.stem}"] = value
                    over = {k: v for k, v in sizes.items() if v > batch_mod.BATCH_LIMIT[k]}
                    if over:
                        log.warning(
                            "batch-build: %s holds %s, over the provider's per-batch limit %s",
                            out_dir / path.name, over, batch_mod.BATCH_LIMIT,
                        )
            for out_dir in tmps:
                log.info("batch-build %s: done", models[out_dir].model_id)
            return {
                out_dir: {"template": config.prompt_template, "counters": dict(model_counters)}
                for out_dir, model_counters in counters.items()
            }

        _produce("batch-build", outputs, build)


# --- classify ---------------------------------------------------------------


def _request_files(batch_dir: Path) -> list[Path]:
    """The batch files of a batch directory, without the results saved beside them."""
    return [
        p for p in sorted(batch_dir.glob("*.jsonl"))
        if p.is_file() and not p.name.endswith(".results.jsonl")
    ]


def _read_lines(path: Path) -> Iterator[str]:
    # only "\n" ends a line: JSON strings may hold U+2028, U+0085 and the
    # like raw, and str.splitlines would break at them
    with open(path, encoding="utf-8", newline="\n") as fh:
        yield from (ln.removesuffix("\n") for ln in fh if ln != "\n")


def run_classify(
    config: PipelineConfig,
    stub: bool = False,
    only_model: str | None = None,
    strict_json: bool = False,
) -> None:
    layout = Layout(config.output_root)
    with stage_lock(layout.root):
        models = [m for m in config.models if only_model in (None, m.model_id)]
        if not models:
            raise ConfigError(f"no configured model matches {only_model!r}")
        corpus_inputs = _hash_dir_files(layout.corpus)
        jobs: dict[Path, _ClassifyJob] = {}
        outputs: dict[Path, dict[str, str]] = {}
        for model in models:
            batch_dir = layout.batches(model.model_id)
            batch_manifest = _require_manifest(batch_dir, "batch-build")
            built_from = {
                name: digest
                for name, digest in batch_manifest.inputs.items()
                if name.endswith(".jsonl")
            }
            if built_from != corpus_inputs:
                # verdicts joined on the new corpus's ids would count its new
                # sentences as missing and drop its removed ones unseen
                raise PrerequisiteError(
                    f"batches for model {model.model_id!r} were built from an older "
                    "corpus; run `sacreddetect batch-build` first"
                )
            provider_name = "stub" if stub else model.provider
            job = _ClassifyJob(
                model_id=model.model_id,
                provider_name=provider_name,
                provider=providers_mod.get_provider(provider_name),
                request_files={p.name: p for p in _request_files(batch_dir)},
                params={
                    "provider": provider_name,
                    "model_id": model.model_id,
                    # the prompt the batch lines carry, as batch-build recorded it
                    "template": batch_manifest.params["template"],
                    "prompt_sha256": batch_manifest.inputs["prompt"],
                    "strict_json": strict_json,
                    "row_version": VERDICT_ROW_VERSION,
                    # No decoding parameters are sent; the provider's own
                    # defaults apply and that fact is the record.
                    "decoding": "provider-defaults",
                },
            )
            labels_dir = layout.labels_model(model.model_id)
            jobs[labels_dir] = job
            outputs[labels_dir] = {
                **{name: sha256_file(p) for name, p in job.request_files.items()},
                "provider": sha256_text(provider_name),
                "strict_json": sha256_text(str(strict_json)),
                # rows of an older shape are rewritten from the saved results
                "row_version": sha256_text(VERDICT_ROW_VERSION),
            }

        def build(tmps: dict[Path, Path]) -> dict[Path, dict]:
            counters = {labels_dir: Counter() for labels_dir in tmps}
            names = sorted({name for labels_dir in tmps for name in jobs[labels_dir].request_files})
            for name in names:
                # one NGO's ids at a time, decoded once for every stale model
                corpus_path = layout.corpus / name
                sentence_ids = (
                    [sentence_id for sentence_id, _ in load_corpus(corpus_path)]
                    if corpus_path.is_file()
                    else []
                )
                for labels_dir, tmp in tmps.items():
                    job = jobs[labels_dir]
                    path = job.request_files.get(name)
                    if path is None:
                        continue
                    counts = _classify_file(job, path, sentence_ids, tmp, strict_json)
                    for key, value in counts.items():
                        counters[labels_dir][f"{key}:{path.stem}"] = value
            return {
                labels_dir: {**jobs[labels_dir].params, "counters": dict(model_counters)}
                for labels_dir, model_counters in counters.items()
            }

        _produce("classify", outputs, build)


@dataclass
class _ClassifyJob:
    """One model's classify run: its provider, its batch files by name and
    its manifest params but the counters."""

    model_id: str
    provider_name: str
    provider: providers_mod.BatchProvider
    request_files: dict[str, Path]
    params: dict


def _classify_file(
    job: _ClassifyJob, path: Path, sentence_ids: list[str], out: Path, strict_json: bool
) -> dict[str, int]:
    """Classify one batch file into out, returning its verdict counts: the
    malformed ones in total and by reason, zeros included.

    Submission state and raw results live beside the batch file they belong
    to; re-running batch-build discards them.
    """
    ngo_id = path.stem
    state_path = path.with_name(f"{ngo_id}.state.json")
    results_path = path.with_name(f"{ngo_id}.results.jsonl")
    state = json.loads(state_path.read_text(encoding="utf-8")) if state_path.is_file() else {}
    owner = state.pop("provider", None)
    if state and owner != job.provider_name:
        # a batch id means nothing to another provider
        log.warning(
            "classify %s/%s: ignoring submission state of provider %r",
            job.model_id, ngo_id, owner,
        )
        state = {}
    save_state = lambda s: write_text(  # noqa: E731
        state_path, json.dumps({"provider": job.provider_name, **s})
    )
    reused = state == {"done": True} and results_path.is_file()
    if reused:
        # finished by this provider in a run that failed on a later file:
        # read back, not sent (and paid for) again
        raw_lines = _read_lines(results_path)
    else:
        if state.get("done"):  # its results file is gone
            state = {}
        try:
            raw_lines = job.provider.run_batch(_read_lines(path), state=state, state_save=save_state)
        except ProviderError:
            if state:
                save_state(state)
                log.error(
                    "classify %s/%s: provider failed; submission state saved, "
                    "re-run to resume", job.model_id, ngo_id,
                )
            raise
        write_text(results_path, (line + "\n" for line in raw_lines))
        save_state({"done": True})
    results = providers_mod.parse_result_lines(raw_lines)
    verdicts = providers_mod.join_verdicts(sentence_ids, results, strict_json=strict_json)
    write_jsonl(out / f"{ngo_id}.jsonl", (v.to_dict() for v in verdicts))
    reasons = Counter(v.reason for v in verdicts)
    counts = {
        "verdicts": len(verdicts),
        "malformed": len(verdicts) - reasons[None],
        **{reason: reasons[reason] for reason in REASONS},
        "reused": int(reused),
    }
    log.info(
        "classify %s/%s: %d verdicts, %d malformed", job.model_id, ngo_id,
        counts["verdicts"], counts["malformed"],
    )
    return counts


# --- analyze ----------------------------------------------------------------


def _load_tree_results(path: Path) -> Iterator[tuple[str, str]]:
    """(sentence_id, label) of each row of one labels/tree file."""
    for row in read_jsonl(path):
        yield row["sentence_id"], row["label"]


def _load_verdicts(path: Path) -> Iterator[tuple[str, str, str | None]]:
    """(sentence_id, label, argumentation) of each row of one model's labels file."""
    for row in read_jsonl(path):
        yield row["sentence_id"], row["label"], row.get("argumentation")


def _label_paths(
    layout: Layout, model_ids: list[str], groups: dict[str, str]
) -> dict[Path, list[Path]]:
    """Each corpus file -> its labels/tree file, then one labels file per
    model. Refuses a corpus file of an NGO the config does not name, and
    a labels file missing or without a corpus file."""
    corpus_paths = sorted(layout.corpus.glob("*.jsonl"))
    label_dirs = [layout.labels_tree, *map(layout.labels_model, model_ids)]
    for path in corpus_paths:
        if path.stem not in groups:
            raise PrerequisiteError(
                f"{path}: {path.stem!r} is not a configured source; "
                "run `sacreddetect extract` to rebuild the corpus from the configured sources"
            )
    names = {path.name for path in corpus_paths}
    for directory in label_dirs:
        for path in sorted(directory.glob("*.jsonl")):
            if path.name not in names:
                raise CoverageError(
                    f"{path}: labels of no corpus file ({layout.corpus / path.name})"
                )
    out = {}
    for path in corpus_paths:
        out[path] = [directory / path.name for directory in label_dirs]
        for label_path in out[path]:
            if not label_path.is_file():
                raise CoverageError(f"{label_path}: missing; {path} has no labels there")
    return out


def _aligned_rows(corpus_path: Path, label_paths: list[Path]) -> Iterator[Row]:
    """One NGO's rows, read from its corpus file and its label files in
    lockstep. Row by row, every file must hold the same sentence id;
    otherwise, or when a file ends early or late, CoverageError names the
    file and the line."""
    ngo_id = corpus_path.stem  # a corpus file holds one NGO's sentences
    readers = [
        load_corpus(corpus_path),
        _load_tree_results(label_paths[0]),
        *map(_load_verdicts, label_paths[1:]),
    ]
    for line, (record, *labelled) in enumerate(zip_longest(*readers), 1):
        sentence_id = record and record[0]
        for label_path, row in zip(label_paths, labelled):
            if (row and row[0]) != sentence_id:
                raise CoverageError(_misaligned(label_path, row, corpus_path, sentence_id, line))
        yield (
            ngo_id,
            sentence_id,
            record[1],
            tuple(row[1] for row in labelled),
            tuple(row[2] for row in labelled[1:]),
        )


def _misaligned(label_path: Path, row, corpus_path: Path, sentence_id, line: int) -> str:
    if row is None:
        return f"{label_path}: no line {line}; {corpus_path} has sentence id {sentence_id} there"
    if sentence_id is None:
        return f"{label_path}: line {line}: sentence id {row[0]} is past the end of {corpus_path}"
    return (
        f"{label_path}: line {line}: sentence id {row[0]}, "
        f"where {corpus_path} has sentence id {sentence_id}"
    )


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
        # table 1's counts, as extract recorded them
        extracted = _require_manifest(layout.corpus, "extract").params.get("counters", {})
        corpus_counts = {
            key: value
            for key, value in extracted.items()
            if key.startswith(("documents:", "sentences:"))
        }
        provenance = {f"tree/{k}": v for k, v in _hash_dir_files(layout.labels_tree).items()}
        provenance.update(
            {f"corpus/{k}": v for k, v in _hash_dir_files(layout.corpus).items()}
        )
        for model_id in model_ids:
            provenance.update(
                {
                    f"{model_id}/{k}": v
                    for k, v in _hash_dir_files(layout.labels_model(model_id)).items()
                }
            )
        # the stats depend on these too, but the provenance the reports cite
        # names only the corpus and label files
        inputs = {
            **provenance,
            "groups": sha256_text(json.dumps(config.groups(), sort_keys=True)),
            "models": sha256_text(json.dumps(model_ids)),
            "report_phrases": sha256_text(json.dumps(config.report_phrases)),
            "corpus_counts": sha256_text(json.dumps(corpus_counts, sort_keys=True)),
        }

        def build(tmps: dict[Path, Path]) -> dict[Path, dict]:
            groups = config.groups()
            label_paths = _label_paths(layout, model_ids, groups)
            rows = (
                row for path, paths in label_paths.items() for row in _aligned_rows(path, paths)
            )
            matrix = matrix_mod.tabulate(
                rows, ["tree", *model_ids], groups, config.report_phrases
            )
            bundle = {
                "corpus": _table1_rows(corpus_counts, groups),
                # explicit presentation order: stats.json is written with
                # sorted keys, so key order cannot carry it
                "classifiers": list(matrix.classifiers),
                "scopes": list(matrix.scopes()),
                "rates": group_rates(matrix),
                "agreement": pairwise_agreement(matrix),
                "terms": {phrase: term_report(matrix, phrase) for phrase in config.report_phrases},
                "consistency": duplicate_consistency(matrix),
                "provenance": provenance,
            }
            if len(model_ids) >= 2:
                bundle["ratio_pair"] = model_ids[:2]
                bundle["disagreement_ratios"] = disagreement_ratios(matrix)
            write_json(tmps[layout.analysis] / "stats.json", bundle)
            log.info(
                "analyze: %d rows, %d classifiers",
                sum(matrix.joint_counts.values()), len(matrix.classifiers),
            )
            return {layout.analysis: {"models": model_ids}}

        _produce("analyze", {layout.analysis: inputs}, build)


def _table1_rows(corpus_counts: dict[str, int], groups: dict[str, str]) -> list[dict]:
    """Table 1's rows: one per NGO extract kept documents of, in key
    order, each NGO's group taken from groups, as the scopes take it."""
    return [
        {
            "ngo_id": ngo_id,
            "group": groups[ngo_id],
            "n_documents": n_documents,
            "n_sentences": corpus_counts[f"sentences:{ngo_id}"],
        }
        for key, n_documents in sorted(corpus_counts.items())
        if key.startswith("documents:") and n_documents > 0
        for ngo_id in [key.removeprefix("documents:")]
    ]


# --- report -----------------------------------------------------------------


def run_report(config: PipelineConfig) -> None:
    layout = Layout(config.output_root)
    with stage_lock(layout.root):
        _require_manifest(layout.analysis, "analyze")
        stats_path = layout.analysis / "stats.json"

        def build(tmps: dict[Path, Path]) -> dict[Path, dict]:
            out = tmps[layout.reports]
            bundle = json.loads(stats_path.read_text(encoding="utf-8"))
            written = reports_mod.render_from_bundle(out, bundle)
            shutil.copyfile(stats_path, out / "stats.json")  # the same bytes, not encoded again
            log.info("report: wrote %d files", len(written) + 1)
            return {layout.reports: {}}

        _produce("report", {layout.reports: {"stats.json": sha256_file(stats_path)}}, build)
