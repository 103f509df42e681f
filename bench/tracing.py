"""Spans around the pipeline's layers, recorded from outside the program.

The tracer replaces public functions of ``textpipe``, ``lexicon``,
``judge``, ``analytics``, ``jsonlio``/``hashing`` and ``manifest`` -- at
the names the stages call them by -- with wrappers that record a span
(name, start, end, parent) and a few counts. Spans stay in memory and are
written once, when the process ends. A layer's time is the self time of
its spans: duration minus the time covered by the spans opened inside
them, so every traced second belongs to exactly one metric.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

from rep import STAGES


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def stage(self) -> str:
        """Name of the stage span currently open ("" outside any stage)."""
        return self.spans[self._stack[0]][0][len("stage."):] if self._stack else ""

    def wrap(self, owner, attr: str, name: str | None, after=None, only_in: str | None = None):
        """Replace owner.attr with a traced wrapper.

        name None records no span (count only); only_in limits the span to
        calls made inside that stage; after(result, args) runs once the
        span has closed, to record counts.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None or (only_in and self.stage() != only_in):
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, traced)

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Trace a generator function: one span per item produced."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                with self.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item

        setattr(owner, attr, traced)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "span_cost_s": span_cost()}


def span_cost(calls: int = 20_000) -> float:
    """Seconds one traced call adds to a call of a no-op function, measured
    in this process on a tracer of its own."""
    owner = SimpleNamespace(noop=lambda: None)
    plain = owner.noop
    Tracer().wrap(owner, "noop", "noop")
    traced = owner.noop
    start = time.perf_counter()
    for _ in range(calls):
        plain()
    mid = time.perf_counter()
    for _ in range(calls):
        traced()
    end = time.perf_counter()
    return max(0.0, (end - mid) - (mid - start)) / calls


def install(tracer: Tracer) -> None:
    """Wrap every traced layer at the names the stages call it by."""
    from sacreddetect import manifest, stages
    from sacreddetect.analytics import matrix, reports
    from sacreddetect.harvest import store
    from sacreddetect.judge import batch, providers
    from sacreddetect.textpipe import corpus

    counts = tracer.counts

    def count_bytes(key):
        def after(_result, args):
            counts[key] += os.path.getsize(args[0])
            counts[f"{key}:{tracer.stage()}"] += os.path.getsize(args[0])

        return after

    def count_segments(result, _args):
        counts["textpipe.sentences"] += len(result)

    def count_kept(result, args):
        counts["textpipe.docs_in"] += len(args[0])
        counts["textpipe.docs_kept"] += len(result)

    def count_matches(result, _args):
        counts["lexicon.sentences"] += len(result)
        counts["lexicon.yes"] += sum(r.label == "yes" for r in result)
        counts["lexicon.matches"] += sum(r.match_count for r in result)

    def count_verdicts(result, _args):
        counts["judge.verdicts"] += len(result)
        counts["judge.malformed"] += sum(v.label == "malformed" for v in result)

    def count_manifest(_result, _args):
        counts[f"manifest.writes:{tracer.stage()}"] += 1

    w = tracer.wrap
    # textpipe
    w(stages, "extract_main_text", "textpipe.html")
    w(stages, "detect_language", "textpipe.langid")
    w(corpus, "segment_sentences", "textpipe.segment", after=count_segments)
    w(stages, "filter_corpus", None, after=count_kept)
    # lexicon
    w(stages, "load_lexicon", "lexicon.compile")
    w(stages, "compile_matcher", "lexicon.compile")
    w(stages, "classify_corpus", "lexicon.match", after=count_matches)
    # judge
    w(batch, "build_batch_file", "judge.batch_build")
    w(providers, "parse_result_lines", "judge.parse")
    w(providers, "join_verdicts", "judge.parse", after=count_verdicts)

    untraced_get_provider = providers.get_provider

    def get_provider(provider_name):
        provider = untraced_get_provider(provider_name)
        w(provider, "run_batch", "judge.provider")
        return provider

    providers.get_provider = get_provider
    # analytics
    w(stages, "load_corpus", "analytics.load", only_in="analyze")
    w(stages, "_load_tree_results", "analytics.load")
    w(stages, "_load_verdicts", "analytics.load")
    w(matrix, "tabulate", "analytics.tabulate")
    for attr in ("group_rates", "pairwise_agreement", "disagreement_ratios"):
        w(stages, attr, "analytics.stats")
    w(stages, "term_report", "analytics.terms")
    w(stages, "duplicate_consistency", "analytics.consistency")
    w(reports, "render_from_bundle", "analytics.render")
    # io and manifest
    for owner in (stages, store):
        tracer.wrap_iter(owner, "read_jsonl", "io.read")
    for owner, attrs in (
        (stages, ("write_jsonl", "write_text", "write_json")),
        (reports, ("write_text", "write_json")),
        (manifest, ("write_json",)),
    ):
        for attr in attrs:
            w(owner, attr, "io.write", after=count_bytes("io.bytes_written"))
    w(stages, "sha256_file", "manifest.hash", after=count_bytes("manifest.bytes_hashed"))
    w(stages, "write_manifest", None, after=count_manifest)


def layer_metrics(dump: dict) -> dict[str, tuple[float, str]]:
    """Per-layer self times and counts of one traced pass, with units."""
    spans, counts = dump["spans"], Counter(dump["counts"])
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] += end - start - covered[i]

    out = {}
    for layer in (
        "textpipe.html", "textpipe.langid", "textpipe.segment", "lexicon.compile",
        "lexicon.match", "judge.batch_build", "judge.provider", "judge.parse",
        "analytics.load", "analytics.tabulate", "analytics.stats", "analytics.terms",
        "analytics.consistency", "analytics.render", "io.read", "io.write", "manifest.hash",
    ):
        out[f"{layer}_s"] = (self_s[layer], "s")
    for stage in STAGES:
        out[f"stage.{stage}.self_s"] = (self_s[f"stage.{stage}"], "s")
    out["textpipe.sentences"] = (counts["textpipe.sentences"], "count")
    out["textpipe.docs_kept_share"] = (_share(counts["textpipe.docs_kept"], counts["textpipe.docs_in"]), "share")
    out["lexicon.yes_share"] = (_share(counts["lexicon.yes"], counts["lexicon.sentences"]), "share")
    out["lexicon.matches"] = (counts["lexicon.matches"], "count")
    out["judge.batch_mib"] = (counts["io.bytes_written:batch-build"] / 2**20, "MiB")
    out["judge.malformed_share"] = (_share(counts["judge.malformed"], counts["judge.verdicts"]), "share")
    out["io.bytes_written"] = (counts["io.bytes_written"], "B")
    out["manifest.bytes_hashed"] = (counts["manifest.bytes_hashed"], "B")
    skipped = sum(counts[f"manifest.writes:{stage}"] == 0 for stage in STAGES)
    out["manifest.stages_skipped"] = (skipped, "count")
    out["trace.spans"] = (len(spans), "count")
    # estimated, not measured: the traced-minus-untraced difference in
    # pipeline_s is smaller than the run-to-run drift of the passes
    out["trace.overhead_s"] = (len(spans) * dump["span_cost_s"], "s")
    return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
