"""Benchmark of the offline pipeline: extract -> match -> batch-build ->
classify -> analyze -> report.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload paper-mix --seed 1 --seconds 55 --trace 0

The run repeats whole pipeline passes until ``--seconds`` have passed.
Before each pass, set-up writes a seeded synthetic raw store through the
program's own ``DocumentStore`` (``setup_s`` is the median over the
passes); the pass then runs every stage in a fresh process, and the run
reports the mean time per pass. Every pass is checked against the generator's ground truth;
on paper-mix an untimed lexicon edit then checks that stages short-circuit.
With ``--trace 1`` every pass is traced, and the per-layer split is
reported instead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. A readable table goes to
standard error. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from rep import STAGES
from tracing import layer_metrics

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SRC = CHECKOUT / "src"

WORKLOADS = ("paper-mix", "religious-longform")
MIN_PASSES = 3
# A pass still running this long after the run started is killed and
# counts as failed, so a hung stage cannot keep the run from reporting.
RUN_BUDGET = 165.0
STAGE_METRICS = {  # report takes ~0.01 s and is left to pipeline_s
    "extract": "extract_s",
    "match": "match_s",
    "batch-build": "batch_build_s",
    "classify": "classify_s",
    "analyze": "analyze_s",
}
# Directories of the stages that must short-circuit on a lexicon edit.
SKIPPED_DIRS = ("corpus", "batches") + tuple(f"labels/{model_id}" for model_id, _ in gen.MODELS)


class Run:
    """Work directory, ground truth and tallies of one benchmark run."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET
        self.truth = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {detail}" if detail else name)


# --- set-up ------------------------------------------------------------------


def write_config(path: Path, root: Path, lexicon: Path, truth) -> None:
    lines = [
        f"output_root = {json.dumps(str(root))}",
        f"lexicon = {json.dumps(str(lexicon))}",
        'prompt_template = "revised"',
        "",
        "[report]",
        "phrases = [" + ", ".join(json.dumps(p) for p in gen.REPORT_PHRASES) + "]",
    ]
    for model_id, provider in gen.MODELS:
        lines += ["", "[[models]]", f'model_id = "{model_id}"', f'provider = "{provider}"']
    for ngo, group in truth.groups.items():
        lines += [
            "", "[[sources]]", f'ngo_id = "{ngo}"', f'group = "{group}"',
            f'base_url = "{ngo}.example.org"', "from_year = 2014", "to_year = 2024",
        ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_raw_store(raw: Path, docs) -> None:
    from sacreddetect.harvest.store import DocumentStore, RawDocument
    from sacreddetect.hashing import sha256_file
    from sacreddetect.manifest import write_manifest

    store = DocumentStore(raw)
    for doc in docs:
        store.append(
            RawDocument.make(
                ngo_id=doc.ngo_id, url=doc.url, status=doc.status,
                content_type=doc.content_type, body=doc.body,
                fetched_at=gen.FETCHED_AT, snapshot_ts="20240828000000",
            )
        )
    store.flush_index()
    inputs = {p.name: sha256_file(p) for p in sorted(raw.glob("*.jsonl"))}
    write_manifest(raw, "harvest", inputs, {"mode": "synthetic"})


def set_up(run: Run, tag: str, lexicon_text: str = gen.LEXICON_A) -> None:
    """One set-up: a fresh output root `tag` holding only the raw store,
    plus its lexicon and config."""
    docs, truth = gen.generate(run.workload, run.seed)
    run.truth = truth
    root = run.work / tag
    write_raw_store(root / "raw", docs)
    lexicon = run.work / f"{tag}.tree"
    lexicon.write_text(lexicon_text, encoding="utf-8")
    write_config(run.work / f"{tag}.toml", root, lexicon, truth)


# --- one pass ------------------------------------------------------------------


def run_pass(run: Run, tag: str, trace: bool) -> dict:
    """All stages once, in a fresh process, on the output root `tag`."""
    out = run.work / f"{tag}.result.json"
    spec = run.work / f"{tag}.spec.json"
    spec.write_text(
        json.dumps(
            {
                "src": str(SRC),
                "config": str(run.work / f"{tag}.toml"),
                "workload": run.workload,
                "trace": trace,
                "out": str(out),
            }
        ),
        encoding="utf-8",
    )
    out.unlink(missing_ok=True)
    # a fixed hash seed keeps set and dict layouts, and so timings, alike
    # from one pass to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        # subprocess.run kills the child and waits for it when the timeout hits
        proc = subprocess.run(
            [sys.executable, str(BENCH / "rep.py"), str(spec)],
            env=env,
            timeout=max(1.0, run.deadline - time.monotonic()),
        )
        if proc.returncode == 0:
            return json.loads(out.read_text(encoding="utf-8"))
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"bench: pass on {tag} failed: {exc!r}", file=sys.stderr)
    return {"failed": list(STAGES), "stages": {}, "pipeline_s": 0.0, "peak_rss_mib": 0.0}


# --- output checks ---------------------------------------------------------------


def check_stats(run: Run, root: Path, lexicon: str, what: str) -> None:
    """Compare analysis/stats.json with the ground truth."""
    truth = run.truth
    path = root / "analysis" / "stats.json"
    if not path.is_file():
        run.check(f"{what}: stats.json present", False)
        return
    try:
        bundle = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        run.check(f"{what}: stats.json readable", False, repr(exc))
        return
    # a scope or phrase missing from the bundle reads as empty, so it fails
    # the comparison below instead of aborting the run
    rates = bundle.get("rates", {})
    terms = bundle.get("terms", {})

    corpus = {
        row.get("ngo_id"): (row.get("n_documents"), row.get("n_sentences"))
        for row in bundle.get("corpus", [])
    }
    expected = {ngo: (truth.documents[ngo], truth.sentences[ngo]) for ngo in truth.groups}
    run.check(f"{what}: documents and sentences per NGO", corpus == expected, f"{corpus} != {expected}")

    tree = {ngo: rates.get(f"tree|{ngo}", {}).get("n_yes") for ngo in truth.groups}
    expected = {ngo: truth.tree_yes[lexicon][ngo] for ngo in truth.groups}
    run.check(f"{what}: tree yes per NGO (lexicon {lexicon})", tree == expected, f"{tree} != {expected}")

    for model_id, provider in gen.MODELS:
        got = {
            ngo: {lbl: rates.get(f"{model_id}|{ngo}", {}).get(f"n_{lbl}") for lbl in ("yes", "no", "malformed")}
            for ngo in truth.groups
        }
        if run.workload == "religious-longform":
            by_label = truth.replay[provider]
            want = {
                ngo: {lbl: by_label.get(lbl, {}).get(ngo, 0) for lbl in ("yes", "no", "malformed")}
                for ngo in truth.groups
            }
        else:
            want = {
                ngo: {
                    "yes": truth.stub_yes[ngo],
                    "no": truth.sentences[ngo] - truth.stub_yes[ngo],
                    "malformed": 0,
                }
                for ngo in truth.groups
            }
        run.check(f"{what}: {model_id} labels per NGO", got == want, f"{got} != {want}")

    got_terms = {p: terms.get(p, {}).get("n_sentences") for p in gen.REPORT_PHRASES}
    want_terms = {p: truth.phrases[p] for p in gen.REPORT_PHRASES}
    run.check(f"{what}: report phrase counts", got_terms == want_terms, f"{got_terms} != {want_terms}")

    rendered = root / "reports" / "stats.json"
    tables = all((root / "reports" / f"table{i}.md").is_file() for i in range(1, 5))
    run.check(
        f"{what}: reports rendered from stats.json",
        tables and rendered.is_file() and rendered.read_bytes() == path.read_bytes(),
    )


def output_digests(root: Path) -> dict[str, str]:
    """sha256 of analysis/stats.json and every report file but the manifest."""
    files = [root / "analysis" / "stats.json"]
    files += sorted(p for p in (root / "reports").rglob("*") if p.is_file() and p.name != "manifest.json")
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files if p.is_file()}


def dir_state(root: Path) -> dict[str, tuple]:
    """(size, mtime, inode) of every file under the short-circuiting stages."""
    state = {}
    for sub in SKIPPED_DIRS:
        for p in sorted((root / sub).rglob("*")):
            if p.is_file():
                st = p.stat()
                state[str(p.relative_to(root))] = (st.st_size, st.st_mtime_ns, st.st_ino)
    return state


def written_bytes(root: Path) -> int:
    """Bytes the stages wrote: everything under the root except raw/."""
    return sum(
        p.stat().st_size
        for p in root.rglob("*")
        if p.is_file() and p.relative_to(root).parts[0] != "raw"
    )


# --- the measured loop -------------------------------------------------------------


def measure(run: Run, seconds: int, trace: bool) -> tuple[float, list[dict], dict | None]:
    """Set up and time passes; returns the median set-up time, the passes
    and, on paper-mix, the first pass of the lexicon-edit check. Set-ups
    are spread over the whole run, like the passes, so that the host's
    drift touches both alike."""
    setups: list[float] = []
    passes: list[dict] = []
    started = time.perf_counter()
    tag = None
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        if tag:  # the last pass's root stays, for the lexicon-edit check
            shutil.rmtree(run.work / tag)
        i = len(passes)
        tag = f"pass{i}"
        start = time.perf_counter()
        set_up(run, tag)
        setups.append(time.perf_counter() - start)
        result = run_pass(run, tag, trace)
        root = run.work / tag
        for stage in STAGES:
            run.check(f"pass {i}: stage {stage}", stage not in result["failed"])
        check_stats(run, root, "a", f"pass {i}")
        result["artifact_mib"] = written_bytes(root) / 2**20
        passes.append(result)

    edit = lexicon_edit_check(run, tag, trace) if run.workload == "paper-mix" else None
    return statistics.median(setups), passes, edit


def lexicon_edit_check(run: Run, tag: str, trace: bool) -> dict:
    """The curator's loop, untimed, on the completed output root `tag`:
    swap to lexicon b and run every stage, then swap back to a and run them
    again. Extract, batch-build and classify must short-circuit and leave
    their files alone; stats.json and reports/ must be byte-identical to a
    cold run with the same lexicon. Returns the first edit pass."""
    root = run.work / tag
    refs = {"a": output_digests(root)}
    set_up(run, "coldb", gen.LEXICON_B)
    result = run_pass(run, "coldb", trace=False)
    run.check("cold pass with lexicon b", not result["failed"], f"failed stages {result['failed']}")
    check_stats(run, run.work / "coldb", "b", "cold pass b")
    refs["b"] = output_digests(run.work / "coldb")

    first = None
    for version, text in (("b", gen.LEXICON_B), ("a", gen.LEXICON_A)):
        (run.work / f"{tag}.tree").write_text(text, encoding="utf-8")
        before = dir_state(root)
        result = run_pass(run, tag, trace)
        first = first or result
        what = f"edit to lexicon {version}"
        for stage in STAGES:
            run.check(f"{what}: stage {stage}", stage not in result["failed"])
        check_stats(run, root, version, what)
        run.check(f"{what}: skipped stages left their outputs alone", dir_state(root) == before)
        run.check(
            f"{what}: stats.json and reports/ identical to a cold run",
            output_digests(root) == refs[version] and bool(refs[version]),
        )
    return first


def mean_of(passes: list[dict], key) -> float:
    return statistics.fmean(key(p) for p in passes)


def end_to_end(run: Run, setup_s: float, passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Times are means over the passes: the host's speed drifts by tens of
    percent from one second to the next, and a mean moves smoothly with the
    share of slow passes where a median jumps between them."""
    pipeline_s = mean_of(passes, lambda p: p["pipeline_s"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (pipeline_s, "s"),
        "sentences_per_s": (sum(run.truth.sentences.values()) / pipeline_s if pipeline_s else 0.0, "1/s"),
    }
    for stage, name in STAGE_METRICS.items():
        metrics[name] = (mean_of(passes, lambda p: p["stages"].get(stage, 0.0)), "s")
    metrics["peak_rss_mib"] = (statistics.median(p["peak_rss_mib"] for p in passes), "MiB")
    metrics["artifact_mib"] = (statistics.median(p["artifact_mib"] for p in passes), "MiB")
    metrics["passed_share"] = (1.0 - run.failed / run.attempted, "share")
    return metrics


def per_layer(passes: list[dict], edit: dict | None) -> dict[str, tuple[float, str]]:
    """Means of the traced passes' layer times. Counts come from the first
    pass alone, so they repeat exactly for a seed; on paper-mix
    manifest.stages_skipped comes from the first lexicon-edit pass."""
    layers = [layer_metrics(p["trace"]) for p in passes if "trace" in p]
    metrics = {}
    for name, (value, unit) in (layers[0].items() if layers else ()):
        if unit == "s":
            value = statistics.fmean(m[name][0] for m in layers)
        metrics[name] = (value, unit)
    if edit and "trace" in edit:
        metrics["manifest.stages_skipped"] = layer_metrics(edit["trace"])["manifest.stages_skipped"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sacreddetect" / "__init__.py").is_file():
        print(f"bench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # TERM unwinds like an error: subprocess.run kills and reaps the pass in
    # flight, and the work directory is removed below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    work = CHECKOUT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, work)
    try:
        setup_s, passes, edit = measure(run, args.seconds, bool(args.trace))
        metrics = per_layer(passes, edit) if args.trace else end_to_end(run, setup_s, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    for problem in run.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{run.attempted} stage calls and checks, {run.failed} failed "
          f"(failed_share {run.failed / run.attempted:.4f})", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
