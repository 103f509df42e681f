"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Expected values stated as percentages are held to the tolerance the
criterion fixes; nothing is recalibrated here. Criterion 1 asserts the exact
pooled counts of its fixture and holds each published target to its tolerance
wherever the fixture's printed per-NGO figures can reach it.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from builders import label_matrix, oracle_rows
from oracles import naive_agreement, naive_match_spans, naive_rates, naive_ratios
from sacreddetect import cli
from sacreddetect.analytics import (
    disagreement_ratios,
    group_rates,
    pairwise_agreement,
    term_report,
)
from sacreddetect.config import SourceSpec, sample_config_path
from sacreddetect.harvest import build_cdx_query
from sacreddetect.judge import parse_verdict, prompt_hash
from sacreddetect.judge.verdicts import LABELS
from sacreddetect.lexicon import Lexicon, LexiconNode, compile_matcher, match_sentence


def report_line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance[{name}]: {status}{suffix}")


# --- 1. weighted-total reproduction ------------------------------------------

# Corpus-shape sentence counts and per-NGO rule-based yes-percentages; the
# per-NGO yes counts are round(pct * n).
TREE_FIXTURE = {
    "secular": [
        ("greenpeace", 352_247, 1.3),
        ("xr", 194_588, 2.3),
        ("wwf", 18_503, 2.5),
        ("rainforest-alliance", 243_464, 1.0),
    ],
    "religious": [
        ("cca", 10_301, 23.0),
        ("arocha", 6_720, 16.2),
        ("greenfaith", 7_771, 20.5),
        ("ien", 49_123, 6.0),
        ("icsd", 2_403, 36.2),
    ],
}

# Published group and grand totals, each held to ±TOLERANCE_PP. The
# published religious 11.9% cannot be reached from the fixture: its rows hold
# 2,369 + 1,089 + 1,593 + 2,947 + 870 = 8,868 yes sentences of 76,318, which
# pools to 11.620%. Each printed per-NGO percentage is within ±0.05pp of the
# true one, so the pooled religious rate lies in [11.570%, 11.670%], clear of
# the target band [11.75%, 12.05%]. The paper's own tables disagree there, and
# nothing in the repo says which figure is the misprint.
WEIGHTED_TARGETS = {"secular_total": 1.5, "religious_total": 11.9, "total": 2.4}
TOLERANCE_PP = 0.15
PRINTED_HALF_STEP_PP = Fraction("0.05")  # per-NGO percentages printed to 0.1pp
UNREACHABLE_TARGETS = {"religious_total"}


def _fixture_scopes() -> dict[str, list[tuple[int, float]]]:
    """Scope -> the (n, printed pct) fixture rows it pools, per NGO and total."""
    scopes: dict[str, list[tuple[int, float]]] = {"total": []}
    for group, table in TREE_FIXTURE.items():
        scopes[f"{group}_total"] = []
        for ngo, n, pct in table:
            scopes[ngo] = [(n, pct)]
            scopes[f"{group}_total"].append((n, pct))
            scopes["total"].append((n, pct))
    return scopes


def _reachable_pct(members: list[tuple[int, float]]) -> tuple[Fraction, Fraction]:
    """Pooled-rate interval allowed by printed percentages ±0.05pp, weighted by n."""
    n_total = sum(n for n, _ in members)
    centre = sum(n * Fraction(str(pct)) for n, pct in members) / n_total
    return centre - PRINTED_HALF_STEP_PP, centre + PRINTED_HALF_STEP_PP


def test_criterion_1_weighted_totals():
    rows: list[tuple] = []
    for group, table in TREE_FIXTURE.items():
        for ngo, n, pct in table:
            n_yes = round(n * pct / 100)
            rows += [(ngo, group, "yes")] * n_yes + [(ngo, group, "no")] * (n - n_yes)
    matrix = label_matrix(rows, models=())

    start = time.perf_counter()
    rates = group_rates(matrix)
    elapsed = time.perf_counter() - start

    scopes = _fixture_scopes()
    assert set(rates) == {f"tree|{scope}" for scope in scopes}
    for scope, members in scopes.items():
        n = sum(m_n for m_n, _ in members)
        n_yes = sum(round(m_n * pct / 100) for m_n, pct in members)
        cell = rates[f"tree|{scope}"]
        counts = (cell["n"], cell["n_yes"], cell["n_no"], cell["n_malformed"])
        assert counts == (n, n_yes, n - n_yes, 0), scope
        assert cell["pct_yes"] == 100 * n_yes / n, scope
    for table in TREE_FIXTURE.values():
        for ngo, _, pct in table:
            assert f"{rates[f'tree|{ngo}']['pct_yes']:.1f}" == f"{pct:.1f}", ngo
    report_line("1 pooled-counts exact", True, f"{len(scopes)} scopes")

    failures, unreachable = [], set()
    for scope, target in WEIGHTED_TARGETS.items():
        got = rates[f"tree|{scope}"]["pct_yes"]
        low, high = _reachable_pct(scopes[scope])
        wanted, tolerance = Fraction(str(target)), Fraction(str(TOLERANCE_PP))
        if high < wanted - tolerance or low > wanted + tolerance:
            unreachable.add(scope)
            report_line(
                f"1 weighted-total {scope}",
                scope in UNREACHABLE_TARGETS,
                f"published {target}% unreachable, a discrepancy in the paper's "
                f"tables: pooled {got:.3f}%, reachable [{float(low):.3f}%, {float(high):.3f}%]",
            )
            continue
        ok = abs(got - target) <= TOLERANCE_PP
        report_line(
            f"1 weighted-total {scope}", ok, f"got {got:.3f}%, target {target}% ±0.15pp"
        )
        if not ok:
            failures.append(f"{scope}: {got:.3f}% vs {target}% ±0.15pp")
    report_line("1 runtime", elapsed < 1.0, f"{elapsed:.3f}s")
    assert elapsed < 1.0
    assert not failures, "; ".join(failures)
    assert unreachable == UNREACHABLE_TARGETS


# --- 2. malformed accounting ---------------------------------------------------


def test_criterion_2_malformed_accounting():
    rows = []
    for _ in range(5_660):  # llama malformed, gpt answered
        rows.append(("x", "secular", "no", "yes", "malformed"))
    for _ in range(704):  # gpt malformed, llama answered
        rows.append(("x", "secular", "no", "malformed", "yes"))
    for _ in range(21_310 - 5_660 - 704):  # valid but unequal
        rows.append(("x", "secular", "no", "yes", "no"))
    for _ in range(2_000):  # agreements, outside the disagreement subset
        rows.append(("x", "secular", "no", "no", "no"))
    matrix = label_matrix(rows, models=("gpt", "llama"))
    ratios = disagreement_ratios(matrix)
    llama = ratios["llama|total"]
    gpt = ratios["gpt|total"]

    ok_n = llama["n_disagreements"] == 21_310
    ok_llama = abs(llama["pct_malformed"] - 26.6) <= 0.05
    ok_gpt = abs(gpt["pct_malformed"] - 3.3) <= 0.05
    report_line("2 disagreement-count", ok_n, f"{llama['n_disagreements']}")
    report_line("2 llama-malformed-share", ok_llama, f"{llama['pct_malformed']:.4f}% vs 26.6% ±0.05pp")
    report_line("2 gpt-malformed-share", ok_gpt, f"{gpt['pct_malformed']:.4f}% vs 3.3% ±0.05pp")
    assert ok_n and ok_llama and ok_gpt


# --- 3. term-report arithmetic -------------------------------------------------


def _phrase_matrix(phrase: str, n: int, gpt_yes: int, llama_yes: int):
    rows = [
        ("ngo", "religious", "yes", "yes" if i < gpt_yes else "no", "yes" if i < llama_yes else "no")
        for i in range(n)
    ]
    texts = [f"Case {i} mentions {phrase} plainly." for i in range(n)]
    return label_matrix(rows, models=("gpt", "llama"), texts=texts)


def test_criterion_3_term_reports():
    checks = []
    matrix = _phrase_matrix("Mother Earth", 1_229, 415, 457)
    report = term_report(matrix, "mother earth")
    checks.append(("mother-earth n", report["n_sentences"] == 1_229, str(report["n_sentences"])))
    checks.append(
        ("mother-earth gpt 33.8", abs(report["counts"]["gpt"]["pct_yes"] - 33.8) <= 0.05,
         f"{report['counts']['gpt']['pct_yes']:.4f}%")
    )
    checks.append(
        ("mother-earth llama 37.2", abs(report["counts"]["llama"]["pct_yes"] - 37.2) <= 0.05,
         f"{report['counts']['llama']['pct_yes']:.4f}%")
    )
    matrix = _phrase_matrix("sacred earth", 52, 6, 39)
    report = term_report(matrix, "sacred earth")
    checks.append(
        ("sacred-earth gpt 11.5", abs(report["counts"]["gpt"]["pct_yes"] - 11.5) <= 0.05,
         f"{report['counts']['gpt']['pct_yes']:.4f}%")
    )
    checks.append(
        ("sacred-earth llama 75.0", abs(report["counts"]["llama"]["pct_yes"] - 75.0) <= 0.05,
         f"{report['counts']['llama']['pct_yes']:.4f}%")
    )
    for name, ok, detail in checks:
        report_line(f"3 {name}", ok, detail)
    assert all(ok for _, ok, _ in checks)


# --- 4. matcher oracle equivalence ---------------------------------------------

WORD_POOL = [
    "sacred", "scared", "earth", "mother", "god", "gods", "dog", "bless",
    "blessed", "blessing", "ritual", "rituals", "love", "lovely", "hope",
    "nope", "ubuntu", "spirit", "river", "rivers", "tree", "holy", "grace",
    "a", "an", "the", "of", "in", "earthly", "godly",
]
FILLER = WORD_POOL + ["sacred-earth", "god's", "42", "...", "?!", "x_y", "(aside)"]


def _random_case(rng: random.Random):
    n_variants = rng.randint(1, 200)
    variants: set[str] = set()
    while len(variants) < n_variants:
        k = rng.choice([1, 1, 1, 1, 2, 2, 3])
        variants.add(" ".join(rng.choice(WORD_POOL) for _ in range(k)))
    exclusions: set[str] = set()
    for _ in range(rng.randint(0, 3)):
        form = " ".join(rng.choice(WORD_POOL) for _ in range(rng.choice([1, 2])))
        if form not in variants:
            exclusions.add(form)
    pieces = []
    while sum(len(p) for p in pieces) < rng.randint(0, 280):
        pieces.append(rng.choice(FILLER))
        pieces.append(rng.choice([" ", " ", "  ", "\t"]))
    text = "".join(pieces)[:300]
    if rng.random() < 0.25:
        text = text.upper()
    return sorted(variants), sorted(exclusions), text


def test_criterion_4_matcher_oracle_1000_cases():
    rng = random.Random(1_000_003)
    start = time.perf_counter()
    for case_index in range(1_000):
        variants, exclusions, text = _random_case(rng)
        lexicon = Lexicon(
            roots=[LexiconNode("general", [], [LexiconNode("n", variants)])],
            exclusions=exclusions,
        )
        matcher = compile_matcher(lexicon)
        got = {(m.variant, *m.span) for m in match_sentence(matcher, text).matches}
        want = naive_match_spans(text, variants, exclusions)
        assert got == want, (case_index, text, variants, exclusions)
    elapsed = time.perf_counter() - start
    report_line("4 matcher-oracle 1000 cases", True, f"{elapsed:.2f}s")
    report_line("4 runtime<30s", elapsed < 30.0, f"{elapsed:.2f}s")
    assert elapsed < 30.0


# --- 5. agreement/ratio oracle equivalence ---------------------------------------


def _random_label_matrix(rng: random.Random, n_rows: int):
    ngos = [("a", "secular"), ("b", "secular"), ("c", "religious"), ("d", "religious")]
    labels = ("yes", "no", "malformed")
    rows = []
    for _ in range(n_rows):
        ngo, group = rng.choice(ngos)
        rows.append(
            (ngo, group, rng.choice(("yes", "no")), rng.choice(labels), rng.choice(labels))
        )
    return label_matrix(rows, models=("gpt", "llama"))


def test_criterion_5_stats_oracle_100_matrices():
    rng = random.Random(5_000_011)
    sizes = [rng.randint(50, 2_000) for _ in range(95)] + [10_000] * 5
    classifiers = ["tree", "gpt", "llama"]
    for size in sizes:
        matrix = _random_label_matrix(rng, size)
        dicts = oracle_rows(matrix)

        rates = group_rates(matrix)
        for (classifier, scope), expected in naive_rates(dicts, classifiers).items():
            cell = rates[f"{classifier}|{scope}"]
            assert (cell["n"], cell["n_yes"], cell["n_no"], cell["n_malformed"]) == (
                expected["n"], expected["n_yes"], expected["n_no"], expected["n_malformed"]
            )
            assert cell["pct_yes"] == expected["pct_yes"]
            assert cell["pct_no"] == expected["pct_no"]

        agreement = pairwise_agreement(matrix)
        want = naive_agreement(dicts, classifiers)
        for pair, scoped in agreement["pairwise"].items():
            a, b = pair.split("&")
            for scope, value in scoped.items():
                assert value == want["pairwise"][(a, b, scope)]
        assert agreement["overall"] == want["overall"]

        ratios = disagreement_ratios(matrix)
        want_ratios = naive_ratios(dicts, "gpt", "llama")
        for key, cell in ratios.items():
            expected = want_ratios[tuple(key.split("|"))]
            assert (cell["n_yes"], cell["n_no"], cell["n_malformed_self"], cell["n_disagreements"]) == (
                expected["n_yes"], expected["n_no"],
                expected["n_malformed_self"], expected["n_disagreements"]
            )
    report_line("5 stats-oracle 100 matrices", True)

    # exact reciprocity on malformed-free matrices
    for _ in range(10):
        rows = []
        for _ in range(rng.randint(100, 2_000)):
            rows.append(
                (
                    "a", "secular",
                    rng.choice(("yes", "no")),
                    rng.choice(("yes", "no")), rng.choice(("yes", "no")),
                )
            )
        matrix = label_matrix(rows, models=("gpt", "llama"))
        ratios = disagreement_ratios(matrix)
        for scope in matrix.scopes():
            a, b = ratios[f"gpt|{scope}"], ratios[f"llama|{scope}"]
            if a["n_no"] and b["n_no"]:
                assert Fraction(a["n_yes"], a["n_no"]) * Fraction(b["n_yes"], b["n_no"]) == 1
    report_line("5 ratio-reciprocity exact", True)


# --- 6. prompt fidelity -----------------------------------------------------------

GOLDEN_PROMPT_HASHES = {
    "general": "260cf31a46f6d050a6834cf4a4e11bdfb94bef607c39a9c50929d8e5da403dc5",
    "revised": "d2a7bf9a150bf42199e5aa71b4062297bbb25a4b04cdcda91b6a511ac15c13bd",
}


def test_criterion_6_prompt_fidelity():
    ok = all(prompt_hash(t) == h for t, h in GOLDEN_PROMPT_HASHES.items())
    report_line("6 prompt-goldens", ok)
    assert ok


# --- 7. verdict-parser totality ----------------------------------------------------


def test_criterion_7_parser_totality():
    rng = random.Random(7_000_017)
    start = time.perf_counter()
    for _ in range(100_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(80)))
        verdict = parse_verdict("s", "m", blob.decode("latin-1"))
        assert verdict.label in LABELS
    elapsed = time.perf_counter() - start
    report_line("7 fuzz 1e5 byte strings", True, f"{elapsed:.2f}s")

    cases = json.loads(
        (Path(__file__).parent / "data" / "verdict_cases.json").read_text()
    )
    assert len(cases) == 30
    for case in cases:
        verdict = parse_verdict("s", "m", case["raw_text"])
        assert verdict.label == case["label"], case["name"]
        if case["label"] != "malformed":
            assert verdict.certainty == case["certainty"], case["name"]
            assert verdict.argumentation == case["argumentation"], case["name"]
    report_line("7 thirty-case fixture", True)


# --- 8. CDX query golden -------------------------------------------------------------


def test_criterion_8_cdx_query_golden():
    spec = SourceSpec("icsd", "religious", "interfaithsustain.com", 2014, 2024)
    expected = (
        "https://web.archive.org/cdx/search/cdx?url=interfaithsustain.com"
        "&matchType=prefix&output=json&from=2014&to=2024"
        "&filter=mimetype:(text/html|application/pdf)"
        "&filter=!statuscode:^[45]"
    )
    got = build_cdx_query(spec)
    ok = got == expected
    report_line("8 cdx-query byte-exact", ok, got if not ok else "")
    assert ok


# --- 9. end-to-end stub run -----------------------------------------------------------

STAGES = ("harvest", "extract", "match", "batch-build", "classify", "analyze", "report")


def _run_pipeline(root: Path, monkeypatch) -> None:
    base = ["sacreddetect", "--config", str(sample_config_path()), "--output-root", str(root)]
    for stage in STAGES:
        argv = base + [stage]
        if stage == "harvest":
            argv.append("--sample")
        if stage == "classify":
            argv.append("--stub")
        monkeypatch.setattr(sys, "argv", argv)
        code = cli.run()
        assert code == 0, f"stage {stage} exited {code}"


def _tree_snapshot(root: Path) -> dict[str, bytes]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            out[path.relative_to(root).as_posix()] = path.read_bytes()
    return out


# sha256 of every analysis/ and reports/ file (manifests aside) of the
# sample stub run, recorded from a known-good run; a change that alters any
# report byte must update this file on purpose.
REPORT_DIGESTS = Path(__file__).parent / "data" / "sample_report_digests.json"


def _report_digests(snapshot: dict[str, bytes]) -> dict[str, str]:
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in snapshot.items()
        if name.startswith(("analysis/", "reports/"))
    }


def test_criterion_9_end_to_end_stub(tmp_path, monkeypatch):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    start = time.perf_counter()
    _run_pipeline(run_a, monkeypatch)
    _run_pipeline(run_b, monkeypatch)
    elapsed = time.perf_counter() - start

    snap_a, snap_b = _tree_snapshot(run_a), _tree_snapshot(run_b)
    deterministic = snap_a == snap_b
    report_line("9 deterministic-across-runs", deterministic, f"{len(snap_a)} files")
    assert deterministic

    digests = _report_digests(snap_a)
    expected = json.loads(REPORT_DIGESTS.read_text(encoding="utf-8"))
    differing = sorted(set(digests) ^ set(expected) | {
        name for name in digests.keys() & expected.keys() if digests[name] != expected[name]
    })
    report_line("9 report-digests", not differing, ", ".join(differing) or f"{len(digests)} files")
    assert not differing

    # every sentence holding a starter-lexicon term is tree-labeled yes
    corpus = []
    for path in sorted((run_a / "corpus").glob("*.jsonl")):
        corpus.extend(json.loads(line) for line in path.read_text().splitlines())
    assert len(corpus) == 10
    labels = {}
    for path in sorted((run_a / "labels" / "tree").glob("*.jsonl")):
        for line in path.read_text().splitlines():
            row = json.loads(line)
            labels[row["sentence_id"]] = row["label"]

    from sacreddetect.config import bundled_path
    from sacreddetect.lexicon import load_lexicon

    lexicon = load_lexicon(bundled_path("starter.tree"))
    variants, exclusions = lexicon.all_variants(), lexicon.exclusions
    mismatches = []
    for row in corpus:
        expected = "yes" if naive_match_spans(row["text"], variants, exclusions) else "no"
        if labels[row["sentence_id"]] != expected:
            mismatches.append(row["text"])
    report_line("9 tree-labels-match-oracle", not mismatches, f"{len(corpus)} sentences")
    assert not mismatches

    for needle in ("Sacred Earth", "Mother Earth"):
        hit = [r for r in corpus if needle.lower() in " ".join(r["text"].lower().split())]
        assert hit, needle
        assert all(labels[r["sentence_id"]] == "yes" for r in hit), needle
    report_line("9 flagship-terms-yes", True)

    report_line("9 runtime<10s", elapsed < 10.0, f"{elapsed:.2f}s")
    assert elapsed < 10.0
    shutil.rmtree(run_b)
