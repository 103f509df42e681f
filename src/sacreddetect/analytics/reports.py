"""Report rendering: the CSV and Markdown tables, read straight from the
stats bundle.

Numbers are formatted only here -- percentages to one decimal, ratios to
two -- while stats.json keeps full precision. Undefined ratios render as
the infinity sign with the raw counts printed alongside; no smoothing is
applied anywhere. Every file carries a provenance footer with the input
hashes that produced it.
"""

from __future__ import annotations

import csv
import io
import math
import re
from pathlib import Path

from ..jsonlio import write_json, write_text

FOOTNOTES = (
    "Malformed responses count as disagreement in every classifier pair, "
    "including tree-model pairs. 'Overall' agreement requires every "
    "classifier's label to be valid and equal.",
)


def fmt_pct(value: float) -> str:
    return f"{value:.1f}%"


def fmt_ratio(value: float | str | None) -> str:
    """Two decimals; nan and stats.json's None (no yes, no no) render as
    "n/a", inf and its "inf" (no no) as the infinity sign."""
    if value == "inf" or value == math.inf:
        return "∞"
    if value is None or math.isnan(value):
        return "n/a"
    return f"{value:.2f}"


def phrase_slug(phrase: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", phrase.lower()).strip("-") or "phrase"


def _csv(rows: list[list]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines.extend("| " + " | ".join(str(c) for c in row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def _footer(provenance: dict[str, str], notes: tuple[str, ...] = ()) -> str:
    lines = [""]
    for note in notes:
        lines.append(f"*{note}*")
        lines.append("")
    lines.append("Inputs:")
    for name in sorted(provenance):
        lines.append(f"- {name}: `{provenance[name]}`")
    lines.append("")
    return "\n".join(lines)


def render_corpus_table(summary: list[dict]) -> tuple[str, str]:
    header = ["ngo_id", "group", "n_documents", "n_sentences"]
    csv_rows = [header] + [[r[h] for h in header] for r in summary]
    md = _md_table(
        ["NGO", "Group", "N documents", "N sentences"],
        [[r["ngo_id"], r["group"], r["n_documents"], r["n_sentences"]] for r in summary],
    )
    return _csv(csv_rows), "# Corpus size per NGO\n\n" + md


def render_rates_table(bundle: dict) -> tuple[str, str]:
    classifiers, scopes, rates = bundle["classifiers"], bundle["scopes"], bundle["rates"]
    csv_rows = [["classifier", "scope", "pct_yes", "pct_no"]]
    for classifier in classifiers:
        for scope in scopes:
            cell = rates[f"{classifier}|{scope}"]
            csv_rows.append(
                [classifier, scope, f"{cell['pct_yes']:.1f}", f"{cell['pct_no']:.1f}"]
            )
    header = ["Scope"] + [f"{c} %yes / %no" for c in classifiers]
    md_rows = []
    for scope in scopes:
        row = [scope]
        for classifier in classifiers:
            cell = rates[f"{classifier}|{scope}"]
            row.append(f"{fmt_pct(cell['pct_yes'])} / {fmt_pct(cell['pct_no'])}")
        md_rows.append(row)
    md = "# Sentences recognized as religious language\n\n" + _md_table(header, md_rows)
    return _csv(csv_rows), md


def render_agreement_table(bundle: dict) -> tuple[str, str]:
    agreement = bundle["agreement"]
    pairs = agreement["pairs"]
    csv_rows = [["scope", "overall"] + pairs]
    md_rows = []
    for scope in bundle["scopes"]:
        values = [agreement["overall"][scope]] + [agreement["pairwise"][p][scope] for p in pairs]
        csv_rows.append([scope] + [f"{v:.1f}" for v in values])
        md_rows.append([scope] + [fmt_pct(v) for v in values])
    header = ["Scope", "Overall"] + [p.replace("&", " & ", 1) for p in pairs]
    md = "# Agreement between classifiers\n\n" + _md_table(header, md_rows)
    return _csv(csv_rows), md


def render_ratio_table(bundle: dict) -> tuple[str, str]:
    a, b = bundle["ratio_pair"]
    ratios = bundle["disagreement_ratios"]
    csv_rows = [
        [
            "scope",
            f"ratio_{a}",
            f"ratio_{b}",
            f"yes_{a}",
            f"no_{a}",
            f"malformed_{a}",
            f"yes_{b}",
            f"no_{b}",
            f"malformed_{b}",
            "n_disagreements",
        ]
    ]
    md_rows = []
    for scope in bundle["scopes"]:
        ca, cb = ratios[f"{a}|{scope}"], ratios[f"{b}|{scope}"]
        csv_rows.append(
            [
                scope,
                fmt_ratio(ca["ratio"]),
                fmt_ratio(cb["ratio"]),
                ca["n_yes"],
                ca["n_no"],
                ca["n_malformed_self"],
                cb["n_yes"],
                cb["n_no"],
                cb["n_malformed_self"],
                ca["n_disagreements"],
            ]
        )
        md_rows.append(
            [
                scope,
                f"{fmt_ratio(ca['ratio'])} ({ca['n_yes']}:{ca['n_no']})",
                f"{fmt_ratio(cb['ratio'])} ({cb['n_yes']}:{cb['n_no']})",
                str(ca["n_disagreements"]),
            ]
        )
    md = (
        "# Yes/no ratio within model disagreements\n\n"
        + _md_table(["Scope", a, b, "N disagreements"], md_rows)
    )
    return _csv(csv_rows), md


def render_term_report(phrase: str, entry: dict) -> str:
    """One phrase's bundle entry; classifiers are listed alphabetically,
    the order stats.json's sorted keys give them."""
    counts = entry["counts"]
    lines = [f"# Sentences containing “{phrase}”", ""]
    lines.append(f"Occurrences: {entry['n_sentences']}")
    lines.append("")
    lines.append(
        _md_table(
            ["Classifier", "N yes", "% yes"],
            [[c, counts[c]["n_yes"], fmt_pct(counts[c]["pct_yes"])] for c in sorted(counts)],
        )
    )
    if entry.get("samples"):
        lines.append("## Samples")
        lines.append("")
        for sample in entry["samples"]:
            labels = ", ".join(f"{k}={v}" for k, v in sorted(sample["labels"].items()))
            lines.append(f"- ({sample['ngo_id']}; {labels}) {sample['text']}")
            for key in sorted(sample):
                if key.startswith("argumentation:"):
                    lines.append(f"  - {key.split(':', 1)[1]}: {sample[key]}")
        lines.append("")
    return "\n".join(lines)


def render_consistency(groups: list[dict], classifiers: list[str]) -> str:
    lines = ["# Duplicate-sentence labeling consistency", ""]
    if not groups:
        lines.append("No duplicate sentences in the corpus.")
        lines.append("")
        return "\n".join(lines)
    header = ["N", "Sentence"] + [f"{c} yes/no/malformed (consistency)" for c in classifiers]
    rows = []
    for g in groups:
        row = [str(g["n_occurrences"]), g["text"][:120]]
        for c in classifiers:
            e = g["per_classifier"][c]
            cons = "n/a" if e["consistency"] is None else f"{e['consistency']:.3f}"
            row.append(f"{e['n_yes']}/{e['n_no']}/{e['n_malformed']} ({cons})")
        rows.append(row)
    lines.append(_md_table(header, rows))
    return "\n".join(lines)


def render_from_bundle(out_dir: str | Path, bundle: dict) -> list[Path]:
    """Write every report file, and a copy of the bundle, from a stats
    bundle (analysis/stats.json); returns the files written.

    The bundle stores raw counts and full-precision values, and its
    "classifiers", "scopes", "agreement.pairs" and "ratio_pair" lists carry
    the presentation order that stats.json's sorted keys cannot, so an
    in-memory bundle and the same bundle reloaded render to the same bytes.
    """
    out_dir = Path(out_dir)
    written: list[Path] = []

    def emit(name: str, content: str) -> None:
        path = out_dir / name
        write_text(path, content)
        written.append(path)

    footer = _footer(bundle["provenance"], FOOTNOTES)
    tables = [render_corpus_table(bundle["corpus"])]
    tables += [render_rates_table(bundle), render_agreement_table(bundle)]
    if "disagreement_ratios" in bundle:
        tables.append(render_ratio_table(bundle))
    for i, (table_csv, table_md) in enumerate(tables, start=1):
        emit(f"table{i}.csv", table_csv)
        emit(f"table{i}.md", table_md + footer)
    for phrase, entry in bundle["terms"].items():
        emit(f"terms/{phrase_slug(phrase)}.md", render_term_report(phrase, entry) + footer)
    emit("consistency.md", render_consistency(bundle["consistency"], bundle["classifiers"]) + footer)
    write_json(out_dir / "stats.json", bundle)
    written.append(out_dir / "stats.json")
    return written
