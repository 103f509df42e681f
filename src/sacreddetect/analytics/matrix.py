"""The per-sentence join of tree and model labels.

Every corpus sentence appears exactly once; a label source that fails to
cover the corpus is a hard error (classification guarantees verdict
totality, so a gap means inputs from different runs were mixed). Tree
labels are never malformed -- the rule-based method is total by nature.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CoverageError
from ..lexicon.matcher import MatchResult
from ..textpipe.corpus import SentenceRecord

SECULAR_TOTAL = "secular_total"
RELIGIOUS_TOTAL = "religious_total"
TOTAL = "total"


def normalize_sentence_text(text: str) -> str:
    """Whitespace-normalized, case-preserved form used for duplicate grouping."""
    return " ".join(text.split())


@dataclass(frozen=True)
class MatrixRow:
    sentence_id: str
    ngo_id: str
    group: str
    tree: str  # yes | no
    model_labels: tuple[str, ...]  # aligned with LabelMatrix.model_ids

    def label(self, classifier: str, model_ids: tuple[str, ...]) -> str:
        if classifier == "tree":
            return self.tree
        return self.model_labels[model_ids.index(classifier)]


@dataclass
class LabelMatrix:
    model_ids: tuple[str, ...]
    rows: list[MatrixRow]

    @property
    def classifiers(self) -> tuple[str, ...]:
        return ("tree",) + self.model_ids

    def scopes(self) -> dict[str, list[MatrixRow]]:
        """NGO scopes plus the two group totals and the grand total."""
        out: dict[str, list[MatrixRow]] = {}
        for row in self.rows:
            out.setdefault(row.ngo_id, []).append(row)
        secular = [r for r in self.rows if r.group == "secular"]
        religious = [r for r in self.rows if r.group == "religious"]
        if secular:
            out[SECULAR_TOTAL] = secular
        if religious:
            out[RELIGIOUS_TOTAL] = religious
        out[TOTAL] = list(self.rows)
        return out


def tabulate(
    corpus: list[SentenceRecord],
    tree_results: list[MatchResult],
    verdict_sets: dict[str, dict[str, str]],
    groups: dict[str, str],
) -> LabelMatrix:
    """Inner-join all label sources on sentence_id.

    verdict_sets maps model_id -> {sentence_id -> label}. Missing coverage
    raises CoverageError naming the offending ids.
    """
    tree_by_id = {r.sentence_id: r.label for r in tree_results}
    model_ids = tuple(verdict_sets)

    missing: list[tuple[str, str]] = []
    for rec in corpus:
        if rec.sentence_id not in tree_by_id:
            missing.append(("tree", rec.sentence_id))
        for model_id in model_ids:
            if rec.sentence_id not in verdict_sets[model_id]:
                missing.append((model_id, rec.sentence_id))
    if missing:
        shown = ", ".join(f"{src}:{sid}" for src, sid in missing[:20])
        more = f" (+{len(missing) - 20} more)" if len(missing) > 20 else ""
        raise CoverageError(f"label sources do not cover the corpus: {shown}{more}")

    rows = []
    for rec in corpus:
        rows.append(
            MatrixRow(
                sentence_id=rec.sentence_id,
                ngo_id=rec.ngo_id,
                group=groups.get(rec.ngo_id, "unknown"),
                tree=tree_by_id[rec.sentence_id],
                model_labels=tuple(
                    verdict_sets[model_id][rec.sentence_id] for model_id in model_ids
                ),
            )
        )
    return LabelMatrix(model_ids=model_ids, rows=rows)
