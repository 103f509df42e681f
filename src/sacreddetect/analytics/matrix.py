"""The per-sentence join of tree and model labels, held as aligned columns.

Every corpus sentence appears exactly once; a label source that fails to
cover the corpus, or a sentence id that occurs twice, is a hard error
(classification guarantees verdict totality, so a gap means inputs from
different runs were mixed, and a repeated id would be counted twice).
Tree labels are never malformed -- the rule-based method is total by
nature.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from ..errors import CoverageError
from ..textpipe.corpus import SentenceRecord

SECULAR_TOTAL = "secular_total"
RELIGIOUS_TOTAL = "religious_total"
TOTAL = "total"


def normalize_sentence_text(text: str) -> str:
    """Whitespace-normalized, case-preserved form used for duplicate grouping."""
    return " ".join(text.split())


@dataclass
class LabelMatrix:
    """Aligned columns in corpus order: row i is one sentence."""

    sentence_ids: list[str]
    ngo_ids: list[str]
    texts: list[str]
    groups: dict[str, str]  # ngo_id -> secular | religious | unknown
    labels: dict[str, list[str]]  # classifier -> one label per row, "tree" first

    @property
    def classifiers(self) -> tuple[str, ...]:
        return tuple(self.labels)

    @property
    def model_ids(self) -> tuple[str, ...]:
        return self.classifiers[1:]

    @cached_property
    def joint_counts(self) -> Counter:
        """(ngo_id, label per classifier...) -> number of rows."""
        return Counter(zip(self.ngo_ids, *self.labels.values()))

    def scopes(self) -> dict[str, list[str]]:
        """Scope -> the NGOs it pools: each NGO in corpus order, then the
        two group totals and the grand total, each only when non-empty."""
        ngo_order = list(dict.fromkeys(self.ngo_ids))
        out = {ngo: [ngo] for ngo in ngo_order}
        for group, scope in (("secular", SECULAR_TOTAL), ("religious", RELIGIOUS_TOTAL)):
            members = [ngo for ngo in ngo_order if self.groups[ngo] == group]
            if members:
                out[scope] = members
        if ngo_order:
            out[TOTAL] = ngo_order
        return out


def tabulate(
    corpus: list[SentenceRecord],
    tree_labels: dict[str, str],
    verdict_sets: dict[str, dict[str, str]],
    groups: dict[str, str],
) -> LabelMatrix:
    """Inner-join all label sources on sentence_id.

    tree_labels maps sentence_id -> label, verdict_sets model_id ->
    {sentence_id -> label}. Missing coverage or a repeated sentence id
    raises CoverageError naming the offending ids.
    """
    sentence_ids = [rec.sentence_id for rec in corpus]
    repeated = [sid for sid, n in Counter(sentence_ids).items() if n > 1]
    if repeated:
        raise CoverageError(f"sentence ids occur more than once in the corpus: {_shown(repeated)}")

    sources = {"tree": tree_labels, **verdict_sets}
    missing = [
        f"{src}:{sid}" for sid in sentence_ids for src, by_id in sources.items() if sid not in by_id
    ]
    if missing:
        raise CoverageError(f"label sources do not cover the corpus: {_shown(missing)}")

    ngo_ids = [rec.ngo_id for rec in corpus]
    return LabelMatrix(
        sentence_ids=sentence_ids,
        ngo_ids=ngo_ids,
        texts=[rec.text for rec in corpus],
        groups={ngo: groups.get(ngo, "unknown") for ngo in dict.fromkeys(ngo_ids)},
        labels={src: [by_id[sid] for sid in sentence_ids] for src, by_id in sources.items()},
    )


def _shown(ids: list[str]) -> str:
    more = f" (+{len(ids) - 20} more)" if len(ids) > 20 else ""
    return ", ".join(ids[:20]) + more
