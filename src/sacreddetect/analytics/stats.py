"""Rates, pairwise agreement and disagreement ratios over a label matrix.

Conventions, applied uniformly:

  * Group and grand totals pool sentences across NGOs, which equals
    weighting each NGO's percentage by its sentence count.
  * A classifier pair agrees on a row iff both labels are valid (yes/no)
    and equal; a malformed label on either side is a disagreement. The
    "overall" figure requires all classifiers valid and equal, so it never
    exceeds any pairwise figure.
  * The disagreement subset for the ratio table is taken over one model
    pair: rows where the two models' labels are unequal-but-valid, or
    where either is malformed. A model's ratio is yes/no counted over its
    own valid labels inside that subset; with no malformed rows the two
    models' ratios are exact reciprocals.

Each statistic is counted from the matrix's joint label counts, pooled per
scope as integers, and returned as its stats.json section: full-precision
values keyed "<classifier>|<scope>" or "<a>&<b>"; rounding happens at render
time.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .matrix import LabelMatrix

VALID = ("yes", "no")


def _scope_counts(matrix: LabelMatrix) -> dict[str, Counter]:
    """Scope -> label tuple (one label per classifier) -> rows, summed over
    the NGOs the scope pools."""
    by_ngo: dict[str, Counter] = {}
    for (ngo, *labels), n in matrix.joint_counts.items():
        by_ngo.setdefault(ngo, Counter())[tuple(labels)] += n
    return {
        scope: sum((by_ngo[ngo] for ngo in members), Counter())
        for scope, members in matrix.scopes().items()
    }


def _tally(counts: Counter, i: int) -> Counter:
    """Label -> rows, for the classifier at position i of the label tuples."""
    out: Counter = Counter()
    for labels, n in counts.items():
        out[labels[i]] += n
    return out


def group_rates(matrix: LabelMatrix) -> dict[str, dict]:
    """Per-(classifier, scope) yes/no counts and percentages over pooled
    sentences -- pooling sentences and weighting NGO percentages by
    sentence count are the same arithmetic, and on integer counts the
    identity is exact."""
    out = {}
    for scope, counts in _scope_counts(matrix).items():
        for i, classifier in enumerate(matrix.classifiers):
            tally = _tally(counts, i)
            n = tally["yes"] + tally["no"] + tally["malformed"]
            out[f"{classifier}|{scope}"] = {
                "n": n,
                "n_yes": tally["yes"],
                "n_no": tally["no"],
                "n_malformed": tally["malformed"],
                "pct_yes": 100.0 * tally["yes"] / n,
                "pct_no": 100.0 * tally["no"] / n,
            }
    return out


def pairwise_agreement(matrix: LabelMatrix) -> dict:
    """Exact-label agreement percentages per scope, for every classifier
    pair ("pairwise", in "pairs" order) and for all classifiers jointly
    ("overall")."""
    classifiers = matrix.classifiers
    pairs = {
        f"{classifiers[i]}&{classifiers[j]}": (i, j)
        for i, j in combinations(range(len(classifiers)), 2)
    }
    pairwise: dict[str, dict[str, float]] = {name: {} for name in pairs}
    overall: dict[str, float] = {}
    for scope, counts in _scope_counts(matrix).items():
        n = sum(counts.values())
        for name, (i, j) in pairs.items():
            hits = sum(k for labels, k in counts.items() if labels[i] in VALID and labels[i] == labels[j])
            pairwise[name][scope] = 100.0 * hits / n
        all_agree = sum(k for labels, k in counts.items() if labels[0] in VALID and len(set(labels)) == 1)
        overall[scope] = 100.0 * all_agree / n
    return {"overall": overall, "pairs": list(pairs), "pairwise": pairwise}


def disagreement_ratios(matrix: LabelMatrix) -> dict[str, dict]:
    """Yes/no tendencies of the first two models within their mutual
    disagreements, per (model, scope). The ratio is stored as None when
    the model answered neither yes nor no there, and "inf" when it never
    answered no."""
    if len(matrix.model_ids) < 2:
        raise ValueError("disagreement ratios need two models")
    out = {}
    for scope, counts in _scope_counts(matrix).items():
        # labels[1] and labels[2] are the first two models; labels[0] is the tree
        subset = Counter({
            labels: k
            for labels, k in counts.items()
            if labels[1] != labels[2] or labels[1] not in VALID or labels[2] not in VALID
        })
        n_disagreements = sum(subset.values())
        for i, model_id in enumerate(matrix.model_ids[:2], start=1):
            tally = _tally(subset, i)
            n_yes, n_no, n_malformed = tally["yes"], tally["no"], tally["malformed"]
            out[f"{model_id}|{scope}"] = {
                "n_yes": n_yes,
                "n_no": n_no,
                "n_malformed_self": n_malformed,
                "n_disagreements": n_disagreements,
                "ratio": (None if n_yes == 0 else "inf") if n_no == 0 else n_yes / n_no,
                "pct_malformed": 100.0 * n_malformed / n_disagreements if n_disagreements else 0.0,
            }
    return out
