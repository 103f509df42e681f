import math
import random
from fractions import Fraction

import pytest

from oracles import naive_agreement, naive_rates, naive_ratios
from sacreddetect.analytics import (
    LabelMatrix,
    MatrixRow,
    disagreement_ratios,
    group_rates,
    pairwise_agreement,
)

MODELS = ("gpt", "llama")


def row(i, tree, gpt, llama, ngo="a", group="secular"):
    return MatrixRow(
        sentence_id=f"s{i}",
        ngo_id=ngo,
        group=group,
        tree=tree,
        model_labels=(gpt, llama),
    )


def matrix(rows):
    return LabelMatrix(model_ids=MODELS, rows=rows)


def as_dicts(m):
    return [
        {"ngo": r.ngo_id, "group": r.group, "labels": {"tree": r.tree, "gpt": r.model_labels[0], "llama": r.model_labels[1]}}
        for r in m.rows
    ]


def random_matrix(rng, n_rows, malformed_ok=True):
    ngos = [("a", "secular"), ("b", "secular"), ("c", "religious"), ("d", "religious")]
    labels = ["yes", "no", "malformed"] if malformed_ok else ["yes", "no"]
    rows = []
    for i in range(n_rows):
        ngo, group = rng.choice(ngos)
        rows.append(
            row(
                i,
                rng.choice(["yes", "no"]),  # tree labels are never malformed
                rng.choice(labels),
                rng.choice(labels),
                ngo=ngo,
                group=group,
            )
        )
    return matrix(rows)


# --- group rates --------------------------------------------------------------


def test_all_yes_single_ngo():
    m = matrix([row(i, "yes", "yes", "yes") for i in range(4)])
    rates = group_rates(m)
    assert rates.cell("tree", "a").pct_yes == 100.0
    assert rates.cell("tree", "a").pct_no == 0.0


def test_malformed_gap():
    rows = [row(0, "yes", "yes", "yes"), row(1, "no", "no", "no"),
            row(2, "no", "no", "no"), row(3, "yes", "malformed", "yes")]
    rates = group_rates(matrix(rows))
    cell = rates.cell("gpt", "a")
    assert cell.pct_yes + cell.pct_no == 75.0
    assert cell.pct_malformed == 25.0


def test_tree_rates_always_sum_to_hundred():
    rng = random.Random(5)
    m = random_matrix(rng, 500)
    rates = group_rates(m)
    for scope in rates.scopes:
        cell = rates.cell("tree", scope)
        assert cell.pct_yes + cell.pct_no == pytest.approx(100.0, abs=1e-9)


def test_totals_pool_sentences_across_ngos():
    rows = [row(i, "yes", "yes", "yes", ngo="a", group="secular") for i in range(3)]
    rows += [row(10 + i, "no", "no", "no", ngo="b", group="secular") for i in range(1)]
    rates = group_rates(matrix(rows))
    assert rates.cell("tree", "secular_total").pct_yes == pytest.approx(75.0)


def test_weighted_total_identity():
    rng = random.Random(11)
    m = random_matrix(rng, 2000)
    rates = group_rates(m)
    total = rates.cell("tree", "total")
    pooled = 100.0 * total.n_yes / total.n
    # weighted mean of per-NGO percentages, weights = sentence counts
    ngo_scopes = [s for s in rates.scopes if not s.endswith("total")]
    weighted = sum(
        rates.cell("tree", s).pct_yes * rates.cell("tree", s).n for s in ngo_scopes
    ) / sum(rates.cell("tree", s).n for s in ngo_scopes)
    assert weighted == pytest.approx(pooled, abs=1e-9)
    assert total.pct_yes == pytest.approx(pooled, abs=1e-12)


def test_rates_match_naive_oracle():
    rng = random.Random(3)
    m = random_matrix(rng, 1000)
    rates = group_rates(m)
    want = naive_rates(as_dicts(m), ["tree", "gpt", "llama"])
    for (classifier, scope), expected in want.items():
        cell = rates.cell(classifier, scope)
        assert cell.n == expected["n"]
        assert cell.n_yes == expected["n_yes"]
        assert cell.pct_yes == expected["pct_yes"]
        assert cell.pct_no == expected["pct_no"]


# --- agreement ----------------------------------------------------------------


def test_unanimous_agreement():
    m = matrix([row(0, "yes", "yes", "yes"), row(1, "no", "no", "no")])
    agreement = pairwise_agreement(m)
    assert agreement.overall["a"] == 100.0
    for pair_values in agreement.pairwise.values():
        assert pair_values["a"] == 100.0


def test_malformed_counts_as_disagreement():
    m = matrix([row(0, "yes", "yes", "malformed")])
    agreement = pairwise_agreement(m)
    assert agreement.pair("gpt", "llama")["a"] == 0.0
    assert agreement.pair("tree", "gpt")["a"] == 100.0
    assert agreement.pair("tree", "llama")["a"] == 0.0
    assert agreement.overall["a"] == 0.0


def test_agreement_matches_naive_oracle():
    rng = random.Random(17)
    m = random_matrix(rng, 1000)
    agreement = pairwise_agreement(m)
    want = naive_agreement(as_dicts(m), ["tree", "gpt", "llama"])
    for (a, b), scoped in agreement.pairwise.items():
        for scope, value in scoped.items():
            assert value == want["pairwise"][(a, b, scope)]
    assert agreement.overall == want["overall"]


def test_overall_bounded_by_pairwise():
    rng = random.Random(23)
    for _ in range(10):
        m = random_matrix(rng, 300)
        agreement = pairwise_agreement(m)
        for scope in agreement.scopes:
            minimum = min(scoped[scope] for scoped in agreement.pairwise.values())
            assert agreement.overall[scope] <= minimum + 1e-12


def test_permutation_invariance():
    rng = random.Random(29)
    m = random_matrix(rng, 400)
    shuffled_rows = list(m.rows)
    rng.shuffle(shuffled_rows)
    m2 = matrix(shuffled_rows)
    assert group_rates(m).cells == group_rates(m2).cells
    assert pairwise_agreement(m).overall == pairwise_agreement(m2).overall
    assert disagreement_ratios(m).cells == disagreement_ratios(m2).cells


# --- disagreement ratios --------------------------------------------------------


def test_ratio_simple_counts():
    rows = [
        row(0, "no", "yes", "no"),   # disagreement, gpt yes
        row(1, "no", "no", "yes"),   # disagreement, gpt no
        row(2, "no", "no", "yes"),   # disagreement, gpt no
        row(3, "no", "yes", "yes"),  # agreement -> excluded
    ]
    ratios = disagreement_ratios(matrix(rows))
    cell = ratios.cell("gpt", "a")
    assert cell.n_yes == 1 and cell.n_no == 2
    assert cell.ratio == pytest.approx(0.5)
    assert cell.n_disagreements == 3


def test_ratio_undefined_cases():
    only_yes = disagreement_ratios(matrix([row(0, "no", "yes", "no")]))
    assert math.isinf(only_yes.cell("gpt", "a").ratio)
    both_malformed = disagreement_ratios(matrix([row(0, "no", "malformed", "malformed")]))
    assert math.isnan(both_malformed.cell("gpt", "a").ratio)


def test_reciprocity_exact_on_malformed_free():
    rng = random.Random(31)
    for _ in range(20):
        m = random_matrix(rng, 400, malformed_ok=False)
        ratios = disagreement_ratios(m)
        for scope in ratios.scopes:
            a = ratios.cell("gpt", scope)
            b = ratios.cell("llama", scope)
            # each both-valid disagreement gives one model yes, other no
            assert a.n_yes == b.n_no
            assert a.n_no == b.n_yes
            if a.n_no and b.n_no:
                assert Fraction(a.n_yes, a.n_no) * Fraction(b.n_yes, b.n_no) == 1


def test_ratios_match_naive_oracle():
    rng = random.Random(37)
    m = random_matrix(rng, 800)
    ratios = disagreement_ratios(m)
    want = naive_ratios(as_dicts(m), "gpt", "llama")
    for (model, scope), cell in ratios.cells.items():
        expected = want[(model, scope)]
        assert cell.n_yes == expected["n_yes"]
        assert cell.n_no == expected["n_no"]
        assert cell.n_malformed_self == expected["n_malformed_self"]
        assert cell.n_disagreements == expected["n_disagreements"]


def test_malformed_share_fixture():
    # 21,310 disagreements: 5,660 llama-malformed, 704 gpt-malformed,
    # the rest valid-but-unequal; plus agreement rows that must not count.
    rows = []
    i = 0
    for _ in range(5660):
        rows.append(row(i, "no", "yes", "malformed")); i += 1
    for _ in range(704):
        rows.append(row(i, "no", "malformed", "yes")); i += 1
    for _ in range(21310 - 5660 - 704):
        rows.append(row(i, "no", "yes", "no")); i += 1
    for _ in range(1000):  # agreements, outside the subset
        rows.append(row(i, "no", "no", "no")); i += 1
    ratios = disagreement_ratios(matrix(rows))
    llama = ratios.cell("llama", "total")
    gpt = ratios.cell("gpt", "total")
    assert llama.n_disagreements == 21310
    assert abs(llama.pct_malformed - 26.6) <= 0.05
    assert abs(gpt.pct_malformed - 3.3) <= 0.05


def test_ratio_needs_two_models():
    m = LabelMatrix(model_ids=("solo",), rows=[
        MatrixRow("s0", "a", "secular", "yes", ("yes",))
    ])
    with pytest.raises(ValueError):
        disagreement_ratios(m)
