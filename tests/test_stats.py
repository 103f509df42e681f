import random
from fractions import Fraction

import pytest

from builders import label_matrix, oracle_rows
from oracles import naive_agreement, naive_rates, naive_ratios
from sacreddetect.analytics import disagreement_ratios, group_rates, pairwise_agreement


def row(tree, gpt, llama, ngo="a", group="secular"):
    return (ngo, group, tree, gpt, llama)


def matrix(rows):
    return label_matrix(rows)


def random_rows(rng, n_rows, malformed_ok=True):
    ngos = [("a", "secular"), ("b", "secular"), ("c", "religious"), ("d", "religious")]
    labels = ["yes", "no", "malformed"] if malformed_ok else ["yes", "no"]
    rows = []
    for _ in range(n_rows):
        ngo, group = rng.choice(ngos)
        rows.append(
            row(
                rng.choice(["yes", "no"]),  # tree labels are never malformed
                rng.choice(labels),
                rng.choice(labels),
                ngo=ngo,
                group=group,
            )
        )
    return rows


def random_matrix(rng, n_rows, malformed_ok=True):
    return matrix(random_rows(rng, n_rows, malformed_ok))


# --- group rates --------------------------------------------------------------


def test_all_yes_single_ngo():
    m = matrix([row("yes", "yes", "yes") for _ in range(4)])
    rates = group_rates(m)
    assert rates["tree|a"]["pct_yes"] == 100.0
    assert rates["tree|a"]["pct_no"] == 0.0


def test_malformed_gap():
    rows = [row("yes", "yes", "yes"), row("no", "no", "no"),
            row("no", "no", "no"), row("yes", "malformed", "yes")]
    rates = group_rates(matrix(rows))
    cell = rates["gpt|a"]
    assert cell["pct_yes"] + cell["pct_no"] == 75.0
    assert 100.0 * cell["n_malformed"] / cell["n"] == 25.0


def test_tree_rates_always_sum_to_hundred():
    rng = random.Random(5)
    m = random_matrix(rng, 500)
    rates = group_rates(m)
    for scope in m.scopes():
        cell = rates[f"tree|{scope}"]
        assert cell["pct_yes"] + cell["pct_no"] == pytest.approx(100.0, abs=1e-9)


def test_totals_pool_sentences_across_ngos():
    rows = [row("yes", "yes", "yes", ngo="a", group="secular") for _ in range(3)]
    rows += [row("no", "no", "no", ngo="b", group="secular") for _ in range(1)]
    rates = group_rates(matrix(rows))
    assert rates["tree|secular_total"]["pct_yes"] == pytest.approx(75.0)


def test_weighted_total_identity():
    rng = random.Random(11)
    m = random_matrix(rng, 2000)
    rates = group_rates(m)
    total = rates["tree|total"]
    pooled = 100.0 * total["n_yes"] / total["n"]
    # weighted mean of per-NGO percentages, weights = sentence counts
    ngo_scopes = [s for s in m.scopes() if not s.endswith("total")]
    weighted = sum(
        rates[f"tree|{s}"]["pct_yes"] * rates[f"tree|{s}"]["n"] for s in ngo_scopes
    ) / sum(rates[f"tree|{s}"]["n"] for s in ngo_scopes)
    assert weighted == pytest.approx(pooled, abs=1e-9)
    assert total["pct_yes"] == pytest.approx(pooled, abs=1e-12)


def test_rates_match_naive_oracle():
    rng = random.Random(3)
    m = random_matrix(rng, 1000)
    rates = group_rates(m)
    want = naive_rates(oracle_rows(m), ["tree", "gpt", "llama"])
    for (classifier, scope), expected in want.items():
        cell = rates[f"{classifier}|{scope}"]
        assert cell["n"] == expected["n"]
        assert cell["n_yes"] == expected["n_yes"]
        assert cell["pct_yes"] == expected["pct_yes"]
        assert cell["pct_no"] == expected["pct_no"]


# --- agreement ----------------------------------------------------------------


def test_unanimous_agreement():
    m = matrix([row("yes", "yes", "yes"), row("no", "no", "no")])
    agreement = pairwise_agreement(m)
    assert agreement["overall"]["a"] == 100.0
    for pair_values in agreement["pairwise"].values():
        assert pair_values["a"] == 100.0


def test_malformed_counts_as_disagreement():
    m = matrix([row("yes", "yes", "malformed")])
    agreement = pairwise_agreement(m)
    assert agreement["pairwise"]["gpt&llama"]["a"] == 0.0
    assert agreement["pairwise"]["tree&gpt"]["a"] == 100.0
    assert agreement["pairwise"]["tree&llama"]["a"] == 0.0
    assert agreement["overall"]["a"] == 0.0


def test_agreement_matches_naive_oracle():
    rng = random.Random(17)
    m = random_matrix(rng, 1000)
    agreement = pairwise_agreement(m)
    want = naive_agreement(oracle_rows(m), ["tree", "gpt", "llama"])
    for pair, scoped in agreement["pairwise"].items():
        a, b = pair.split("&")
        for scope, value in scoped.items():
            assert value == want["pairwise"][(a, b, scope)]
    assert agreement["overall"] == want["overall"]


def test_overall_bounded_by_pairwise():
    rng = random.Random(23)
    for _ in range(10):
        m = random_matrix(rng, 300)
        agreement = pairwise_agreement(m)
        for scope in agreement["overall"]:
            minimum = min(scoped[scope] for scoped in agreement["pairwise"].values())
            assert agreement["overall"][scope] <= minimum + 1e-12


def test_permutation_invariance():
    rng = random.Random(29)
    rows = random_rows(rng, 400)
    m = matrix(rows)
    shuffled_rows = list(rows)
    rng.shuffle(shuffled_rows)
    m2 = matrix(shuffled_rows)
    assert group_rates(m) == group_rates(m2)
    assert pairwise_agreement(m)["overall"] == pairwise_agreement(m2)["overall"]
    assert disagreement_ratios(m) == disagreement_ratios(m2)


# --- disagreement ratios --------------------------------------------------------


def test_ratio_simple_counts():
    rows = [
        row("no", "yes", "no"),   # disagreement, gpt yes
        row("no", "no", "yes"),   # disagreement, gpt no
        row("no", "no", "yes"),   # disagreement, gpt no
        row("no", "yes", "yes"),  # agreement -> excluded
    ]
    ratios = disagreement_ratios(matrix(rows))
    cell = ratios["gpt|a"]
    assert cell["n_yes"] == 1 and cell["n_no"] == 2
    assert cell["ratio"] == pytest.approx(0.5)
    assert cell["n_disagreements"] == 3


def test_ratio_undefined_cases():
    only_yes = disagreement_ratios(matrix([row("no", "yes", "no")]))
    assert only_yes["gpt|a"]["ratio"] == "inf"
    both_malformed = disagreement_ratios(matrix([row("no", "malformed", "malformed")]))
    assert both_malformed["gpt|a"]["ratio"] is None


def test_reciprocity_exact_on_malformed_free():
    rng = random.Random(31)
    for _ in range(20):
        m = random_matrix(rng, 400, malformed_ok=False)
        ratios = disagreement_ratios(m)
        for scope in m.scopes():
            a = ratios[f"gpt|{scope}"]
            b = ratios[f"llama|{scope}"]
            # each both-valid disagreement gives one model yes, other no
            assert a["n_yes"] == b["n_no"]
            assert a["n_no"] == b["n_yes"]
            if a["n_no"] and b["n_no"]:
                assert Fraction(a["n_yes"], a["n_no"]) * Fraction(b["n_yes"], b["n_no"]) == 1


def test_ratios_match_naive_oracle():
    rng = random.Random(37)
    m = random_matrix(rng, 800)
    ratios = disagreement_ratios(m)
    want = naive_ratios(oracle_rows(m), "gpt", "llama")
    for key, cell in ratios.items():
        expected = want[tuple(key.split("|"))]
        assert cell["n_yes"] == expected["n_yes"]
        assert cell["n_no"] == expected["n_no"]
        assert cell["n_malformed_self"] == expected["n_malformed_self"]
        assert cell["n_disagreements"] == expected["n_disagreements"]


def test_malformed_share_fixture():
    # 21,310 disagreements: 5,660 llama-malformed, 704 gpt-malformed,
    # the rest valid-but-unequal; plus agreement rows that must not count.
    rows = []
    for _ in range(5660):
        rows.append(row("no", "yes", "malformed"))
    for _ in range(704):
        rows.append(row("no", "malformed", "yes"))
    for _ in range(21310 - 5660 - 704):
        rows.append(row("no", "yes", "no"))
    for _ in range(1000):  # agreements, outside the subset
        rows.append(row("no", "no", "no"))
    ratios = disagreement_ratios(matrix(rows))
    llama = ratios["llama|total"]
    gpt = ratios["gpt|total"]
    assert llama["n_disagreements"] == 21310
    assert abs(llama["pct_malformed"] - 26.6) <= 0.05
    assert abs(gpt["pct_malformed"] - 3.3) <= 0.05


def test_ratio_needs_two_models():
    m = label_matrix([("a", "secular", "yes", "yes")], models=("solo",))
    with pytest.raises(ValueError):
        disagreement_ratios(m)
