import numpy as np
import pytest

from fsml.data import build_hierarchy_codes
from fsml.errors import ContractError, DegenerateInputError
from fsml.metrics import (
    ConfusionTable,
    build_report,
    cohens_kappa,
    minority_class_accuracy,
    overall_accuracy,
    parent_level_accuracy,
    seed_mean_std,
    subset_accuracy,
)


def test_overall_accuracy_examples():
    assert overall_accuracy(["a", "a"], ["a", "a"]) == 1.0
    assert overall_accuracy(["a", "b", "a"], ["a", "a", "a"]) == pytest.approx(2 / 3)
    with pytest.raises(ContractError):
        overall_accuracy([], [])


def test_overall_accuracy_matches_loop_oracle():
    rng = np.random.default_rng(1)
    preds = rng.integers(0, 5, size=1000).tolist()
    labels = rng.integers(0, 5, size=1000).tolist()
    correct = 0
    for p, t in zip(preds, labels):
        if p == t:
            correct += 1
    assert overall_accuracy(preds, labels) == correct / 1000


def test_minority_class_accuracy():
    preds = ["maj", "a", "b", "maj"]
    labels = ["maj", "a", "a", "b"]
    # true non-majority samples: (a,a) correct, (a,b)->pred b? labels: a,a,b
    assert minority_class_accuracy(preds, labels, "maj") == pytest.approx(1 / 3)
    # excluded class absent -> equals overall accuracy
    assert minority_class_accuracy(preds, labels, "zzz") == overall_accuracy(preds, labels)
    with pytest.raises(DegenerateInputError):
        minority_class_accuracy(["maj"], ["maj"], "maj")


def test_minority_exclusion_contract():
    preds = ["x", "x", "wrong", "wrong"]
    labels = ["x", "x", "maj", "maj"]
    assert minority_class_accuracy(preds, labels, "maj") == 1.0


def test_minority_matches_filtered_loop_oracle():
    rng = np.random.default_rng(7)
    preds = rng.integers(0, 4, size=500).tolist()
    labels = rng.integers(0, 4, size=500).tolist()
    correct = total = 0
    for p, t in zip(preds, labels):
        if t != 0:
            total += 1
            correct += p == t
    assert minority_class_accuracy(preds, labels, 0) == correct / total


def test_kappa_examples():
    perfect = ConfusionTable(labels=["a", "b"], counts=np.diag([5, 7]))
    assert cohens_kappa(perfect) == 1.0
    chance = ConfusionTable(labels=["a", "b"], counts=np.array([[1, 1], [1, 1]]))
    assert cohens_kappa(chance) == 0.0
    table = ConfusionTable(labels=["a", "b"], counts=np.array([[20, 5], [10, 15]]))
    assert abs(cohens_kappa(table) - 0.4) < 1e-12


def test_kappa_brute_force_oracle():
    rng = np.random.default_rng(3)
    preds = rng.integers(0, 3, size=200).tolist()
    labels = rng.integers(0, 3, size=200).tolist()
    table = ConfusionTable.from_pairs(preds, labels)
    n = len(preds)
    p_o = sum(p == t for p, t in zip(preds, labels)) / n
    p_e = 0.0
    for c in set(labels) | set(preds):
        p_e += (labels.count(c) / n) * (preds.count(c) / n)
    expected = (p_o - p_e) / (1 - p_e)
    assert cohens_kappa(table) == pytest.approx(expected, abs=1e-12)


def test_kappa_degenerate_chance_agreement():
    # p_e = 1 forces all mass into one diagonal cell, so p_o = 1 and kappa = 1;
    # the p_o < 1 branch is defensive and unreachable from real pred/label pairs.
    one_class = ConfusionTable(labels=["a"], counts=np.array([[9]]))
    assert cohens_kappa(one_class) == 1.0
    assert cohens_kappa(ConfusionTable.from_pairs(["a", "a"], ["a", "a"])) == 1.0


def test_kappa_never_exceeds_observed_agreement():
    rng = np.random.default_rng(11)
    for _ in range(50):
        preds = rng.integers(0, 4, size=60).tolist()
        labels = rng.integers(0, 4, size=60).tolist()
        table = ConfusionTable.from_pairs(preds, labels)
        p_o = np.trace(table.counts) / table.total
        assert cohens_kappa(table) <= p_o + 1e-12


def test_parent_level_examples():
    codes, hierarchy = build_hierarchy_codes(2, 4, 8)
    leaf = hierarchy.leaf_level
    preds = [codes[0], codes[4]]
    labels = [codes[0], codes[0]]
    assert parent_level_accuracy(preds, labels, leaf, hierarchy) == overall_accuracy(preds, labels)
    # codes[0] and codes[4] share their level-4 parent by round-robin layout
    assert parent_level_accuracy([codes[4]], [codes[0]], 4, hierarchy) == 1.0
    assert parent_level_accuracy([codes[4]], [codes[0]], leaf, hierarchy) == 0.0
    with pytest.raises(ContractError):
        parent_level_accuracy(preds, labels, 99, hierarchy)


def test_parent_level_monotone_under_coarsening():
    codes, hierarchy = build_hierarchy_codes(3, 9, 30)
    rng = np.random.default_rng(5)
    for _ in range(200):
        preds = [codes[i] for i in rng.integers(0, 30, size=40)]
        labels = [codes[i] for i in rng.integers(0, 30, size=40)]
        a3 = parent_level_accuracy(preds, labels, 3, hierarchy)
        a4 = parent_level_accuracy(preds, labels, 4, hierarchy)
        a6 = parent_level_accuracy(preds, labels, 6, hierarchy)
        assert a3 >= a4 >= a6


def test_subset_accuracy_examples():
    preds = ["a", "b", "c", "a"]
    labels = ["a", "b", "a", "c"]
    full = subset_accuracy(preds, labels, {"a", "b", "c"})
    assert full == overall_accuracy(preds, labels)
    complement = subset_accuracy(preds, labels, {"a", "b"})
    assert complement == minority_class_accuracy(preds, labels, "c")
    with pytest.raises(DegenerateInputError):
        subset_accuracy(preds, labels, {"z"})


def test_subset_matches_filtered_loop_oracle():
    rng = np.random.default_rng(13)
    preds = rng.integers(0, 6, size=400).tolist()
    labels = rng.integers(0, 6, size=400).tolist()
    subset = {0, 2, 5}
    correct = total = 0
    for p, t in zip(preds, labels):
        if t in subset:
            total += 1
            correct += p == t
    assert subset_accuracy(preds, labels, subset) == correct / total


def test_subset_partition_identity():
    rng = np.random.default_rng(17)
    preds = rng.integers(0, 6, size=500).tolist()
    labels = rng.integers(0, 6, size=500).tolist()
    parts = [{0, 1}, {2, 3}, {4, 5}]
    combined = 0.0
    for part in parts:
        weight = sum(1 for t in labels if t in part) / len(labels)
        combined += weight * subset_accuracy(preds, labels, part)
    assert abs(combined - overall_accuracy(preds, labels)) < 1e-12


def test_aggregate_identical_reports_zero_std():
    mean, std = seed_mean_std([0.5] * 3)
    assert mean == 0.5
    assert std == 0.0


def test_aggregate_two_point_formula():
    mean, std = seed_mean_std([0.4, 0.6])
    assert mean == pytest.approx(0.5)
    assert std == pytest.approx(np.sqrt(0.02), abs=1e-12)
    assert std == pytest.approx(0.1414, abs=1e-4)


def test_aggregate_five_reports_matches_scalar_oracle():
    rng = np.random.default_rng(23)
    column = rng.random((5, 4))[:, 0]
    mean, std = seed_mean_std(column)
    oracle_mean = sum(column) / 5
    var = sum((x - oracle_mean) ** 2 for x in column) / 4
    assert mean == pytest.approx(oracle_mean, abs=1e-12)
    assert std == pytest.approx(np.sqrt(var), abs=1e-12)


def test_build_report_end_to_end():
    codes, hierarchy = build_hierarchy_codes(2, 4, 8)
    rng = np.random.default_rng(2)
    labels = [codes[i] for i in rng.integers(0, 8, size=100)]
    preds = [codes[i] for i in rng.integers(0, 8, size=100)]
    report = build_report(
        preds, labels, majority_class=codes[0], hierarchy=hierarchy,
        subsets={"overlap": set(codes[:4])},
    )
    assert 0.0 <= report.overall_accuracy <= 1.0
    assert -1.0 <= report.kappa <= 1.0
    assert set(report.parent_accuracy) == {3, 4, 6}
    assert report.confusion.total == 100
    assert "overlap" in report.subset_accuracy
