"""Evaluation metrics: overall / minority-class / subset accuracy, Cohen's
kappa, hierarchical parent-level accuracy, and the mean and (n-1) standard
deviation over seeds that fill each ``results.csv`` cell."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DegenerateInputError


@dataclass
class ConfusionTable:
    """Square count matrix; rows are true labels, columns are predictions."""

    labels: list
    counts: np.ndarray

    @classmethod
    def from_pairs(cls, preds, labels, roster=None):
        if len(preds) != len(labels):
            raise ContractError(f"length mismatch: {len(preds)} preds, {len(labels)} labels")
        roster = sorted(set(labels) | set(preds)) if roster is None else list(roster)
        index = {label: i for i, label in enumerate(roster)}
        counts = np.zeros((len(roster), len(roster)), dtype=np.int64)
        for p, t in zip(preds, labels):
            counts[index[t], index[p]] += 1
        return cls(labels=roster, counts=counts)

    @property
    def total(self):
        return int(self.counts.sum())


def overall_accuracy(preds, labels):
    """Micro-averaged accuracy: correct / total."""
    if len(preds) != len(labels) or len(labels) == 0:
        raise ContractError("overall_accuracy: need equal-length, non-empty inputs")
    return float(np.mean([p == t for p, t in zip(preds, labels)]))


def minority_class_accuracy(preds, labels, excluded):
    """Accuracy restricted to samples whose TRUE label is not the excluded class."""
    pairs = [(p, t) for p, t in zip(preds, labels) if t != excluded]
    if not pairs:
        raise DegenerateInputError(
            f"minority_class_accuracy: every sample has excluded label {excluded!r}"
        )
    return float(np.mean([p == t for p, t in pairs]))


def subset_accuracy(preds, labels, subset):
    """Accuracy over samples whose true label belongs to the class subset."""
    subset = set(subset)
    pairs = [(p, t) for p, t in zip(preds, labels) if t in subset]
    if not pairs:
        raise DegenerateInputError("subset_accuracy: no true label in subset")
    return float(np.mean([p == t for p, t in pairs]))


def seed_mean_std(values):
    """Mean and sample (n-1) standard deviation of one metric over seeds; the
    deviation of a single seed is 0."""
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def cohens_kappa(confusion):
    """kappa = (p_o - p_e) / (1 - p_e) with chance agreement from the marginals."""
    total = confusion.total
    if total <= 0:
        raise ContractError("cohens_kappa: empty confusion table")
    counts = confusion.counts.astype(np.float64)
    p_o = np.trace(counts) / total
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    p_e = float(rows @ cols) / (total * total)
    if abs(1.0 - p_e) < 1e-15:
        if abs(p_o - 1.0) < 1e-15:
            return 1.0
        raise DegenerateInputError("cohens_kappa: chance agreement is 1 with p_o < 1")
    return float((p_o - p_e) / (1.0 - p_e))


def parent_level_accuracy(preds, labels, level, hierarchy):
    """Correct iff prediction and truth share the level-`level` parent."""
    if len(preds) != len(labels) or len(labels) == 0:
        raise ContractError("parent_level_accuracy: need equal-length, non-empty inputs")
    return float(
        np.mean(
            [
                hierarchy.parent_at(p, level) == hierarchy.parent_at(t, level)
                for p, t in zip(preds, labels)
            ]
        )
    )


@dataclass
class MetricsReport:
    overall_accuracy: float
    minority_accuracy: float | None
    kappa: float
    parent_accuracy: dict = field(default_factory=dict)  # level -> accuracy
    confusion: ConfusionTable | None = None

    def metric_map(self):
        flat = {"overall_accuracy": self.overall_accuracy, "kappa": self.kappa}
        if self.minority_accuracy is not None:
            flat["minority_accuracy"] = self.minority_accuracy
        for level, acc in sorted(self.parent_accuracy.items()):
            flat[f"parent_accuracy/{level}"] = acc
        return flat

    def to_json(self):
        payload = dict(self.metric_map())
        if self.confusion is not None:
            payload["confusion"] = {
                "labels": self.confusion.labels,
                "counts": self.confusion.counts.tolist(),
            }
        return payload


def build_report(preds, labels, majority_class, hierarchy):
    """Assemble the full report for one evaluation run."""
    confusion = ConfusionTable.from_pairs(preds, labels)
    try:
        minority = minority_class_accuracy(preds, labels, majority_class)
    except DegenerateInputError:
        minority = None
    parent = {
        level: parent_level_accuracy(preds, labels, level, hierarchy)
        for level in hierarchy.levels()
    }
    return MetricsReport(
        overall_accuracy=overall_accuracy(preds, labels),
        minority_accuracy=minority,
        kappa=cohens_kappa(confusion),
        parent_accuracy=parent,
        confusion=confusion,
    )
