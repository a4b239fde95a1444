"""Scoring a predicted clustering against a gold relation assignment."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from .errors import ValidationError


def rand_index(predicted: Mapping[Hashable, Hashable], gold: Mapping[Hashable, Hashable]) -> float:
    """Fraction of item pairs on which the two partitions agree (grouped
    together in both, or apart in both), out of all n-choose-2 pairs."""
    n = len(predicted)
    if n < 2:
        raise ValidationError("rand_index needs at least 2 items")

    # Contingency counts: pairs together in both = sum C(n_ij, 2), etc.
    joint: dict[tuple[Hashable, Hashable], int] = {}
    pred_sizes: dict[Hashable, int] = {}
    gold_sizes: dict[Hashable, int] = {}
    for item in predicted:
        p, g = predicted[item], gold[item]
        joint[(p, g)] = joint.get((p, g), 0) + 1
        pred_sizes[p] = pred_sizes.get(p, 0) + 1
        gold_sizes[g] = gold_sizes.get(g, 0) + 1

    def choose2(counts) -> int:
        return sum(c * (c - 1) // 2 for c in counts)

    total = n * (n - 1) // 2
    both_together = choose2(joint.values())
    agreements = total + 2 * both_together - choose2(pred_sizes.values()) - choose2(gold_sizes.values())
    return agreements / total


@dataclass(frozen=True)
class RelationScore:
    relation: str
    recall: float
    precision: float
    f1: float


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def prf1(
    predicted: Mapping[Hashable, str],
    gold: Mapping[Hashable, Sequence[str]],
) -> list[RelationScore]:
    """Per-relation precision/recall/F1 of predicted relation assignments.

    A prediction is correct when it matches any of the item's gold
    relations. Recall of r counts over items whose gold set contains r.
    Relations that are predicted but never appear in gold are dropped with
    a warning (their recall denominator would be zero).
    """
    missing = [item for item in predicted if item not in gold]
    if missing:
        raise ValidationError(f"items without gold relations: {sorted(map(str, missing))[:5]}")

    gold_counts: dict[str, int] = {}
    for item in predicted:
        for r in gold[item]:
            gold_counts[r] = gold_counts.get(r, 0) + 1

    predictions: dict[str, int] = {}
    correct: dict[str, int] = {}
    for item, r in predicted.items():
        predictions[r] = predictions.get(r, 0) + 1
        if r in gold[item]:
            correct[r] = correct.get(r, 0) + 1

    orphans = sorted(set(predictions) - set(gold_counts))
    if orphans:
        warnings.warn(f"predicted relations with zero gold count excluded: {orphans}", stacklevel=2)

    scores = []
    for relation in sorted(gold_counts):
        hits = correct.get(relation, 0)
        preds = predictions.get(relation, 0)
        precision = hits / preds if preds else 0.0
        recall = hits / gold_counts[relation]
        scores.append(RelationScore(relation=relation, recall=recall, precision=precision, f1=_f1(precision, recall)))
    return scores
