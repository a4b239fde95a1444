"""Scoring a predicted clustering against a gold relation assignment."""

from __future__ import annotations

import reprlib
import warnings
from collections import Counter
from typing import Hashable, Mapping, NamedTuple, Sequence

from .errors import ValidationError


def rand_index(predicted: Mapping[Hashable, Hashable], gold: Mapping[Hashable, Hashable]) -> float:
    """Fraction of item pairs on which the two partitions agree (grouped
    together in both, or apart in both), out of all n-choose-2 pairs of
    predicted's n items; gold's other items do not count."""
    n = len(predicted)
    if n < 2:
        raise ValidationError("rand_index needs at least 2 items")

    # Contingency counts: pairs together in both = sum C(n_ij, 2), etc.
    joint = Counter((predicted[item], gold[item]) for item in predicted)
    pred_sizes = Counter(predicted.values())
    gold_sizes = Counter(gold[item] for item in predicted)

    def choose2(counts) -> int:
        return sum(c * (c - 1) // 2 for c in counts)

    total = n * (n - 1) // 2
    both_together = choose2(joint.values())
    agreements = total + 2 * both_together - choose2(pred_sizes.values()) - choose2(gold_sizes.values())
    return agreements / total


class RelationScore(NamedTuple):
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
        raise ValidationError(f"items without gold relations: {reprlib.repr(sorted(missing))}")

    gold_counts = Counter(r for item in predicted for r in gold[item])
    predictions = Counter(predicted.values())
    correct = Counter(r for item, r in predicted.items() if r in gold[item])

    orphans = sorted(predictions.keys() - gold_counts.keys())
    if orphans:
        warnings.warn(f"predicted relations with zero gold count excluded: {orphans}", stacklevel=2)

    scores = []
    for relation in sorted(gold_counts):
        hits, preds = correct[relation], predictions[relation]
        precision = hits / preds if preds else 0.0
        recall = hits / gold_counts[relation]
        scores.append(RelationScore(relation=relation, recall=recall, precision=precision, f1=_f1(precision, recall)))
    return scores
