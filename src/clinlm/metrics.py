"""Span, set, and classification metrics plus multi-seed aggregation.

Entity scores are strict: a predicted span counts only when its boundaries
and label both match a gold span exactly. Degenerate denominators follow the
usual conventions: precision or recall is 1.0 when both span sets are empty
and 0.0 when only its own denominator is empty; a corpus of none is refused.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True, order=True)
class Span:
    """Half-open labeled interval over sequence positions."""

    start: int
    end: int
    label: str

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")


def bio_tag(tag: str) -> str:
    """tag, when it is O, B-<type> or I-<type>: the one rule of a BIO tag."""
    if tag != "O" and not (tag[:2] in ("B-", "I-") and len(tag) > 2):
        raise ValueError(f"unknown tag {tag!r}")
    return tag


def label_set(text: str) -> set[str]:
    """The |-separated labels of text, each stripped: the one rule of a label
    set. A blank text is the empty set; an empty label is refused."""
    labels = {part.strip() for part in text.split("|")} if text.strip() else set()
    if "" in labels:
        raise ValueError(f"empty label in {text!r}")
    return labels


def label(text: str) -> str:
    """text as one label, stripped as in label_set; a blank one is refused."""
    if not text.strip():
        raise ValueError("empty label")
    return text.strip()


def bio_decode(tags: Sequence[str]) -> list[Span]:
    """Spans from a BIO tag sequence.

    B-x opens a span, I-x continues one of the same type. An I-x with no
    open x-span (after O, at the start, or after a different type) is
    repaired to B-x rather than rejected. A tag bio_tag refuses is an
    error that names its position.
    """
    spans: list[Span] = []
    open_start = open_label = None
    for i, tag in enumerate([*tags, "O"]):  # the final O closes an open span
        try:
            label = None if bio_tag(tag) == "O" else tag[2:]
        except ValueError as exc:
            raise ValueError(f"position {i}: {exc}") from None
        if label != open_label or tag[0] == "B":
            if open_label is not None:
                spans.append(Span(open_start, i, open_label))
            open_start, open_label = i, label
    return spans


def bio_encode(spans: Sequence[Span], length: int) -> list[str]:
    """BIO tags for non-overlapping spans over a sequence of given length."""
    tags = ["O"] * length
    for span in sorted(spans):
        if span.end > length:
            raise ValueError(f"span {span} exceeds sequence length {length}")
        for i in range(span.start, span.end):
            if tags[i] != "O":
                raise ValueError(f"span {span} overlaps another span at {i}")
        tags[span.start] = f"B-{span.label}"
        for i in range(span.start + 1, span.end):
            tags[i] = f"I-{span.label}"
    return tags


def _prf(tp: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    if n_pred == 0 and n_gold == 0:
        return 1.0, 1.0, 1.0
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def entity_f1(gold: set, pred: set) -> tuple[float, float, float]:
    """Exact-match precision, recall, F1 over two span (or any item) sets."""
    return _prf(len(gold & pred), len(pred), len(gold))


def _pooled_prf(pairs) -> tuple[float, float, float]:
    """Precision, recall, F1 with TP/FP/FN summed over (gold set, predicted
    set) pairs before any division."""
    tp = n_pred = n_gold = 0
    for g, p in pairs:
        tp += len(g & p)
        n_pred += len(p)
        n_gold += len(g)
    return _prf(tp, n_pred, n_gold)


def _check_counts(gold: Sequence, pred: Sequence, what: str) -> None:
    """Refuse gold and predicted instances of different counts, or of none."""
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold {what} but {len(pred)} predicted")
    if not gold:
        raise ValueError(f"cannot score an empty list of {what}")


def micro_f1(gold_sets: Sequence[set], pred_sets: Sequence[set]) -> tuple[float, float, float]:
    """Pooled precision, recall, F1: TP/FP/FN are summed over instances
    before any division."""
    _check_counts(gold_sets, pred_sets, "sets")
    return _pooled_prf(zip(gold_sets, pred_sets))


def corpus_entity_f1(gold_tag_seqs: Sequence[Sequence[str]],
                     pred_tag_seqs: Sequence[Sequence[str]],
                     token_level: bool = False) -> tuple[float, float, float]:
    """Entity scores pooled over many tagged sequences.

    The default decodes BIO tags and matches spans exactly. token_level
    instead scores each non-O position: a true positive is a position where
    gold and prediction carry the same non-O tag.
    """
    _check_counts(gold_tag_seqs, pred_tag_seqs, "sequences")

    def items(tags) -> set:
        if token_level:
            return {(i, tag) for i, tag in enumerate(tags) if tag != "O"}
        return set(bio_decode(tags))

    pairs = []
    for gold_tags, pred_tags in zip(gold_tag_seqs, pred_tag_seqs):
        if len(gold_tags) != len(pred_tags):
            raise ValueError("gold and predicted sequences differ in length")
        pairs.append((items(gold_tags), items(pred_tags)))
    return _pooled_prf(pairs)


def accuracy(gold: Sequence, pred: Sequence) -> float:
    _check_counts(gold, pred, "labels")
    return sum(g == p for g, p in zip(gold, pred)) / len(gold)


@dataclass(frozen=True)
class MetricReport:
    """Per-seed values for one metric, with their median and sample spread."""

    values: tuple[float, ...]
    median: float
    stddev: float


def aggregate_seeds(values: Sequence[float]) -> MetricReport:
    """Median and sample standard deviation (n - 1 denominator) over per-seed
    values. A single value reports zero spread; a NaN or infinite value is
    refused by its position (from 1)."""
    if not values:
        raise ValueError("no values to aggregate")
    values = tuple(float(v) for v in values)
    for i, v in enumerate(values, 1):
        if not math.isfinite(v):
            raise ValueError(f"value {i} of {len(values)} is {v}, not a finite number")
    spread = statistics.stdev(values) if len(values) > 1 else 0.0
    return MetricReport(values, float(statistics.median(values)), spread)
