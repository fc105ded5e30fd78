"""Clinical-inference probe suite.

A probe instance is a premise stating a clinical finding, a hypothesis
claiming something about it, and a gold entailment label. Instances fall in
three categories: numeric (a measured value against a reference range),
clinical-state, and temporal. For numeric instances whose analyte has a
catalogued reference range, the gold label is fully determined by where the
value falls relative to the range the hypothesis claims; the suite loader
recomputes every such label and refuses to load if any printed label
disagrees with the rule, so the shipped fixture is guaranteed
oracle-consistent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence

from . import corpus

ENTAILMENT = "Entailment"
CONTRADICTION = "Contradiction"
NEUTRAL = "Neutral"
LABELS = (ENTAILMENT, CONTRADICTION, NEUTRAL)
CATEGORIES = ("numeric", "clinical-state", "temporal")

_NUMBER = re.compile(r"\d+(?:\.\d+)?")


@dataclass(frozen=True)
class Band:
    """One named interval of an analyte's scale. None bounds are unbounded;
    inclusivity is per endpoint (reference ranges are quoted inclusively,
    strict thresholds exclusively)."""

    name: str
    low: float | None = None
    high: float | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    def contains(self, value: float) -> bool:
        if self.low is not None:
            if value < self.low or (value == self.low and not self.low_inclusive):
                return False
        if self.high is not None:
            if value > self.high or (value == self.high and not self.high_inclusive):
                return False
        return True


@dataclass(frozen=True)
class ReferenceRange:
    """An analyte's banded scale plus the premise phrases that name it."""

    analyte: str
    unit: str
    bands: tuple[Band, ...]
    premise_phrases: tuple[str, ...]

    def band_of(self, value: float) -> str:
        for band in self.bands:
            if band.contains(value):
                return band.name
        raise ValueError(f"{self.analyte} value {value} falls in no band")


def _low_normal_high(low: float, high: float) -> tuple[Band, ...]:
    return (
        Band("low", high=low, high_inclusive=False),
        Band("normal", low=low, high=high),
        Band("high", low=high, low_inclusive=False),
    )


REFERENCE_RANGES: dict[str, ReferenceRange] = {
    r.analyte: r for r in (
        ReferenceRange("glucose", "mg/dL", _low_normal_high(70, 100),
                       ("blood glucose", "glucose")),
        # claims key on the systolic reading; 120 is the quoted upper limit,
        # 90 the conventional hypotension threshold
        ReferenceRange("blood pressure", "mmHg", _low_normal_high(90, 120),
                       ("blood pressure",)),
        ReferenceRange("bmi", "kg/m2", (
            Band("underweight", high=18.5, high_inclusive=False),
            Band("normal", low=18.5, high=24.9),
            Band("overweight", low=25, high=29.9),
            Band("obese", low=30),
        ), ("bmi",)),
        ReferenceRange("pulse", "bpm", _low_normal_high(60, 100), ("pulse",)),
        ReferenceRange("calcium", "mg/dL", _low_normal_high(9, 10.5),
                       ("serum calcium", "calcium")),
        ReferenceRange("albumin", "g/dL", _low_normal_high(3.5, 5.5),
                       ("serum albumin", "albumin")),
        ReferenceRange("globulins", "g/dL", _low_normal_high(2.5, 3.5),
                       ("serum globulins", "globulins")),
        ReferenceRange("ldl", "mg/dL", (
            Band("normal", high=130),
            Band("high", low=130, low_inclusive=False),
        ), ("ldl",)),
        ReferenceRange("epinephrine", "ng/L", (
            Band("normal", high=75, high_inclusive=False),
            Band("high", low=75),
        ), ("plasma epinephrine", "epinephrine")),
        ReferenceRange("potassium", "meq/L", _low_normal_high(3.5, 5.0),
                       ("serum potassium", "potassium")),
    )
}

# hypothesis phrase -> (analyte, claimed band). Phrases for analytes without
# a catalogued range (sodium, cholesterol, hematocrit) still resolve so that
# claims about a different analyte than the premise measures come out
# Neutral.
CLAIM_LEXICON: dict[str, tuple[str, str]] = {
    "hyperglycemia": ("glucose", "high"),
    "hypoglycemia": ("glucose", "low"),
    "high blood glucose": ("glucose", "high"),
    "low blood glucose": ("glucose", "low"),
    "high blood sugar": ("glucose", "high"),
    "low blood sugar": ("glucose", "low"),
    "hypertension": ("blood pressure", "high"),
    "hypotension": ("blood pressure", "low"),
    "in shock": ("blood pressure", "low"),
    "obese": ("bmi", "obese"),
    "overweight": ("bmi", "overweight"),
    "underweight": ("bmi", "underweight"),
    "healthy weight": ("bmi", "normal"),
    "tachycardia": ("pulse", "high"),
    "bradycardia": ("pulse", "low"),
    "hypercalcemia": ("calcium", "high"),
    "hypocalcemia": ("calcium", "low"),
    "normal serum calcium": ("calcium", "normal"),
    "hyperalbuminemia": ("albumin", "high"),
    "hypoalbuminemia": ("albumin", "low"),
    "high albumin": ("albumin", "high"),
    "low albumin": ("albumin", "low"),
    "high globulins": ("globulins", "high"),
    "low globulins": ("globulins", "low"),
    "high ldl": ("ldl", "high"),
    "epinephrine is high": ("epinephrine", "high"),
    "hyperkalemia": ("potassium", "high"),
    "hypokalemia": ("potassium", "low"),
    "hypernatremia": ("sodium", "high"),
    "hyponatremia": ("sodium", "low"),
    "high cholesterol": ("cholesterol", "high"),
    "anemic": ("hematocrit", "low"),
}


def resolve_claim(hypothesis: str) -> tuple[str, str]:
    """Map a hypothesis to (analyte, claimed band) via the longest lexicon
    phrase it contains."""
    text = hypothesis.lower()
    matches = [p for p in CLAIM_LEXICON if p in text]
    if not matches:
        raise ValueError(
            f"hypothesis {hypothesis!r} contains no known claim phrase; "
            f"known phrases: {sorted(CLAIM_LEXICON)}"
        )
    return CLAIM_LEXICON[max(matches, key=len)]


def parse_value(premise: str, analyte: str) -> float:
    """First decimal number after the analyte's name in the premise. A
    compound reading like 60/0 yields its first component (the systolic
    value for blood pressure)."""
    ranges = REFERENCE_RANGES.get(analyte)
    phrases = ranges.premise_phrases if ranges else (analyte,)
    text = premise.lower()
    for phrase in sorted(phrases, key=len, reverse=True):
        at = text.find(phrase)
        if at < 0:
            continue
        match = _NUMBER.search(premise, at + len(phrase))
        if match:
            return float(match.group())
    raise ValueError(f"no {analyte} value found in premise {premise!r}")


def numeric_probe_oracle(analyte: str, value: float, hypothesis: str) -> str:
    """Gold label for a numeric probe.

    A claim about a different analyte than the one measured is Neutral.
    Otherwise the claim names a band of the analyte's scale, and the label
    is Entailment exactly when the value falls in the claimed band,
    Contradiction otherwise (whether the value sits inside the reference
    interval while the claim says abnormal, or beyond the opposite bound).
    """
    if analyte not in REFERENCE_RANGES:
        raise ValueError(f"no reference range for analyte {analyte!r}")
    claim_analyte, claim_band = resolve_claim(hypothesis)
    if claim_analyte != analyte:
        return NEUTRAL
    value_band = REFERENCE_RANGES[analyte].band_of(value)
    return ENTAILMENT if value_band == claim_band else CONTRADICTION


@dataclass(frozen=True)
class ProbeInstance:
    premise: str
    hypothesis: str
    gold: str
    category: str
    analyte: str | None = None
    value: float | None = None

    @property
    def oracle_covered(self) -> bool:
        return (self.category == "numeric" and self.analyte in REFERENCE_RANGES
                and self.value is not None)


def load_probe_suite(path=None) -> list[ProbeInstance]:
    """Load the probe fixture (the packaged one by default) and verify it.

    Every numeric instance's value must re-parse from its premise, and for
    every instance covered by a reference range the printed gold label must
    equal the oracle's label. Any disagreement is a loading error naming
    the file and line of the offending row.
    """
    return corpus.read_table(path, "probe_suite.tsv",
                             "premise\thypothesis\tgold\tcategory\tanalyte\tvalue", _probe_row)


def check_label(label: str) -> str:
    """label, when it is one of the three entailment labels."""
    if label not in LABELS:
        raise ValueError(f"unknown label {label!r}, expected one of {', '.join(LABELS)}")
    return label


def _probe_row(premise, hypothesis, gold, category, analyte, value_text) -> ProbeInstance:
    check_label(gold)
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}")
    value = float(value_text) if value_text else None
    inst = ProbeInstance(premise, hypothesis, gold, category, analyte or None, value)
    if inst.analyte is not None and inst.value is not None:
        reparsed = parse_value(premise, inst.analyte)
        if reparsed != inst.value:
            raise ValueError(f"premise parses to {reparsed}, fixture says {inst.value}")
    if inst.oracle_covered:
        expected = numeric_probe_oracle(inst.analyte, inst.value, hypothesis)
        if expected != gold:
            raise ValueError(
                f"oracle gives {expected} but fixture prints {gold} "
                f"for premise {premise!r} / hypothesis {hypothesis!r}"
            )
    return inst


@dataclass(frozen=True)
class ProbeReport:
    per_category: dict[str, tuple[int, float]]  # category -> (n, accuracy)
    overall_n: int
    overall_accuracy: float
    predictions: tuple[str, ...]

    def format(self) -> str:
        lines = ["category\tn\taccuracy"]
        for category in CATEGORIES:
            n, acc = self.per_category[category]
            lines.append(f"{category}\t{n}\t{acc:.4f}")
        lines.append(f"overall\t{self.overall_n}\t{self.overall_accuracy:.4f}")
        return "\n".join(lines)


def run_probes(predict: Callable[[str, str], str],
               instances: Sequence[ProbeInstance]) -> ProbeReport:
    """Score a premise/hypothesis classifier on the suite, per category and
    overall. The classifier must return one of the three entailment labels
    for every instance."""
    if not instances:
        raise ValueError("no probe instances to score")
    predictions = []
    correct = {c: 0 for c in CATEGORIES}
    totals = {c: 0 for c in CATEGORIES}
    for inst in instances:
        label = check_label(predict(inst.premise, inst.hypothesis))
        predictions.append(label)
        totals[inst.category] += 1
        if label == inst.gold:
            correct[inst.category] += 1
    per_category = {
        c: (totals[c], correct[c] / totals[c] if totals[c] else 0.0)
        for c in CATEGORIES
    }
    n = len(instances)
    overall = sum(correct.values()) / n
    return ProbeReport(per_category=per_category, overall_n=n,
                       overall_accuracy=overall, predictions=tuple(predictions))
