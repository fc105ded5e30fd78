"""Run settings and their rules, each stated once: the settings classes,
content_room (a row's overhead), the table of task presets, check_setting
(the rule of every int or number setting), check_seeds and check_lr. A refusal is a
SettingError, which carries the setting's name, so the CLI can name its flag
instead. Only the standard library is imported, so the CLI's text commands
start without numpy."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

MIN_FRAME_LENGTH = {False: 3, True: 5}  # a row's fewest positions, a text (False) or a pair
NER_2010_TYPES = ("problem", "treatment", "test")
NER_2012_TYPES = ("clinical", "department", "evidential", "occurrence", "temporal")
RELATION_2010_LABELS = (
    "problem-indicates-problem",
    "test-reveals-problem",
    "test-investigates-problem",
    "treatment-improves-problem",
    "treatment-worsens-problem",
    "treatment-causes-problem",
    "treatment-administered-for-problem",
    "treatment-not-administered-for-problem",
)
NLI_LABELS = ("entailment", "contradiction", "neutral")
# preset name -> (kind, its labels or the packaged file that lists them,
#                 selection metric, concept types); finetune.builtin_task builds each
TASKS = {
    "ner-2010": ("ner", NER_2010_TYPES, "entity_f1", ()),
    "ner-2012": ("ner", NER_2012_TYPES, "entity_f1", ()),
    "re-2010": ("pair", RELATION_2010_LABELS, "micro_f1", NER_2010_TYPES),
    "mednli": ("pair", NLI_LABELS, "accuracy", ()),
    "icd9-top50": ("multilabel", "icd9_top50.txt", "micro_f1", ()),
    "therapeutic-class": ("multilabel", "therapeutic_classes.txt", "micro_f1", ()),
}
TASK_NAMES = tuple(TASKS)


class SettingError(ValueError):
    """A refused setting: its name, then what is wrong with its value."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name} {detail}")
        self.name, self.detail = name, detail


def check_setting(name: str, value, kind: str, least: int | None = 1) -> None:
    """Refuse a setting that does not fit its annotation kind: an int is an
    int >= least (any int when least is None), a float any number, neither a
    bool, and "X | None" allows None."""
    optional, integral = kind.endswith(" | None"), kind.startswith("int")
    if optional and value is None:
        return
    number = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, number):
        raise SettingError(name, f"must be {'an int' if integral else 'a number'}, got {value!r}")
    if integral and least is not None and value < least:
        raise SettingError(name, f"must be >= {least}{' when given' if optional else ''}, "
                                 f"got {value}")


def check_fields(settings) -> None:
    """check_setting on every field of a settings dataclass."""
    for f in fields(settings):
        check_setting(f.name, getattr(settings, f.name), f.type)


def check_seeds(name: str, seeds) -> None:
    """The rule of every seed: an int >= 0, or a non-empty list of them, none twice."""
    many = isinstance(seeds, list)
    if many and not seeds:
        raise SettingError(name, "must hold at least one seed, got []")
    for seed in seeds if many else [seeds]:
        check_setting(name, seed, "int", least=0)
    if many and len(set(seeds)) < len(seeds):
        raise SettingError(name, f"must be distinct, got {seeds}")


def check_lr(lr) -> None:
    """Refuse a learning rate that is not finite and positive."""
    if not 0 < lr < math.inf:
        raise SettingError("lr", f"must be finite and positive, got {lr}")


def content_room(length: int, pair: bool) -> int:
    """How many content pieces a row of `length` positions holds: all but its
    [CLS] and a [SEP] per text. The one statement of a row's overhead; a
    length below MIN_FRAME_LENGTH[pair] is refused with that minimum."""
    if length < MIN_FRAME_LENGTH[pair]:
        raise ValueError(f"length {length} is below {MIN_FRAME_LENGTH[pair]}, the fewest "
                         f"positions of a {'two-text ' if pair else ''}row")
    return length - (3 if pair else 2)


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    hidden_dim: int = 64
    n_layers: int = 2
    n_heads: int = 2
    ff_dim: int = 128
    max_positions: int = 32
    dropout: float = 0.0

    def __post_init__(self):
        from .wordpiece import SPECIALS  # here, as wordpiece imports this module
        check_fields(self)
        if self.vocab_size < len(SPECIALS):
            raise SettingError("vocab_size", f"must cover the {len(SPECIALS)} special tokens, "
                                             f"got {self.vocab_size}")
        if self.hidden_dim % self.n_heads != 0:
            raise SettingError("hidden_dim", f"{self.hidden_dim} not divisible by n_heads "
                                             f"{self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise SettingError("dropout", f"must be in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class MaskingPolicy:
    mask_prob: float = 0.15

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.mask_prob <= 1.0:  # at 0 no slot is ever a target
            raise SettingError("mask_prob", f"must be in (0, 1], got {self.mask_prob}")


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3

    def __post_init__(self):
        check_fields(self)
        check_lr(self.lr)


@dataclass(frozen=True)
class AccumulationConfig:
    micro_batch_size: int
    accumulation_steps: int
    effective_batch: int

    def __post_init__(self):
        check_fields(self)
        if self.effective_batch != self.micro_batch_size * self.accumulation_steps:
            raise SettingError("effective_batch", f"{self.effective_batch} != "
                               f"{self.micro_batch_size} * {self.accumulation_steps}")


@dataclass(frozen=True)
class PhasePlan:
    """Sequence-length curriculum: (max_seq_len, n_steps) stages in order."""

    phases: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.phases:
            raise ValueError("phase plan is empty")
        previous = 0
        for max_len, steps in self.phases:
            check_setting("phase length", max_len, "int", least=None)
            content_room(max_len, False)  # a length's floor: a row's fewest positions
            check_setting("phase step count", steps, "int")
            if max_len < previous:
                raise ValueError("phase lengths must be non-decreasing")
            previous = max_len

    @property
    def total_steps(self) -> int:
        return sum(steps for _, steps in self.phases)

    def max_length(self) -> int:
        return self.phases[-1][0]


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = 3
    batch_size: int = 8
    lr: float = 1e-3
    max_steps: int | None = None

    def __post_init__(self):
        check_fields(self)
        check_lr(self.lr)
