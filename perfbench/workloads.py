"""Workload definitions and their seeded input generators.

A workload fixes the sizes of every pipeline stage; its inputs (notes,
tagged sentences, premise/hypothesis pairs, documents) are generated here
from the run's seed with Python's own `random`, so the library under test
only ever receives generated text and configs. The same seed always gives
the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

SUBJECTS = ("patient", "resident", "veteran", "client")
SYMPTOMS = ("cough", "rash", "fever", "nausea", "fatigue", "pain",
            "swelling", "dizziness", "headache", "tremor")
SITES = ("chest", "arm", "leg", "back", "neck", "abdomen", "shoulder",
         "knee", "wrist", "ankle")
DRUGS = ("aspirin", "insulin", "heparin", "statins", "steroids")
# Syllables for the synthetic term lexicon: shared pieces make wordpiece
# merges meaningful, and random concatenation yields thousands of types.
SYLLABLES = ("car", "di", "o", "neph", "ro", "hep", "a", "to", "gas", "tro",
             "en", "ter", "i", "tis", "sis", "path", "y", "ec", "my", "pul",
             "mon", "al", "ren", "cer", "eb", "ost", "eo", "derm", "at", "lym",
             "ph", "oma", "cyt", "e", "mia", "ur", "ia", "gly", "col", "neur",
             "lith", "pan", "cre", "ves")
# Analyte -> (premise phrase, low, high, decimals) for the numeric pair task;
# values are drawn on [low, high] and labelled by the library's oracle.
ANALYTES = {
    "glucose": ("blood glucose", 40, 300, 0),
    "blood pressure": ("blood pressure", 60, 200, 0),
    "bmi": ("bmi", 14, 42, 0),
    "pulse": ("pulse", 35, 160, 0),
    "calcium": ("calcium", 7.0, 12.5, 1),
    "potassium": ("potassium", 2.5, 6.5, 1),
}
CLAIMS = ("hyperglycemia", "hypoglycemia", "hypertension", "hypotension",
          "obese", "overweight", "underweight", "tachycardia", "bradycardia",
          "hypercalcemia", "hypocalcemia", "hyperkalemia", "hypokalemia",
          "hyponatremia", "anemic")
NOTE_LINES = 64  # lines per discharge summary; enough to pass the 2000-char filter
SPLIT_RATIOS = (0.8, 0.1, 0.1)


@dataclass(frozen=True)
class TaskPlan:
    """One fine-tuning task: row length, data sizes and training budget."""

    kind: str  # "ner" | "pair" | "multilabel"
    positions: int
    n_train: int
    n_dev: int
    n_infer: int  # 0 for ner, which infers on the test-split notes
    seeds: int
    max_steps: int
    epochs: int = 20
    batch_size: int = 8
    lr: float = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    patients: int
    lexicon_types: int  # 0: only the small desk grammar
    lexicon_per_line: int
    vocab_size: int
    min_frequency: int
    vocab_passes: int  # repeat cheap vocabulary training so its rate is measurable
    encode_passes: int
    hidden: int
    layers: int
    heads: int
    ff: int
    max_positions: int
    # Pretraining phases. Long phases are split into short equal ones, since
    # each phase is one timed unit; a phase re-packs and reshuffles the rows.
    plan: tuple[tuple[int, int], ...]
    micro_batch: int
    accum: int
    pretrain_lr: float
    tasks: tuple[TaskPlan, ...]
    setup_stages: tuple[str, ...]  # stages run in set-up instead of each iteration
    setup_reps: int

    def smoke(self) -> "Workload":
        """The smallest version of this workload, for the smoke test."""
        return replace(
            self,
            patients=10,
            lexicon_types=min(self.lexicon_types, 200),
            vocab_passes=1,
            encode_passes=1,
            plan=tuple((length, 2) for length in sorted({length for length, _ in self.plan})),
            tasks=tuple(replace(t, n_train=16, n_dev=8, n_infer=min(t.n_infer, 8), seeds=1,
                                max_steps=2)
                        for t in self.tasks),
            setup_reps=1,
        )


WORKLOADS = {
    w.name: w for w in (
        # The acceptance suite's desk pipeline: tiny matrices, so per-call
        # dispatch, Adam's per-tensor loop and masking's Python loop dominate.
        Workload(
            name="desk",
            patients=10, lexicon_types=0, lexicon_per_line=0,
            vocab_size=200, min_frequency=1, vocab_passes=8, encode_passes=20,
            hidden=32, layers=2, heads=2, ff=64, max_positions=32,
            plan=((16, 20),) * 5 + ((32, 10),) * 5, micro_batch=8, accum=1, pretrain_lr=1e-3,
            tasks=(TaskPlan("ner", positions=32, n_train=160, n_dev=40, n_infer=0,
                            seeds=3, max_steps=40, lr=3e-3),
                   TaskPlan("pair", positions=32, n_train=64, n_dev=32, n_infer=64,
                            seeds=1, max_steps=16)),
            setup_stages=("generate", "corpus", "vocab", "encode"), setup_reps=9,
        ),
        # Kernel-bound pretraining at hidden 128 on packed rows (no padding),
        # and the only heavy vocabulary training: thousands of word types.
        Workload(
            name="mid-pretrain",
            patients=40, lexicon_types=4000, lexicon_per_line=2,
            vocab_size=160, min_frequency=2, vocab_passes=1, encode_passes=4,
            hidden=128, layers=4, heads=4, ff=512, max_positions=128,
            plan=((64, 2),) * 5 + ((128, 1),) * 3, micro_batch=4, accum=2, pretrain_lr=3e-3,
            tasks=(TaskPlan("pair", positions=32, n_train=64, n_dev=128, n_infer=256,
                            seeds=2, max_steps=16, lr=3e-3),),
            setup_stages=("generate", "corpus", "vocab", "encode"), setup_reps=5,
        ),
        # All three task kinds at 64 positions plus batched forward-only
        # inference: padding waste is high for NER and near zero for documents.
        Workload(
            name="finetune-infer",
            patients=40, lexicon_types=0, lexicon_per_line=0,
            vocab_size=200, min_frequency=1, vocab_passes=8, encode_passes=10,
            hidden=32, layers=2, heads=2, ff=64, max_positions=64,
            plan=((32, 10),) * 6, micro_batch=8, accum=1, pretrain_lr=1e-3,
            tasks=(TaskPlan("ner", positions=64, n_train=160, n_dev=16, n_infer=0,
                            seeds=2, max_steps=30, lr=3e-3),
                   TaskPlan("pair", positions=64, n_train=96, n_dev=32, n_infer=64,
                            seeds=2, max_steps=8),
                   TaskPlan("multilabel", positions=64, n_train=64, n_dev=32,
                            n_infer=64, seeds=2, max_steps=8)),
            setup_stages=("generate", "corpus", "vocab", "encode", "pretrain", "checkpoint"),
            setup_reps=3,
        ),
    )
}


def ner_tag(word: str) -> str:
    """Gold tag of the separable desk grammar: symptoms are problems, drugs
    are treatments, everything else is outside."""
    if word in SYMPTOMS:
        return "B-problem"
    if word in DRUGS:
        return "B-treatment"
    return "O"


def _measurement(rng: random.Random, analyte: str) -> tuple[str, float]:
    phrase, low, high, decimals = ANALYTES[analyte]
    value = round(rng.uniform(low, high), decimals)
    if decimals == 0:
        value = float(int(value))
    text = f"{value:.{decimals}f}"
    return f"the patient's {phrase} is {text}", float(text)


class DeskGrammar:
    """The acceptance suite's desk grammar (criteria 5 and 7): sentence i
    combines subject i mod 4, symptom i mod 10, site 3i + 1 mod 10 and drug
    i mod 5, alternating two templates, so the stream repeats every 20
    sentences. The seed permutes each word list and picks the start."""

    def __init__(self, rng: random.Random):
        self.words = [rng.sample(ws, len(ws)) for ws in (SUBJECTS, SYMPTOMS, SITES, DRUGS)]
        self.i = rng.randrange(20)

    def sentence(self) -> str:
        subjects, symptoms, sites, drugs = self.words
        i = self.i
        self.i += 1
        s, sym, site = subjects[i % 4], symptoms[i % 10], sites[(3 * i + 1) % 10]
        if i % 2 == 0:
            return f"the {s} reports {sym} in the {site}"
        return f"the {s} takes {drugs[i % 5]} for {sym} of the {site}"


def make_lexicon(rng: random.Random, n_types: int) -> list[str]:
    taken = set(SUBJECTS + SYMPTOMS + SITES + DRUGS)
    lexicon: set[str] = set()
    while len(lexicon) < n_types:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in taken:
            lexicon.add(word)
    words = sorted(lexicon)
    rng.shuffle(words)
    return words


@dataclass
class Inputs:
    notes: list[dict]
    # task kind -> split ("train", "dev", "infer") -> rows: (words, tags) for
    # ner, (premise, hypothesis, label) for pair, (text, label ids) for
    # multilabel. NER inference reads the test-split notes instead.
    rows: dict[str, dict[str, list]] = field(default_factory=dict)


def _notes(rng: random.Random, w: Workload, grammar: DeskGrammar) -> list[dict]:
    """One kept discharge summary per patient, plus notes the discharge
    filter must drop: a nursing note, a short note, and a shorter duplicate
    of the same encounter."""
    lexicon = make_lexicon(rng, w.lexicon_types) if w.lexicon_types else []
    # Each note names its own share of the lexicon once, then repeats words
    # drawn with Zipf frequencies; every note holds the same share, so the
    # number of word types in the training split does not depend on which
    # patients the split puts there.
    share = len(lexicon) // w.patients

    notes = []
    for p in range(w.patients):
        pid, enc = f"P{p:04d}", f"E{p:04d}"
        pending = lexicon[p * share:(p + 1) * share]

        def term():
            if pending:
                return pending.pop()
            return lexicon[min(int(rng.paretovariate(1.0)) - 1, len(lexicon) - 1)]

        lines = []
        for _ in range(NOTE_LINES):
            line = grammar.sentence()
            if lexicon:
                line += " with " + " and ".join(term() for _ in range(w.lexicon_per_line))
            lines.append(line)
        text = "\n".join(lines)
        if len(text) <= 2000:
            raise ValueError("generated discharge summary is too short for the filter")
        base = dict(patient_id=pid, encounter_id=enc, note_type="Discharge summary")
        notes.append(dict(base, note_id=f"N{p:04d}a", provider_type="physician", text=text))
        notes.append(dict(base, note_id=f"N{p:04d}b", provider_type="nursing", text=text))
        notes.append(dict(base, note_id=f"N{p:04d}c", provider_type="physician",
                          text="\n".join(lines[:NOTE_LINES // 2])))
        notes.append(dict(base, note_id=f"N{p:04d}d", provider_type="physician",
                          text=lines[0], encounter_id=f"E{p:04d}x"))
    return notes


def _ner_rows(grammar: DeskGrammar, n: int) -> list[tuple[list[str], list[str]]]:
    rows = []
    for _ in range(n):
        words = grammar.sentence().split()
        rows.append((words, [ner_tag(x) for x in words]))
    return rows


def _pairs(rng: random.Random, n: int, oracle) -> list[tuple[str, str, str]]:
    out = []
    for _ in range(n):
        analyte = rng.choice(sorted(ANALYTES))
        premise, value = _measurement(rng, analyte)
        hypothesis = f"the patient has {rng.choice(CLAIMS)}"
        out.append((premise, hypothesis, oracle(analyte, value, hypothesis)))
    return out


def _docs(grammar: DeskGrammar, n: int, positions: int) -> list[tuple[str, list[int]]]:
    """Documents long enough to fill a row; labels are the symptoms named in
    the words that fit (one piece per word is a close estimate here)."""
    out = []
    for _ in range(n):
        words: list[str] = []
        while len(words) < positions + 8:
            words.extend(grammar.sentence().split())
        kept = set(words[:positions - 2])
        out.append((" ".join(words), [i for i, s in enumerate(SYMPTOMS) if s in kept]))
    return out


def generate(w: Workload, seed: int, oracle) -> Inputs:
    """All inputs of one workload. oracle labels premise/hypothesis pairs;
    the caller passes the library's numeric probe oracle."""
    rng = random.Random(f"{w.name}:{seed}")
    grammar = DeskGrammar(rng)
    notes = _notes(rng, w, grammar)
    inputs = Inputs(notes=notes)
    for t in w.tasks:
        n = t.n_train + t.n_dev + t.n_infer
        if t.kind == "ner":
            rows = _ner_rows(grammar, n)
        elif t.kind == "pair":
            rows = _pairs(rng, n, oracle)
        else:
            rows = _docs(grammar, n, t.positions)
        inputs.rows[t.kind] = {"train": rows[:t.n_train],
                               "dev": rows[t.n_train:t.n_train + t.n_dev],
                               "infer": rows[t.n_train + t.n_dev:]}
    return inputs
