"""The clinlm pipeline as a user drives it, one stage at a time.

Every library call goes through a module attribute (`wordpiece.encode`,
`finetune.predict_ner_tags`, ...) so that the traced run's wrappers see
it. Each stage records its correctness gates and splits its work into
timed units: one vocabulary training, one encoding pass, one pretraining
phase, one fine-tuning seed, one inference chunk. Units with one key do
the same work in every repeat, so run.py can time a stage by the median
repeat of each of its units. In untraced phases a probe of the machine's
speed (calib.py) runs before every unit and every SAMPLE_S seconds, so
that run.py can scale each unit's time to the reference speed.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import calib
from clinlm import corpus, encoder, finetune, metrics, pretrain, probe, wordpiece
from spans import arg_of, merges_of
from workloads import SPLIT_RATIOS, SYMPTOMS, Inputs, Workload, generate, ner_tag

STAGES = ("generate", "corpus", "vocab", "encode", "pretrain", "checkpoint",
          "finetune", "infer", "score", "probe")
# The kind of each stage's work (see calib.py): the encoder's stages are
# Python dispatch around numpy calls, the others run in the interpreter.
STAGE_KIND = {"generate": "python", "corpus": "python", "vocab": "python",
              "encode": "python", "pretrain": "mixed", "checkpoint": "python",
              "finetune": "mixed", "infer": "mixed", "score": "python", "probe": "mixed"}

NER_TASK = finetune.TaskSpec("bench-ner", "ner", ("problem", "treatment"), "entity_f1")
PAIR_TASK = finetune.TaskSpec("bench-nli", "pair", probe.LABELS, "accuracy")
DOC_TASK = finetune.TaskSpec("bench-docs", "multilabel", SYMPTOMS, "micro_f1")
TASKS = {"ner": NER_TASK, "pair": PAIR_TASK, "multilabel": DOC_TASK}
INFER_CHUNK = 32  # held-out rows per inference unit; the predict_* batch size
SAMPLE_S = 0.1  # seconds between the sampler's speed probes


@dataclass
class Unit:
    """One timed piece of a stage. Every repeat of a key does the same work.
    seconds leaves out the speed probes run between start and end."""

    key: str
    seconds: float
    work: dict = field(default_factory=dict)  # work name -> amount
    start: float = 0.0
    end: float = 0.0


def _digest_arrays(h, params: dict) -> None:
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


class Pipeline:
    """State of one workload's pipeline. The set-up stages run once per
    set-up; the other stages run once per timed iteration and read only what
    set-up produced, so every iteration repeats the same work."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.begin_phase()

    def begin_phase(self, traced: bool = False) -> None:
        """Start a fresh record of gates and of the output digest: sha256 of
        everything the phase's stages produced (vocabulary, parameters, loss
        log, predictions, scores)."""
        self.traced = traced
        self._probing = False
        self.gates: list[tuple[str, bool]] = []
        self.digest = hashlib.sha256()
        self.units: list[Unit] = []
        # (time, first-part seconds, whole seconds) of each calib.probe()
        self.speed: list[tuple[float, float, float]] = []

    def speed_probe(self) -> None:
        """Run the machine-speed probe; its time belongs to no unit. Not in
        traced phases, where it would count into the spans around it."""
        if self.traced or self._probing:  # or the sampler's signal came during a probe
            return
        self._probing = True
        start = time.perf_counter()
        self.speed.append((start, *calib.probe()))
        self._probing = False

    @contextmanager
    def sampling(self):
        """Probe the machine's speed every SAMPLE_S seconds, from a timer
        signal whose handler runs between the program's bytecodes, so that
        long units have probes inside them. Not in traced phases."""
        if self.traced:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.speed_probe())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def net_seconds(self, start: float, end: float) -> float:
        """end - start, less the speed probes run in between."""
        return end - start - sum(s for t, _, s in self.speed if start <= t < end)

    def gate(self, name: str, ok: bool) -> None:
        self.gates.append((name, bool(ok)))

    @contextmanager
    def unit(self, key: str, **work):
        """Time the block as one unit, after a probe of the machine's speed;
        the block may add to the work dict."""
        self.speed_probe()
        start = time.perf_counter()
        yield work
        end = time.perf_counter()
        self.units.append(Unit(key, self.net_seconds(start, end), work, start, end))

    # -- stages -----------------------------------------------------------------

    def generate(self) -> None:
        """The benchmark's own work: the workload's inputs from the seed."""
        with self.unit("generate.inputs"):
            self.inputs: Inputs = generate(self.w, self.seed, probe.numeric_probe_oracle)

    def corpus(self) -> None:
        notes = [corpus.NoteRecord(**row) for row in self.inputs.notes]
        kept = corpus.filter_discharge_summaries(notes)
        assignment = corpus.split_by_patient([n.patient_id for n in kept],
                                             SPLIT_RATIOS, self.seed)
        self.lines = {name: [] for name in corpus.SUBSET_NAMES}
        for note in kept:
            self.lines[assignment[note.patient_id]].extend(note.text.splitlines())
        self.gate("corpus.one_note_per_patient", len(kept) == self.w.patients)

    def vocab(self) -> None:
        self.normalized = [wordpiece.normalize(line) for line in self.lines["train"]]
        vocabs = []
        for _ in range(self.w.vocab_passes):
            with self.unit("vocab.train") as work:
                vocabs.append(wordpiece.train_wordpiece(self.normalized, self.w.vocab_size,
                                                        self.w.min_frequency))
                work["merges"] = merges_of(vocabs[-1].tokens)
        self.vocab_ = vocabs[0]
        self.gate("vocab.repeatable", all(v.tokens == self.vocab_.tokens for v in vocabs))
        self.digest.update("\n".join(self.vocab_.tokens).encode())

    def encode(self) -> None:
        for _ in range(self.w.encode_passes):
            with self.unit("encode.pass") as work:
                encoded = [wordpiece.encode(self.vocab_, line).ids for line in self.normalized]
                work["pieces"] = sum(len(ids) for ids in encoded)

    def pretrain(self) -> None:
        """One run_pretraining call, timed as units through its public
        phase_callback: the encoding and initialisation before the first
        phase, then every phase. Real (non-pad) tokens are counted as the
        encoder receives them, by a count-only wrapper of
        pretrain.mlm_forward_loss that sums each batch's attention mask."""
        w = self.w
        self.config = encoder.EncoderConfig(
            vocab_size=len(self.vocab_), hidden_dim=w.hidden, n_layers=w.layers,
            n_heads=w.heads, ff_dim=w.ff, max_positions=w.max_positions)
        forward_loss = pretrain.mlm_forward_loss
        real = [0]

        def counted(*args, **kwargs):
            real[0] += int(arg_of(args, kwargs, 2, "batch").attention_mask.sum())
            return forward_loss(*args, **kwargs)

        marks = []  # (end of the previous phase, start of this one, real tokens so far)
        self.speed_probe()

        def phase_start(index, step, params):
            end = time.perf_counter()
            self.speed_probe()
            marks.append((end, time.perf_counter(), real[0]))

        pretrain.mlm_forward_loss = counted
        try:
            start = time.perf_counter()
            result = pretrain.run_pretraining(
                corpus=self.lines["train"], vocab=self.vocab_, config=self.config,
                plan=pretrain.PhasePlan(w.plan), policy=pretrain.MaskingPolicy(),
                accum=pretrain.AccumulationConfig(w.micro_batch, w.accum,
                                                  w.micro_batch * w.accum),
                adam=pretrain.AdamConfig(lr=w.pretrain_lr), seed=self.seed,
                phase_callback=phase_start)
            end = time.perf_counter()
            marks.append((end, end, real[0]))
        finally:
            pretrain.mlm_forward_loss = forward_loss
        self.units.append(Unit("pretrain.prelude", self.net_seconds(start, marks[0][0]),
                               {"steps": 0, "tokens": 0}, start, marks[0][0]))
        for (length, steps), (_, t0, r0), (t1, _, r1) in zip(w.plan, marks, marks[1:]):
            self.units.append(Unit(f"pretrain.{length}x{steps}", self.net_seconds(t0, t1),
                                   {"steps": steps, "tokens": r1 - r0}, t0, t1))
        self.pretrained = result.params
        losses = [e.loss for e in result.loss_log]
        self.final_loss = statistics.fmean(losses[-10:])
        self.gate("pretrain.loss_below_lnV_minus_1",
                  losses[-1] < math.log(len(self.vocab_)) - 1.0)
        _digest_arrays(self.digest, result.params)
        self.digest.update(np.array(losses, dtype="<f8").tobytes())

    def checkpoint(self) -> None:
        path = os.path.join(self.workdir, f"{self.w.name}-{self.seed}.ckpt")
        encoder.save_checkpoint(path, self.config, self.pretrained)
        config, params = encoder.load_checkpoint(path)
        os.remove(path)
        self.gate("checkpoint.round_trip",
                  config == self.config and params.keys() == self.pretrained.keys()
                  and all(np.array_equal(params[k], self.pretrained[k]) for k in params))
        self.params = params

    def finetune(self) -> None:
        """Each task's row preparation is one unit, and each seed's
        finetune_task call (training plus per-epoch dev evaluation) another:
        seeds train independently, so one call per seed gives the same runs
        as one call for all seeds."""
        self.models = {}
        for t in self.w.tasks:
            task = TASKS[t.kind]
            with self.unit(f"finetune.{t.kind}.prep", steps=0):
                train = self._task_rows(t, self._source(t, "train"))
                dev = self._task_rows(t, self._source(t, "dev"))
            hyper = finetune.FinetuneConfig(epochs=t.epochs, batch_size=t.batch_size,
                                            lr=t.lr, max_steps=t.max_steps)
            steps = min(t.max_steps, t.epochs * math.ceil(len(train) / t.batch_size))
            runs = []
            for seed in range(t.seeds):
                with self.unit(f"finetune.{t.kind}", steps=steps):
                    runs += finetune.finetune_task(self.config, self.params, task, train, dev,
                                                   [seed], hyper)
            best = max(runs, key=lambda r: r.dev_metric)
            self.models[t.kind] = best.params
            for run in runs:
                _digest_arrays(self.digest, run.params)
                self.digest.update(repr(run.dev_metric).encode())
            if t is self.w.tasks[0]:
                self.dev_scores = [r.dev_metric for r in runs]
            if t.kind == "ner":
                self.gate("finetune.ner_dev_f1_at_least_0.95",
                          min(r.dev_metric for r in runs) >= 0.95)

    def _source(self, t, split: str) -> list:
        if t.kind == "ner" and split == "infer":  # tag the held-out test-split notes
            return [(line.split(), [ner_tag(x) for x in line.split()])
                    for line in self.lines["test"]]
        return self.inputs.rows[t.kind][split]

    def _task_rows(self, t, source: list) -> list:
        vocab = self.vocab_
        if t.kind == "ner":
            tag_ids = {tag: i for i, tag in enumerate(NER_TASK.bio_tags())}
            return [finetune.encode_ner_example(words, tags, vocab, tag_ids, t.positions)
                    for words, tags in source]
        if t.kind == "pair":
            return [(finetune.prepare_pair(a, b, vocab, t.positions), probe.LABELS.index(y))
                    for a, b, y in source]
        return [(finetune.prepare_document(text, vocab, t.positions), labels)
                for text, labels in source]

    def _predict(self, t, rows: list) -> tuple[list, list]:
        """(gold, predicted) labels of prepared held-out rows."""
        params = self.models[t.kind]
        if t.kind == "ner":
            pred = finetune.predict_ner_tags(params, self.config, rows, NER_TASK.bio_tags())
            return [r.word_tags for r in rows], pred
        batches = [r[0] for r in rows]
        if t.kind == "pair":
            pred = finetune.predict_pair_labels(params, self.config, batches, probe.LABELS)
            return [probe.LABELS[r[1]] for r in rows], pred
        pred = finetune.predict_label_sets(params, self.config, batches, DOC_TASK.labels)
        return [{DOC_TASK.labels[i] for i in r[1]} for r in rows], pred

    def infer(self) -> None:
        """Row preparation plus forward-only prediction, one unit per chunk
        of INFER_CHUNK held-out rows (a shorter last chunk has its own key)."""
        self.predictions = {}
        for t in self.w.tasks:
            source = self._source(t, "infer")
            gold, pred = [], []
            for start in range(0, len(source), INFER_CHUNK):
                chunk = source[start:start + INFER_CHUNK]
                with self.unit(f"infer.{t.kind}.{len(chunk)}", rows=len(chunk)):
                    g, p = self._predict(t, self._task_rows(t, chunk))
                gold += g
                pred += p
            self.predictions[t.kind] = (gold, pred)
            # label sets are sorted so the digest does not depend on hash order
            self.digest.update(repr([sorted(p) if isinstance(p, set) else p
                                     for p in pred]).encode())

    def score(self) -> None:
        self.scores = {}
        for kind, (gold, pred) in self.predictions.items():
            if kind == "ner":
                self.scores[kind] = metrics.corpus_entity_f1(gold, pred)[2]
            elif kind == "pair":
                self.scores[kind] = metrics.accuracy(gold, pred)
            else:
                self.scores[kind] = metrics.micro_f1(gold, pred)[2]
        self.digest.update(repr(sorted(self.scores.items())).encode())

    def probe(self) -> None:
        """Loading the suite is one unit, preparing and predicting each
        chunk of INFER_CHUNK instances another, scoring the last."""
        with self.unit("probe.load"):
            instances = probe.load_probe_suite()
        pair = next(t for t in self.w.tasks if t.kind == "pair")
        labels = []
        for start in range(0, len(instances), INFER_CHUNK):
            chunk = instances[start:start + INFER_CHUNK]
            with self.unit(f"probe.predict.{len(chunk)}"):
                rows = [finetune.prepare_pair(i.premise, i.hypothesis, self.vocab_,
                                              pair.positions) for i in chunk]
                labels += finetune.predict_pair_labels(self.models["pair"], self.config, rows,
                                                       probe.LABELS)
        answers = iter(labels)
        with self.unit("probe.score"):
            report = probe.run_probes(lambda premise, hypothesis: next(answers), instances)
        self.gate("probe.suite_scored", report.overall_n == len(instances) > 0)
        self.digest.update(repr(report.predictions).encode())
