"""In-memory spans and counts, and the wrappers of the traced run.

A Recorder keeps every span (name, start, end, parent) and a Counter of
counts. The benchmark always opens one span per pipeline stage; in the
traced run it also replaces the library functions in TARGETS, at the module
attribute each stage looks up at call time, with wrappers that open a span
around the call and add counts from its arguments and result. The wrappers
pass arguments and results through untouched, and the original attributes
are restored when the traced block ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from clinlm.wordpiece import UNK_ID


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Recorder.spans


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._enter(name)
        try:
            yield self.spans[index]
        finally:
            self._exit(index)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def tracing(self, enabled: bool = True):
        """Install the TARGETS wrappers for the duration of the block. A
        target missing from the library raises AttributeError, so that a
        renamed function fails the run instead of reading as zero."""
        if not enabled:
            yield
            return
        saved = []
        try:
            for module_name, attr, count, _ in TARGETS:
                module = importlib.import_module(f"clinlm.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(f"{module_name}.{attr}", original, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_json(self) -> dict:
        return {"spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
                "counts": dict(self.counts)}


def arg_of(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_positions(counts, args, kwargs, result):
    batch = arg_of(args, kwargs, 2, "batch")
    counts["positions"] += int(batch.token_ids.size)
    counts["real_positions"] += int(batch.attention_mask.sum())


def _count_vocab(counts, args, kwargs, result):
    corpus = arg_of(args, kwargs, 0, "corpus")
    counts["merges"] += merges_of(result.tokens)
    # the same corpus trained on repeatedly still has the same word types
    types = len({w for line in corpus for w in line.split()})
    counts["word_types"] = max(counts["word_types"], types)


def _count_encode(counts, args, kwargs, result):
    counts["tokens"] += len(result.ids)
    counts["unk"] += result.ids.count(UNK_ID)


def _count_masking(counts, args, kwargs, result):
    counts["mask_targets"] += len(result[1])


def _count_ckpt(counts, args, kwargs, result):
    counts["ckpt_bytes"] += os.path.getsize(arg_of(args, kwargs, 0, "path"))


def _count_notes(counts, args, kwargs, result):
    counts["notes"] += len(arg_of(args, kwargs, 0, "notes"))


def _count_probes(counts, args, kwargs, result):
    counts["instances"] += result.overall_n


def merges_of(tokens) -> int:
    """Tokens a wordpiece trainer added by merging: every token past the five
    specials whose body is longer than one character."""
    return sum(1 for t in tokens[5:] if len(t.removeprefix("##")) > 1)


# (module, attribute, count hook, task kind) for every library function the
# traced run wraps. Each is looked up by its caller at call time. A target
# with a task kind is called only by workloads that fine-tune that kind;
# every other target is called by every workload.
TARGETS = (
    ("corpus", "filter_discharge_summaries", _count_notes, None),
    ("corpus", "split_by_patient", None, None),
    ("wordpiece", "train_wordpiece", _count_vocab, None),
    ("wordpiece", "encode", _count_encode, None),
    ("pretrain", "pack_sequences", None, None),
    ("pretrain", "apply_masking", _count_masking, None),
    ("pretrain", "mlm_forward_loss", _count_positions, None),
    ("pretrain", "accumulate_and_step", None, None),
    ("pretrain", "adam_step", None, None),
    ("encoder", "save_checkpoint", _count_ckpt, None),
    ("encoder", "load_checkpoint", None, None),
    ("finetune", "encode_ner_example", None, "ner"),
    ("finetune", "prepare_pair", None, "pair"),
    ("finetune", "prepare_document", None, "multilabel"),
    ("finetune", "finetune_task", None, None),
    ("finetune", "forward", _count_positions, None),
    ("finetune", "token_classify_loss", _count_positions, "ner"),
    ("finetune", "pair_classify_loss", _count_positions, "pair"),
    ("finetune", "multilabel_loss", _count_positions, "multilabel"),
    ("finetune", "adam_step", None, None),
    ("finetune", "predict_ner_tags", None, "ner"),
    ("finetune", "predict_pair_labels", None, "pair"),
    ("finetune", "predict_label_sets", None, "multilabel"),
    ("metrics", "corpus_entity_f1", None, "ner"),
    ("metrics", "micro_f1", None, "multilabel"),
    ("metrics", "accuracy", None, "pair"),
    ("probe", "load_probe_suite", None, None),
    ("probe", "run_probes", _count_probes, None),
)


def uncalled(profile: "Profile", kinds) -> list[str]:
    """Targets the workload should call, given its task kinds, that no
    traced span recorded: a function the library stopped calling would
    otherwise read as zero time."""
    return [f"{module}.{attr}" for module, attr, _, kind in TARGETS
            if (kind is None or kind in kinds) and not profile.calls[f"{module}.{attr}"]]


FINETUNE_LOSSES = ("finetune.token_classify_loss", "finetune.pair_classify_loss",
                   "finetune.multilabel_loss")
PREDICTS = ("finetune.predict_ner_tags", "finetune.predict_pair_labels",
            "finetune.predict_label_sets")
PREPARES = ("finetune.encode_ner_example", "finetune.prepare_pair",
            "finetune.prepare_document")


def tail_percentile(n: int) -> float:
    """The highest of p99.9, p99, p90 and p50 with at least ten of n samples
    beyond it; 0 when even the median has fewer than ten beyond it."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Profile:
    """Totals, self times and durations per span name, plus counts, summed
    over any number of recorders."""

    def __init__(self, recorders):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.under: dict[tuple[str, str], float] = defaultdict(float)  # (name, parent name)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        # a fine-tuning step is one loss call (forward + backward) and the
        # Adam update that follows it; the two alternate inside finetune_task
        self.finetune_step_ms: list[float] = []
        for rec in recorders:
            loss = 0.0
            covered = [0.0] * len(rec.spans)
            for s in rec.spans:
                if s.parent is not None:
                    covered[s.parent] += s.end - s.start
            for i, s in enumerate(rec.spans):
                d = s.end - s.start
                self.total[s.name] += d
                self.self_time[s.name] += d - covered[i]
                self.calls[s.name] += 1
                self.durations[s.name].append(d)
                parent = rec.spans[s.parent].name if s.parent is not None else ""
                self.under[(s.name, parent)] += d
                if s.name in FINETUNE_LOSSES:
                    loss = d
                elif s.name == "finetune.adam_step":
                    self.finetune_step_ms.append(1e3 * (loss + d))
            self.counts.update(rec.counts)

    def sum_total(self, names) -> float:
        return sum(self.total[n] for n in names)

    def sum_calls(self, names) -> int:
        return sum(self.calls[n] for n in names)


def _step_stats(prefix: str, step_ms: list[float]) -> dict:
    pct = tail_percentile(len(step_ms))
    return {
        f"{prefix}.step_ms_p50": (percentile(step_ms, 50.0), "ms"),
        f"{prefix}.step_ms_tail": (percentile(step_ms, pct) if pct else max(step_ms, default=0.0),
                                   "ms"),
        f"{prefix}.step_ms_tail_pct": (pct, "pct"),
        f"{prefix}.steps": (len(step_ms), "count"),
    }


def layer_metrics(p: Profile) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    c = p.counts
    positions = c["positions"]
    fwd_bwd = ("pretrain.mlm_forward_loss",) + FINETUNE_LOSSES
    out = {
        "wordpiece.train_s": (p.total["wordpiece.train_wordpiece"], "s"),
        "wordpiece.merges": (c["merges"], "count"),
        "wordpiece.word_types": (c["word_types"], "count"),
        "wordpiece.encode_s": (p.total["wordpiece.encode"], "s"),
        "wordpiece.tokens": (c["tokens"], "count"),
        "wordpiece.unk_frac": (c["unk"] / c["tokens"] if c["tokens"] else 0.0, "ratio"),
        "encoder.fwd_bwd_s": (p.sum_total(fwd_bwd), "s"),
        "encoder.fwd_bwd_calls": (p.sum_calls(fwd_bwd), "count"),
        "encoder.forward_s": (p.total["finetune.forward"], "s"),
        "encoder.forward_calls": (p.calls["finetune.forward"], "count"),
        "encoder.positions": (positions, "count"),
        "encoder.real_positions": (c["real_positions"], "count"),
        "encoder.real_frac": (c["real_positions"] / positions if positions else 0.0, "ratio"),
        "encoder.ckpt_save_s": (p.total["encoder.save_checkpoint"], "s"),
        "encoder.ckpt_load_s": (p.total["encoder.load_checkpoint"], "s"),
        "encoder.ckpt_bytes": (c["ckpt_bytes"], "bytes"),
        "pretrain.adam_s": (p.total["pretrain.adam_step"], "s"),
        "pretrain.adam_calls": (p.calls["pretrain.adam_step"], "count"),
        "pretrain.accum_s": (p.self_time["pretrain.accumulate_and_step"], "s"),
        # everything run_pretraining does outside encoding, masking and the
        # optimizer step: packing, framing, batch assembly, shuffling
        "pretrain.data_s": (p.self_time["pretrain"] + p.total["pretrain.pack_sequences"], "s"),
        "pretrain.mask_s": (p.total["pretrain.apply_masking"], "s"),
        "pretrain.mask_targets": (c["mask_targets"], "count"),
        "finetune.prep_s": (p.sum_total(PREPARES), "s"),
        "finetune.adam_s": (p.total["finetune.adam_step"], "s"),
        "finetune.dev_s": (sum(p.under[(n, "finetune.finetune_task")] for n in PREDICTS), "s"),
        "metrics.s": (p.sum_total(("metrics.corpus_entity_f1", "metrics.micro_f1",
                                   "metrics.accuracy")), "s"),
        "metrics.calls": (p.sum_calls(("metrics.corpus_entity_f1", "metrics.micro_f1",
                                       "metrics.accuracy")), "count"),
        "probe.load_s": (p.total["probe.load_probe_suite"], "s"),
        "probe.run_s": (p.self_time["probe.run_probes"], "s"),
        "probe.instances": (c["instances"], "count"),
        "corpus.split_s": (p.total["corpus.filter_discharge_summaries"]
                           + p.total["corpus.split_by_patient"], "s"),
        "corpus.notes": (c["notes"], "count"),
    }
    step_ms = [1e3 * d for d in p.durations["pretrain.accumulate_and_step"]]
    out.update(_step_stats("pretrain", step_ms))
    out.update(_step_stats("finetune", p.finetune_step_ms))
    return out
