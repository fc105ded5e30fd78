"""Task fine-tuning on top of a pretrained encoder.

Supported task shapes:
  ner        per-word BIO tagging; only each word's first piece is scored
  pair       single-class prediction from the first-position summary vector,
             used for inference pairs and for concept-pair relations (the
             concepts are wrapped in reserved typed marker tokens)
  multilabel independent per-label probabilities over a fixed inventory,
             thresholded at 0.5

This is the one module that knows what a task kind means: TaskSpec,
load_task_rows, the training step and the dev metric branch on it. A row is
encoder.frame's unpadded token ids (or a NerRow, which holds them) until
_stacked pads a batch of rows. Each kind trains an encoder.init_head head
read at the (row, position) pairs _stacked gives, through encoder._head_loss,
the loss routine masked-LM pretraining also uses.

Every run is specified by (checkpoint, task, data, seed); repeating a seed
reproduces the run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import corpus, metrics, wordpiece
from .encoder import (
    Batch, ParamStore, _head_logits, _sigmoid, forward, frame, init_head, load_checkpoint,
    multilabel_loss, pair_classify_loss, param_shapes, stack_rows, token_classify_loss,
)
from .pretrain import adam_step, init_optimizer
from .settings import (MIN_FRAME_LENGTH, TASKS, EncoderConfig, FinetuneConfig, SettingError,
                       check_seeds, content_room)
from .wordpiece import Vocabulary, normalize

PREDICT_CHUNK = 32  # rows per forward pass of the predict_* functions
# task kind -> (the encoder head it trains, the dev metrics it computes)
_KINDS = {"ner": ("head_token", ("entity_f1",)),
          "pair": ("head_pair", ("accuracy", "micro_f1")),
          "multilabel": ("head_multi", ("micro_f1",))}


@dataclass(frozen=True)
class TaskSpec:
    name: str
    kind: str  # "ner" | "pair" | "multilabel"
    labels: tuple[str, ...]
    selection_metric: str  # "entity_f1" | "accuracy" | "micro_f1"
    concept_types: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.selection_metric not in _KINDS[self.kind][1]:
            raise ValueError(f"a {self.kind} task cannot select on {self.selection_metric!r}")
        if not self.labels:
            raise ValueError("task needs at least one label")

    @property
    def outputs(self) -> list[str]:
        """Names of the head's outputs: BIO tags for ner, else the labels."""
        return self.bio_tags() if self.kind == "ner" else list(self.labels)

    def bio_tags(self) -> list[str]:
        if self.kind != "ner":
            raise ValueError("bio_tags only applies to ner tasks")
        return ["O"] + [f"{prefix}-{t}" for t in self.labels for prefix in "BI"]


def builtin_task(name: str) -> TaskSpec:
    """The task preset of that name in settings.TASKS."""
    if name not in TASKS:
        raise ValueError(f"unknown task {name!r}")
    kind, labels, metric, concept_types = TASKS[name]
    if isinstance(labels, str):  # a packaged file of one label a line
        labels = corpus.packaged_lines(labels)
    return TaskSpec(name, kind, labels, metric, concept_types)


def marker_token(concept_type: str, closing: bool) -> str:
    return f"[{concept_type}-{'end' if closing else 'start'}]"


def marker_tokens(concept_types: Iterable[str]) -> list[str]:
    return [marker_token(t, closing) for t in sorted(set(concept_types))
            for closing in (False, True)]


def mark_concepts(words: Sequence[str],
                  span_a: tuple[int, int], type_a: str,
                  span_b: tuple[int, int], type_b: str) -> list[str]:
    """Wrap two word spans (half-open indices) in typed boundary markers.

    The marked sequence keeps the original word order and grows by exactly
    four marker strings; words may be any items. Overlapping or
    out-of-range spans are errors.
    """
    spans = sorted([(span_a, type_a), (span_b, type_b)])
    for (s, e), _ in spans:
        if not (0 <= s < e <= len(words)):
            raise ValueError(f"span ({s}, {e}) out of range for {len(words)} words")
    (first, _), (second, _) = spans
    if first[1] > second[0]:
        raise ValueError(f"concept spans {first} and {second} overlap")
    out = list(words)
    for (start, end), t in reversed(spans):  # right to left, so earlier indices stay valid
        out[start:end] = [marker_token(t, False), *out[start:end], marker_token(t, True)]
    return out


def extend_for_markers(vocab: Vocabulary, params, config: EncoderConfig,
                       concept_types: Iterable[str]):
    """Add reserved marker tokens to the vocabulary and, if the token embedding
    table is short of them, grow it by rows drawn from seed 0, keeping the
    encoder alone (param_shapes). Existing rows are untouched; with no new
    markers the inputs come back unchanged."""
    markers = [m for m in marker_tokens(concept_types) if m not in vocab]
    if not markers:
        return vocab, params, config
    vocab, v, h = vocab.with_extra_tokens(markers), config.vocab_size, config.hidden_dim
    if v >= len(vocab):  # a model tuned on the markers holds their rows already
        return vocab, params, config
    new_params = params.resized({**param_shapes(config), "tok_emb": (len(vocab), h)})
    new_params["tok_emb"][v:] = np.random.default_rng(0).normal(0.0, 0.02, (len(vocab) - v, h))
    return vocab, new_params, replace(config, vocab_size=len(vocab))


def load_task_model(task: TaskSpec, checkpoint, vocab_path, max_positions: int | None = None):
    """(config, params, vocabulary, row length) of a checkpoint file and the
    vocabulary file it was trained on, grown by the task's concept markers
    (see extend_for_markers). The checkpoint may hold the plain vocabulary or
    the grown one, as a model tuned on the task does. The row length,
    max_positions or else the checkpoint's, must fit a row of the task."""
    config, params = load_checkpoint(checkpoint)
    plain = wordpiece.read_vocab(vocab_path)
    vocab, params, grown = extend_for_markers(plain, params, config, task.concept_types)
    if config.vocab_size not in (len(plain), len(vocab)):
        raise ValueError(f"{vocab_path} has {len(plain)} tokens but {checkpoint} "
                         f"was trained on {config.vocab_size}")
    length = config.max_positions if max_positions is None else max_positions
    least = MIN_FRAME_LENGTH[task.kind == "pair" and not task.concept_types]
    if length < least:
        raise SettingError("max_positions", f"{length} is below {least}, the fewest that fit "
                                            f"a row of task {task.name}")
    if length > config.max_positions:
        raise SettingError("max_positions", f"{length} exceeds the max_positions "
                                            f"{config.max_positions} of {checkpoint}")
    return grown, params, vocab, length


def prepare_document(text: str, vocab: Vocabulary, max_positions: int) -> np.ndarray:
    """frame's unpadded row: [CLS], the first max_positions - 2 pieces, [SEP].

    Truncation keeps the document prefix, so the same text prepared at two
    lengths shares its retained pieces."""
    return frame(wordpiece.encode(vocab, normalize(text)).ids, None, max_positions)


def prepare_pair(text_a: str, text_b: str, vocab: Vocabulary, max_positions: int) -> np.ndarray:
    """frame's unpadded row: [CLS] a [SEP] b [SEP]. When the pair is too
    long, the longer side loses pieces first."""
    ids_a, ids_b = (wordpiece.encode(vocab, normalize(text)).ids for text in (text_a, text_b))
    return frame(ids_a, ids_b, max_positions)


def prepare_marked_sentence(words: Sequence[str], span_a: tuple[int, int], type_a: str,
                            span_b: tuple[int, int], type_b: str, vocab: Vocabulary,
                            max_positions: int) -> np.ndarray:
    """frame's unpadded row for two typed concept spans of a word sequence,
    wrapped in their markers by mark_concepts. Only those four markers map
    straight to their ids; every word goes through word_ids, so a word
    spelled like a vocabulary token ([SEP], ##ing, a marker) is text."""
    marked = mark_concepts([word_ids(vocab, word) for word in words],
                           span_a, type_a, span_b, type_b)
    return frame([i for item in marked for i in
                  ((vocab.id_of(item),) if isinstance(item, str) else item)], None, max_positions)


@dataclass
class NerRow:
    """One encoded tagging example: the unpadded framed row's token ids, and
    the position and tag of each kept word's first piece, where its tag is
    scored and read back out."""

    ids: np.ndarray
    first_piece_positions: list[int]
    tag_ids: list[int]  # the tag id at each first piece position
    word_tags: list[str]  # gold tags for the words that survived truncation


def word_ids(vocab: Vocabulary, word: str) -> tuple[int, ...]:
    """Piece ids for one pre-tokenized word. Normalization may split off
    attached punctuation; the resulting sub-words are encoded in order and
    concatenated, so the word still maps to one flat id sequence."""
    ids = wordpiece.encode(vocab, normalize(word)).ids
    if not ids:
        raise ValueError(f"word {word!r} normalizes to nothing")
    return ids


def encode_ner_example(words: Sequence[str], tags: Sequence[str],
                       vocab: Vocabulary, tag_to_id: dict[str, int],
                       max_positions: int) -> NerRow:
    """Frame a tagged sentence as one row. Each word's first piece carries
    its tag, the only piece scored; words starting past the row's content
    room (settings.content_room) are dropped (a word cut inside keeps its
    first piece)."""
    if len(words) != len(tags):
        raise ValueError(f"{len(words)} words but {len(tags)} tags")
    for tag in tags:
        if tag not in tag_to_id:
            raise ValueError(f"tag {tag!r} not in the task tag set")
    room = content_room(max_positions, False)
    content: list[int] = []
    first_positions: list[int] = []
    kept_tags: list[str] = []
    for word, tag in zip(words, tags):
        ids = word_ids(vocab, word)
        if len(content) >= room:
            break
        first_positions.append(1 + len(content))
        kept_tags.append(tag)
        content.extend(ids)
    return NerRow(frame(content, None, max_positions), first_piece_positions=first_positions,
                  tag_ids=[tag_to_id[tag] for tag in kept_tags], word_tags=kept_tags)


@dataclass
class SeedRun:
    seed: int
    params: ParamStore
    dev_metric: float
    best_epoch: int


def _stacked(rows) -> tuple[Batch, np.ndarray]:
    """rows stacked as one Batch (encoder.stack_rows, a NerRow by its ids) and
    the (row, position) pairs a head reads there, in encoder.forward's reads
    form: each NerRow's first pieces, or else position 0 of the row.
    Training and prediction both stack and read here."""
    ner = [isinstance(row, NerRow) for row in rows]
    reads = [(i, c) for i, row in enumerate(rows)
             for c in (row.first_piece_positions if ner[i] else (0,))]
    return (stack_rows([row.ids if ner[i] else row for i, row in enumerate(rows)]),
            np.array(reads, dtype=np.int64).reshape(-1, 2))


def _forward_chunks(params, config, rows: Sequence, head: str, n_out: int):
    """Yield, for each row in order, the scores of head at the positions it
    reads there ([positions, n_out], see _stacked). Each PREDICT_CHUNK
    rows take one forward pass, whose top layer runs at those positions
    only. A non-finite score is refused with a ValueError naming the first
    row that has one."""
    for start in range(0, len(rows), PREDICT_CHUNK):
        chunk = rows[start:start + PREDICT_CHUNK]
        batch, reads = _stacked(chunk)
        hidden = forward(params, config, batch, reads=reads)
        scores = _head_logits(params, head, hidden, n_out)
        per_row = np.split(scores, np.searchsorted(reads[:, 0], np.arange(1, len(chunk))))
        if not np.isfinite(scores).all():
            bad = next(i for i, s in enumerate(per_row) if not np.isfinite(s).all())
            raise ValueError(f"row {start + bad}: the model's {head} scores hold a NaN or infinity")
        yield from per_row


def predict_ner_tags(params, config, rows: Sequence[NerRow],
                     tags: Sequence[str]) -> list[list[str]]:
    """The tag of each kept word of each row, predicted at its first piece."""
    return [[tags[i] for i in scores.argmax(axis=-1)] for scores in
            _forward_chunks(params, config, rows, "head_token", len(tags))]


def predict_pair_labels(params, config, rows: Sequence, labels: Sequence[str]) -> list[str]:
    """The label of each framed row, predicted at its position 0."""
    return [labels[scores[0].argmax()] for scores in
            _forward_chunks(params, config, rows, "head_pair", len(labels))]


def predict_label_sets(params, config, rows: Sequence, labels: Sequence[str]) -> list[set[str]]:
    """Labels whose logistic probability at position 0 exceeds 1/2, per row."""
    return [{labels[i] for i in np.nonzero(_sigmoid(scores[0]) > 0.5)[0]} for scores in
            _forward_chunks(params, config, rows, "head_multi", len(labels))]


def _dev_metric(task, params, config, dev):
    if task.kind == "ner":
        pred = predict_ner_tags(params, config, dev, task.outputs)
        return metrics.corpus_entity_f1([row.word_tags for row in dev], pred)[2]
    # pair and multilabel rows hold label ids, so predict ids too
    rows, ids = [row[0] for row in dev], range(len(task.labels))
    if task.kind == "multilabel":
        pred_sets = predict_label_sets(params, config, rows, ids)
        return metrics.micro_f1([set(row[1]) for row in dev], pred_sets)[2]
    gold, pred = [row[1] for row in dev], predict_pair_labels(params, config, rows, ids)
    if task.selection_metric == "accuracy":
        return metrics.accuracy(gold, pred)
    return metrics.micro_f1([{g} for g in gold], [{p} for p in pred])[2]


def _train_step(task, params, config, rows: Sequence, state, lr, rng):
    """One Adam update at learning rate lr of params on rows through the task
    kind's loss, stacked and read by _stacked, in train mode: dropout masks come
    from rng."""
    if task.kind == "ner":
        loss, framed = token_classify_loss, rows
        targets = [tag for row in rows for tag in row.tag_ids]
    else:  # (framed row, label id or id set) pairs
        framed = [r[0] for r in rows]
        if task.kind == "pair":
            loss, targets = pair_classify_loss, [r[1] for r in rows]
        else:
            loss, targets = multilabel_loss, np.zeros((len(rows), len(task.labels)))
            for i, r in enumerate(rows):
                targets[i, sorted(r[1])] = 1.0
    _, grads = loss(params, config, *_stacked(framed), targets, rng=rng)
    return adam_step(params, grads, state, lr)


def finetune_task(config: EncoderConfig, params: ParamStore, task: TaskSpec,
                  train_rows: Sequence, dev_rows: Sequence, seeds: Sequence[int],
                  hyper: FinetuneConfig) -> list[SeedRun]:
    """Fine-tune the full encoder plus a fresh task head once per seed. params must
    hold config's encoder (param_shapes), to which they are cut, dropping every head.

    train_rows and dev_rows must already be encoded for the task (see
    load_task_rows). A step stacks its rows with encoder.stack_rows, takes
    the task kind's loss and applies one Adam update. After every epoch the
    dev selection metric is computed and the best-scoring snapshot is kept.
    Each seed controls its head initialization, batch order and dropout
    masks (steps run in train mode, dev scoring in eval mode), so rerunning
    a seed reproduces its run exactly; one call's seeds must be distinct. A
    dev set with nothing to score is refused, as check_dev_rows refuses it.
    """
    check_seeds("seeds", list(seeds))
    if not train_rows or not dev_rows:
        raise ValueError("train and dev sets must be non-empty")
    check_dev_rows(task, dev_rows)
    if wrong := [n for n, s in param_shapes(config).items() if np.shape(params.get(n)) != s]:
        raise ValueError(f"params hold no {wrong[0]} of the shape the config gives it")
    params = params.resized(param_shapes(config))
    runs: list[SeedRun] = []
    for seed in seeds:
        p = init_head(params, config, _KINDS[task.kind][0], len(task.outputs), seed)
        state = init_optimizer(p)
        rng = np.random.default_rng(seed)
        step = 0
        best = SeedRun(seed, p, -1.0, -1)  # replaced at the first epoch
        for epoch in range(hyper.epochs):
            order = rng.permutation(len(train_rows))
            for start in range(0, len(order), hyper.batch_size):
                chosen = [train_rows[i] for i in order[start:start + hyper.batch_size]]
                p, state = _train_step(task, p, config, chosen, state, hyper.lr, rng)
                step += 1
                if step == hyper.max_steps:
                    break
            metric = _dev_metric(task, p, config, dev_rows)
            if metric > best.dev_metric:  # adam_step returns fresh stores, so p stays as is
                best = SeedRun(seed, p, metric, epoch)
            if step == hyper.max_steps:
                break
        runs.append(best)
    return runs


def load_task_rows(task: TaskSpec, path, vocab: Vocabulary, max_positions: int) -> list:
    """finetune_task's rows of a task file: a NerRow per sentence of a
    word<TAB>tag file, or a (framed row, label id or id set) per JSON-lines
    record. A malformed line, a field of the wrong type, or an unknown label
    or concept type fails as PATH:LINE: message, and a file of no row as
    PATH: no task row."""
    index = {name: i for i, name in enumerate(task.outputs)}

    def label(name):
        if name not in index:
            raise ValueError(f"unknown label {name!r} for task {task.name}")
        return name

    if task.kind == "ner":
        sentences = ((start, pair) for start, *pair in corpus.numbered_ner_sentences(path, label))
        return corpus.parse_numbered(path, sentences, lambda pair: encode_ner_example(
            *pair, vocab, index, max_positions), "task row")
    if task.kind == "multilabel":
        return corpus.read_jsonl(path, {"text": str, "labels": list[str]}, lambda rec: (
            prepare_document(rec["text"], vocab, max_positions),
            {index[label(name)] for name in rec["labels"]}), "task row")
    if task.concept_types:
        def relation(rec):
            for concept in (rec["type_a"], rec["type_b"]):
                if concept not in task.concept_types:
                    raise ValueError(f"unknown concept type {concept!r} for task {task.name}")
            for span in ("span_a", "span_b"):
                if len(rec[span]) != 2:
                    raise ValueError(f"{span!r} must be [start, end], got {rec[span]!r}")
            return prepare_marked_sentence(rec["words"], tuple(rec["span_a"]), rec["type_a"],
                                           tuple(rec["span_b"]), rec["type_b"], vocab,
                                           max_positions), index[label(rec["label"])]

        return corpus.read_jsonl(path, {"words": list[str], "span_a": list[int], "type_a": str,
                                        "span_b": list[int], "type_b": str, "label": str},
                                 relation, "task row")
    return corpus.read_jsonl(path, {"premise": str, "hypothesis": str, "label": str}, lambda rec: (
        prepare_pair(rec["premise"], rec["hypothesis"], vocab, max_positions),
        index[label(rec["label"])]), "task row")


def check_dev_rows(task: TaskSpec, rows: Sequence, path=None) -> None:
    """Refuse ner or multilabel dev rows of no gold entity or label, as PATH:
    message when a path is given: every model, one predicting nothing too,
    would score 1.0."""
    where = "" if path is None else f"{path}: "
    if task.kind == "ner" and not any(tag != "O" for row in rows for tag in row.word_tags):
        raise ValueError(f"{where}dev set has no gold entity to select on")
    if task.kind == "multilabel" and not any(labels for _, labels in rows):
        raise ValueError(f"{where}dev set has no gold label to select on")
