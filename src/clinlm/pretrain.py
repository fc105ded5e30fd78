"""Masked language model pretraining.

Builds training batches by packing encoded sentences to a phase-specific
maximum length, corrupts them with the 80/10/10 masking policy, and runs
bias-corrected Adam updates with gradient accumulation. A phase plan switches
the packing length partway through training without touching any parameter,
which is what makes long-range training affordable: attention cost grows
quadratically with sequence length, so most steps run short.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice
from typing import Callable, Sequence

import numpy as np

from . import wordpiece
from .corpus import write_lines
from .encoder import Batch, ParamStore, frame, init_head, init_params, mlm_forward_loss, stack_rows
from .settings import (AccumulationConfig, AdamConfig, EncoderConfig, MaskingPolicy, PhasePlan,
                       SettingError, check_lr, check_seeds, content_room)
from .wordpiece import CLS_ID, MASK_ID, SEP_ID, Vocabulary

MASK_SHARE, RANDOM_SHARE = 0.8, 0.1  # of the selected positions; the rest keep their id
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # Adam's moment decay rates and epsilon
ADAM_BLOCK = 32768  # entries adam_step updates at a time: 256 KiB of float64


def apply_masking(policy: MaskingPolicy, batch: Batch, vocab_size: int,
                  rng: np.random.Generator) -> tuple[Batch, np.ndarray, np.ndarray]:
    """Corrupt a micro-batch for masked-token prediction, in one draw.

    Every real position but [CLS] and [SEP] is maskable, [UNK] included, and
    rng.random(batch.shape) selects each with probability mask_prob. The
    selected slots, row-major, become [MASK] (MASK_SHARE), a random
    non-special id (RANDOM_SHARE) or keep their id (80/10/10), from one
    rng.random and one rng.integers over them; the original id is always the
    target, and no [PAD] or [SEP] is written. A draw that selects nothing
    yields one target, the first maskable position, set to [MASK] with no
    further draw; a batch with no maskable position is refused.

    Returns (corrupted Batch, [n, 2] (row, position) targets strictly
    ascending row-major, original ids there): mlm_forward_loss's batch,
    positions and targets.
    """
    n_specials = len(wordpiece.SPECIALS)  # random replacement never draws one
    if vocab_size <= n_specials:
        raise ValueError(f"vocab_size must exceed {n_specials}")
    ids = batch.token_ids
    maskable = (batch.attention_mask == 1) & (ids != CLS_ID) & (ids != SEP_ID)
    if not maskable.any():
        raise ValueError("batch has no maskable position: every real one is [CLS] or [SEP]")

    selected = maskable & (rng.random(ids.shape) < policy.mask_prob)
    if selected.any():
        positions, targets = np.argwhere(selected), ids[selected]
        action = rng.random(len(targets))
        random_ids = rng.integers(n_specials, vocab_size, size=len(targets))
        values = np.where(action < MASK_SHARE, MASK_ID,
                          np.where(action < MASK_SHARE + RANDOM_SHARE, random_ids, targets))
    else:
        # at 15% a micro-batch of two 8-position rows, 12 maskable slots,
        # selects nothing 0.85**12, about 14%, of the time
        positions = np.argwhere(maskable)[:1]
        targets, values = ids[tuple(positions.T)], MASK_ID
    corrupted = ids.copy()
    corrupted[tuple(positions.T)] = values
    return Batch(corrupted), positions, targets


@dataclass
class OptimizerState:
    m: ParamStore
    v: ParamStore
    step: int = 0


def init_optimizer(params: ParamStore) -> OptimizerState:
    """Zero first and second moments in the layout of params."""
    return OptimizerState(m=params.like(), v=params.like())


def adam_step(params: ParamStore, grads: ParamStore, state: OptimizerState,
              lr: float) -> tuple[ParamStore, OptimizerState]:
    """One bias-corrected Adam update at learning rate lr (the caller's
    schedule sets it per step; BETA1, BETA2 and EPSILON are fixed) over the
    stores' flat vectors, ADAM_BLOCK entries at a time. Returns fresh params
    and state; the inputs are left untouched. A non-finite or non-positive
    lr is refused first; a non-finite gradient, or an update that leaves a
    parameter non-finite, is refused with the name of the first tensor that
    holds one."""
    check_lr(lr)
    if not grads.layout == state.m.layout == params.layout:
        raise ValueError(f"gradient and moment keys and shapes must match the parameters: "
                         f"{sorted(set(params.layout) ^ set(grads.layout))[:5]}")
    grads.check_finite("non-finite gradient for parameter '{name}'")
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, p - lr m_hat / (sqrt(v_hat) + eps),
    # rounded as those expressions are, into the fresh outputs and one
    # block-sized scratch: elementwise, so a block's result is the whole
    # vector's there, and a block stays in cache through all its operations
    t, g = state.step + 1, grads.flat
    m_correction, v_correction = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
    new_params, m, v = (params.like(np.empty_like(g)) for _ in range(3))
    scratch = np.empty(min(ADAM_BLOCK, g.size))
    for start in range(0, g.size, ADAM_BLOCK):
        at = slice(start, start + ADAM_BLOCK)
        g_at, m_at, v_at = g[at], m.flat[at], v.flat[at]
        s = scratch[:len(g_at)]
        np.multiply(state.m.flat[at], BETA1, out=m_at)
        m_at += np.multiply(g_at, 1.0 - BETA1, out=s)
        np.multiply(state.v.flat[at], BETA2, out=v_at)
        np.multiply(g_at, 1.0 - BETA2, out=s)
        v_at += np.multiply(s, g_at, out=s)
        np.divide(v_at, v_correction, out=s)
        np.sqrt(s, out=s)
        s += EPSILON
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below, by name
            step = np.divide(m_at, m_correction, out=new_params.flat[at])
            step *= lr
            step /= s
            np.subtract(params.flat[at], step, out=step)
    new_params.check_finite("Adam update left a non-finite value in parameter '{name}'")
    return new_params, OptimizerState(m=m, v=v, step=t)


def accumulate_and_step(
    loss_grad_fn: Callable,
    params: ParamStore,
    state: OptimizerState,
    micro_batches: Sequence,
    lr: float,
) -> tuple[ParamStore, OptimizerState, float]:
    """Accumulate gradients over the micro-batches, as many as are given
    (an empty list is refused), then apply one Adam update at learning rate
    lr.

    loss_grad_fn(params, micro_batch) must return (loss, grads, n_terms)
    where n_terms is the number of averaged loss terms in that micro-batch.
    accumulate_and_step owns each grads store loss_grad_fn returns and
    scales it by n_terms in place: the first micro-batch's scaled store is
    the accumulator, and each later one is added into it in micro-batch
    order and dropped before the next call. The weighted sum, divided by
    the total n_terms, makes the update identical to a single pass over the
    union of the micro-batches.
    """
    if not micro_batches:
        raise ValueError("no micro-batches to accumulate")
    total_terms = 0
    total_loss = 0.0
    acc = None
    for mb in micro_batches:
        loss, grads, n_terms = loss_grad_fn(params, mb)
        if n_terms < 1:
            raise ValueError("micro-batch contributed no loss terms")
        total_terms += n_terms
        total_loss += loss * n_terms
        grads.flat *= n_terms
        if acc is None:
            acc = grads
        else:
            acc.flat += grads.flat
        del grads  # the next call's store may take its memory
    acc.flat /= total_terms
    params, state = adam_step(params, acc, state, lr)
    return params, state, total_loss / total_terms


@dataclass(frozen=True)
class LossLogEntry:
    step: int
    phase: int
    max_seq_len: int
    loss: float


@dataclass
class PretrainResult:
    params: ParamStore
    loss_log: list[LossLogEntry]


def lr_schedule(schedule: str, peak_lr: float, total_steps: int,
                warmup_fraction: float | None = None):
    """Step -> learning rate. "constant" is peak_lr at every step and takes
    no warmup_fraction; "linear" warms up linearly to peak_lr over
    warmup_fraction of the steps (None means 0.01; a given one must lie in
    [0, 1]), then decays linearly toward zero at total_steps."""
    if warmup_fraction is not None and not 0.0 <= warmup_fraction <= 1.0:
        raise SettingError("warmup_fraction", f"must be in [0, 1], got {warmup_fraction}")
    if schedule == "constant" and warmup_fraction is not None:
        raise SettingError("warmup_fraction", "applies only to the linear schedule, not constant")
    if schedule == "constant":
        return lambda step: peak_lr
    if schedule == "linear":
        fraction = 0.01 if warmup_fraction is None else warmup_fraction
        warmup = max(1, int(round(total_steps * fraction)))

        def lr(step):
            if step < warmup:
                return peak_lr * (step + 1) / warmup
            remaining = max(total_steps - warmup, 1)
            return peak_lr * max(0.0, (total_steps - step) / remaining)

        return lr
    raise ValueError(f"unknown schedule {schedule!r}")


def pack_sequences(id_seqs: Sequence[Sequence[int]], max_seq_len: int) -> list[list[int]]:
    """Lay the sentences' ids end to end and cut them into chunks of as many
    content ids as a row of max_seq_len positions holds (settings.content_room),
    the last chunk holding the rest. A sentence may span chunks, so no text
    is dropped."""
    room = content_room(max_seq_len, False)
    ids = [i for seq in id_seqs for i in seq]
    return [ids[start:start + room] for start in range(0, len(ids), room)]


def run_pretraining(corpus: Sequence[str], vocab: Vocabulary, config: EncoderConfig,
                    plan: PhasePlan, policy: MaskingPolicy, accum: AccumulationConfig,
                    adam: AdamConfig, seed: int, schedule: str = "constant",
                    warmup_fraction: float | None = None,
                    phase_callback: Callable | None = None) -> PretrainResult:
    """Train the encoder on a sentence corpus with the masked-LM objective.

    Each line of the corpus is normalized, encoded, and packed to the active
    phase's maximum length. Every optimizer step consumes
    accumulation_steps micro-batches; the logged loss is the step's
    accumulated mean. Phase transitions re-pack the data and nothing else:
    parameters and optimizer state carry over untouched. phase_callback, if
    given, is called as phase_callback(phase_index, step, params) at the
    start of each phase. Steps run in train mode: dropout masks come from
    the same seeded generator as the batch order and the masking.

    The same corpus, vocabulary, configuration, and seed always produce the
    same result, bit for bit.
    """
    check_seeds("seed", seed)
    if plan.max_length() > config.max_positions:
        raise SettingError("max_positions", f"{config.max_positions} is below the plan's "
                                            f"length {plan.max_length()}")
    lr_of = lr_schedule(schedule, adam.lr, plan.total_steps, warmup_fraction)
    encoded = [wordpiece.encode(vocab, wordpiece.normalize(line)).ids for line in corpus]
    encoded = [seq for seq in encoded if seq]
    if not encoded:
        raise ValueError("corpus has no encodable content")

    # the head's seed is the run generator's: under seed, mlm_w would repeat tok_emb's draws
    params = init_head(init_params(config, seed), config, "mlm", config.vocab_size, seed + 1)
    state = init_optimizer(params)
    rng = np.random.default_rng(seed + 1)

    def loss_grad_fn(p, mb):
        batch, positions, targets = mb
        loss, grads = mlm_forward_loss(p, config, batch, positions, targets, rng=rng)
        return loss, grads, len(targets)

    loss_log: list[LossLogEntry] = []
    global_step = 0
    for phase_index, (max_seq_len, n_steps) in enumerate(plan.phases):
        if phase_callback is not None:
            phase_callback(phase_index, global_step, params)
        chunks = pack_sequences(encoded, max_seq_len)
        if len(chunks) < accum.micro_batch_size:
            raise ValueError(
                f"corpus packs into {len(chunks)} examples at length {max_seq_len}, "
                f"fewer than one micro-batch of {accum.micro_batch_size}"
            )
        # one stream of permutations, each drawn as the one before runs out
        order = chain.from_iterable(rng.permutation(len(chunks)) for _ in count())
        for _ in range(n_steps):
            micro_batches = []
            for _ in range(accum.accumulation_steps):
                rows = [frame(chunks[i], None, max_seq_len)  # only rows a step takes
                        for i in islice(order, accum.micro_batch_size)]
                micro_batches.append(
                    apply_masking(policy, stack_rows(rows), config.vocab_size, rng))
            params, state, loss = accumulate_and_step(
                loss_grad_fn, params, state, micro_batches, lr_of(global_step)
            )
            loss_log.append(LossLogEntry(
                step=global_step, phase=phase_index, max_seq_len=max_seq_len, loss=loss,
            ))
            global_step += 1
    return PretrainResult(params=params, loss_log=loss_log)


def write_loss_log(path, loss_log: Sequence[LossLogEntry]) -> None:
    write_lines(path, ["step,phase,max_seq_len,loss"] + [
        f"{e.step},{e.phase},{e.max_seq_len},{e.loss:.6f}" for e in loss_log])
