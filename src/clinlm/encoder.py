"""Bidirectional transformer encoder with exact gradients.

Pure numpy, float64 throughout. The forward pass sums token, position, and
segment embeddings, applies layer normalization, then runs a stack of
multi-head self-attention blocks with post-norm residuals and GELU
feed-forward sublayers. Every loss function returns analytic gradients for
all parameters, derived by hand and checked against central finite
differences in the test suite.

A row is its token ids: frame makes it, unpadded, and stack_rows pads a
batch of rows once with [PAD]; a Batch reads the mask and segments off the
ids. Every objective, masked-LM and task heads alike, is a linear head read
at some (row, position) pairs, trained through one routine, _head_loss.
init_params draws the encoder alone, and init_head attaches every head:
pretraining's masked-LM head (mlm) and each task's alike.

The attention core, scores, softmax, dropout and context, is one function
pair, _attention and _attention_backward, computed in place in one scores
buffer. A head reads few positions: [CLS], each word's first piece, or the
masked slots. forward and all four losses take them (reads, or positions)
in one form: an [n, 2] int array of (row, position) pairs inside the batch,
strictly ascending in row-major order, so no pair repeats. _forward alone
checks that. Given reads, the top layer still computes keys and values at
every position, but its queries run at the read rows only, held in a
[rows, most reads in one row] grid, and so do its attention scores,
attention projection, feed-forward sublayer, both layer norms and their
dropout masks; the backward pass writes their gradients back into every
position. The losses and prediction pass reads; forward without them is the
full pass.

Only the losses keep each layer's activations, for _backward, which frees
each layer's once its backward has run. The feed-forward sublayer keeps its
pre-activation a and GELU's gate h (see _gelu); _backward rebuilds GELU's
output as a * h. forward keeps no backward cache: a layer's activations are
freed as the next layer starts, so a forward-only pass's memory does not
grow with depth, and it runs each feed-forward sublayer in blocks of
FF_BLOCK_ROWS = 128 flattened rows, the last block taking the rest, so a
block's [rows, ff] activations stay in cache (a 32 x 32 pass's at ff 512 are
4 MB). Blocks of 64, 128 and 256 rows took 5, 9 and 13% off a 32 x 64
forward at ff 64, and 9, 13 and 12% off a 32 x 32 forward at ff 512, where
128 rows' two buffers fill half of a 2 MB L2. A GEMM of that many rows
gives each row the whole GEMM's bits, so the layer math and its bits are
the same either way; a GEMM of a few rows may not (an 8-row block moved
bits), so no block is cut small.

Train mode means an rng was passed: forward and the losses then drop out
(config.dropout) the embeddings, then in each layer the attention weights,
attention projection and feed-forward output, in that order, drawing one
uniform from the rng per entry computed. Without an rng they run in eval
mode, with no dropout.

Parameters live in a ParamStore: a name -> array mapping whose arrays are
views of one contiguous float64 vector, laid out in param_shapes order with
its heads appended. Gradients and the Adam moments share the layout, so an
optimizer step, accumulation, a finiteness check and a checkpoint body are
each whole-vector operations. A head named h owns the parameters h_w and h_b.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .settings import EncoderConfig, check_setting, content_room
from .wordpiece import CLS_ID, PAD_ID, SEP_ID

CHECKPOINT_FORMAT = "clinlm-checkpoint"
CHECKPOINT_VERSION = 1
HEADS = ("mlm", "head_token", "head_pair", "head_multi")  # the heads a checkpoint may hold
_NEG_INF = -1e9
FF_BLOCK_ROWS = 128  # rows per block of a forward-only pass's feed-forward sublayer
N_SEGMENTS = 2  # segment embeddings: side a, and a pair's side b (BERT's two)
LN_EPSILON = 1e-12  # every layer norm's epsilon, BERT's
FIXED_CONFIG = dict(n_segments=N_SEGMENTS, ln_epsilon=LN_EPSILON, hidden_act="gelu_tanh")  # as keys


@dataclass
class Batch:
    """Rows of token ids of equal width, which alone give the layout. The one
    statement of its rule: attention_mask is 0 exactly at [PAD], and
    segment_ids is 1 after a row's first [SEP] (a framed pair's side b and
    its last [SEP]) except at [PAD]."""

    token_ids: np.ndarray
    attention_mask: np.ndarray = field(init=False)
    segment_ids: np.ndarray = field(init=False)

    def __post_init__(self):
        ids = self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError(f"token_ids must be 2-D, got shape {ids.shape}")
        real, sep = ids != PAD_ID, ids == SEP_ID
        self.attention_mask = real.astype(np.int64)
        # more [SEP]s up to a position than at it: the first lies before it
        self.segment_ids = ((np.cumsum(sep, axis=1) > sep) & real).astype(np.int64)

    @property
    def shape(self) -> tuple[int, int]:
        return self.token_ids.shape


def frame(ids_a, ids_b, length: int) -> np.ndarray:
    """The token ids of one unpadded row of at most `length` positions:
    [CLS] a [SEP] for a single text (ids_b None) or [CLS] a [SEP] b [SEP]
    for a pair. A Batch reads the row's mask and segments off its [PAD]s and
    [SEP]s, so content holding either is refused. A single text that does
    not fit keeps its prefix; a pair drops trailing pieces from its longer
    side first (side a on a tie).
    """
    pair = ids_b is not None
    room = content_room(length, pair)
    a, b = list(ids_a), list(ids_b) if pair else []
    if {PAD_ID, SEP_ID} & {*a, *b}:
        raise ValueError("content holds [PAD] or [SEP], the ids a batch reads a row's layout from")
    while len(a) + len(b) > room:
        (a if len(a) >= len(b) else b).pop()
    return np.array([CLS_ID, *a, SEP_ID] + ([*b, SEP_ID] if pair else []), dtype=np.int64)


def stack_rows(rows) -> Batch:
    """Stack framed rows, 1-D token id arrays as frame returns, into one
    Batch as wide as its widest row. Narrower rows are filled out with
    [PAD]; no column is ever cut."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to stack")
    ids = np.full((len(rows), max(map(len, rows))), PAD_ID, dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, :len(row)] = row
    return Batch(ids)


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every encoder parameter, in the order init_params
    draws them. Heads (init_head) are not included."""
    h, f, v = config.hidden_dim, config.ff_dim, config.vocab_size
    shapes = {"tok_emb": (v, h), "pos_emb": (config.max_positions, h),
              "seg_emb": (N_SEGMENTS, h), "emb_ln_g": (h,), "emb_ln_b": (h,)}
    layer = {"attn_q_w": (h, h), "attn_q_b": (h,), "attn_k_w": (h, h), "attn_k_b": (h,),
             "attn_v_w": (h, h), "attn_v_b": (h,), "attn_out_w": (h, h), "attn_out_b": (h,),
             "attn_ln_g": (h,), "attn_ln_b": (h,), "ff_in_w": (h, f), "ff_in_b": (f,),
             "ff_out_w": (f, h), "ff_out_b": (h,), "ff_ln_g": (h,), "ff_ln_b": (h,)}
    for i in range(config.n_layers):
        shapes.update({f"layer{i}.{name}": shape for name, shape in layer.items()})
    return shapes


class ParamStore(Mapping):
    """Name -> float64 array, each a view of one contiguous float64 vector,
    flat (zeros unless given), laid end to end in the order of `shapes`
    (name -> shape); every view is made with the store. Assigning to a name
    writes into its view; a name outside the layout or a value of another
    shape is refused, so no entry can come loose from flat."""

    def __init__(self, shapes, flat=None):
        self.layout = tuple((name, tuple(shape)) for name, shape in dict(shapes).items())
        self._slots, start = {}, 0  # name -> (start, stop, shape) in flat
        for name, shape in self.layout:
            self._slots[name] = (start, start + math.prod(shape), shape)
            start += math.prod(shape)
        self._lay_views(np.zeros(start) if flat is None else flat)

    def _lay_views(self, flat):  # sets flat and every name's view over its slot
        self.flat, self._views = flat, {name: flat[start:stop].reshape(shape)
                                        for name, (start, stop, shape) in self._slots.items()}

    def __getitem__(self, name):
        return self._views[name]

    def __setitem__(self, name, value):
        if name not in self._slots:
            raise KeyError(f"{name!r} is not in the store's layout")
        if value is not self[name]:  # `store[name] += x` hands the view itself back
            if np.shape(value) != self[name].shape:
                raise ValueError(f"{name} has shape {self[name].shape}, got {np.shape(value)}")
            self[name][...] = value

    def __iter__(self):
        return iter(self._slots)

    def __len__(self):
        return len(self._slots)

    def like(self, flat=None) -> ParamStore:
        """A store of this layout over flat (zeros without it)."""
        store = object.__new__(ParamStore)  # shares this store's layout and slots
        store.layout, store._slots = self.layout, self._slots
        store._lay_views(np.zeros_like(self.flat) if flat is None else flat)
        return store

    def resized(self, shapes) -> ParamStore:
        """A store laid out by shapes where each name this store holds too keeps
        its values in the leading corner of both shapes; all else is zero."""
        out = ParamStore(shapes)
        for name in out._slots.keys() & self._slots.keys():
            corner = tuple(map(slice, np.minimum(out[name].shape, self[name].shape)))
            out[name][corner] = self[name][corner]
        return out

    def check_finite(self, message: str) -> None:
        """Raise ValueError(message, its {name} replaced by the first name whose
        tensor holds a NaN or an infinity), if one does."""
        if not np.isfinite(self.flat).all():
            index = np.flatnonzero(~np.isfinite(self.flat))[0]
            name = next(name for name, (_, stop, _) in self._slots.items() if index < stop)
            raise ValueError(message.replace("{name}", name))


def init_params(config: EncoderConfig, seed: int) -> ParamStore:
    """The encoder, no head: weights drawn from N(0, 0.02^2) in param_shapes
    order, biases zero, layer-norm scales one."""
    rng = np.random.default_rng(seed)
    params = ParamStore(param_shapes(config))
    for name, view in params.items():
        if name.endswith("_g"):
            view[...] = 1.0
        elif not name.endswith("_b"):
            view[...] = rng.normal(0.0, 0.02, size=view.shape)
    return params


def _gelu(a, out=None):
    """GELU's gate h = (1 + tanh u) / 2 at a, in out when given: GELU of a in
    its tanh form is a * h."""
    h = np.multiply(a, a, out=out)  # then u = sqrt(2 / pi) (a + 0.044715 a^3), then h
    h *= 0.044715 * math.sqrt(2.0 / math.pi)
    h += math.sqrt(2.0 / math.pi)
    h *= a
    np.tanh(h, out=h)
    h += 1.0
    h *= 0.5
    return h


def _gelu_grad(a, h):
    """Derivative of GELU at a, given _gelu's gate h: h + a 2h(1 - h) u'."""
    out = a * a  # then 2 u' = 2 sqrt(2 / pi) (1 + 3 * 0.044715 a^2)
    out *= 6 * 0.044715 * math.sqrt(2.0 / math.pi)
    out += 2.0 * math.sqrt(2.0 / math.pi)
    out *= a
    out *= h
    out *= 1.0 - h
    out += h
    return out


def _layer_norm(params, name, x):
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    y = np.multiply(xhat, xhat)  # the squares, then the output, in one buffer
    inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + LN_EPSILON)
    xhat *= inv
    np.multiply(xhat, params[name + "_g"], out=y)
    y += params[name + "_b"]
    return y, (xhat, inv)


def _layer_norm_backward(params, grads, name, dy, cache):
    """Add the gradients of name_g and name_b; return the gradient of x."""
    xhat, inv = cache
    width = xhat.shape[-1]
    tmp = dy * xhat
    grads[name + "_g"] += tmp.reshape(-1, width).sum(axis=0)
    grads[name + "_b"] += dy.reshape(-1, width).sum(axis=0)
    dx = dy * params[name + "_g"]  # the gradient of xhat, turned into that of x in place
    mean_dxhat = dx.mean(axis=-1, keepdims=True)
    np.multiply(dx, xhat, out=tmp)
    mean_dxhat_xhat = tmp.mean(axis=-1, keepdims=True)
    dx -= mean_dxhat
    np.multiply(xhat, mean_dxhat_xhat, out=tmp)
    dx -= tmp
    dx *= inv
    return dx


def _linear(params, name, x, out=None):
    """x @ name_w + name_b over the last axis of x, in out (2-D) when given."""
    y = np.matmul(x.reshape(-1, x.shape[-1]), params[name + "_w"], out=out)
    y += params[name + "_b"]
    return y.reshape(*x.shape[:-1], y.shape[-1])


def _linear_backward(params, grads, name, x, dy):
    """Add the gradients of name_w and name_b for _linear(params, name, x)
    given its output gradient dy; return the gradient of x."""
    x2, dy2 = x.reshape(-1, x.shape[-1]), dy.reshape(-1, dy.shape[-1])
    grads[name + "_w"] += x2.T @ dy2
    grads[name + "_b"] += dy2.sum(axis=0)
    return (dy2 @ params[name + "_w"].T).reshape(x.shape)


def _drop(x, rate, rng, cache, key):
    """Inverted dropout, one uniform drawn per entry of x: zero each entry with
    probability rate and scale the rest by 1 / (1 - rate), the scaled mask
    kept as cache[key] for backward. Without an rng (eval mode) or at rate 0
    it returns x and draws nothing."""
    if rng is None or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(np.float64)
    mask /= keep
    cache[key] = mask
    return x * mask


def _split_heads(x, n_heads):
    b, t, h = x.shape
    return x.reshape(b, t, n_heads, h // n_heads).transpose(0, 2, 1, 3)


def _join_heads(x):
    b, nh, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, nh * dh)


def _attention(qh, kh, vh, bias, rate, rng, lc):
    """Context [b, heads, queries, head_dim] of the queries qh over the keys
    kh and values vh, all [b, heads, n, head_dim]: the attention weights
    softmax(qh kh^T / sqrt(head_dim) + bias), dropped out, times vh. The
    weights are computed in place in one scores buffer. bias [b, 1, 1, keys]
    is _NEG_INF at padded keys and 0 elsewhere; adding 0 changes no weight.
    What _attention_backward needs is kept in lc."""
    s = qh @ kh.swapaxes(-1, -2)
    s *= 1.0 / math.sqrt(qh.shape[-1])
    s += bias
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    used = _drop(s, rate, rng, lc, "attn_drop")
    lc.update(qh=qh, kh=kh, vh=vh, attn=s, attn_used=used)
    return used @ vh


def _attention_backward(d_ctx, lc):
    """Gradients (d_qh, d_kh, d_vh) of _attention's inputs given d_ctx, that
    of its context; the scores' gradient is built in one buffer."""
    attn = lc["attn"]
    d_vh = lc["attn_used"].swapaxes(-1, -2) @ d_ctx
    d = d_ctx @ lc["vh"].swapaxes(-1, -2)
    if "attn_drop" in lc:
        d *= lc["attn_drop"]
    d -= (d * attn).sum(axis=-1, keepdims=True)
    d *= attn
    scale = 1.0 / math.sqrt(d_ctx.shape[-1])
    d_qh = d @ lc["kh"]
    d_qh *= scale
    d_kh = d.swapaxes(-1, -2) @ lc["qh"]
    d_kh *= scale
    return d_qh, d_kh, d_vh


def _slots(reads, b):
    """The (row, slot) of each of reads, ascending (row, position) pairs in a
    batch of b rows, in a [b, m] query grid, and m, the most reads in one
    row: each row's reads fill its first slots in order."""
    row = reads[:, 0]
    counts = np.bincount(row, minlength=b)
    slot = np.arange(len(reads)) - (np.cumsum(counts) - counts)[row]
    return row, slot, counts.max()


def _feed_forward_blocks(params, p, x):
    """Layer p's feed-forward sublayer, ff_out of GELU of ff_in, over the rows
    of x [..., hidden] in blocks of FF_BLOCK_ROWS, the last block taking the
    rest: ff_in and GELU's gate fill two reused [block, ff] buffers, their
    product goes in place, and ff_out writes each block into the output."""
    rows = x.reshape(-1, x.shape[-1])
    n = len(rows)
    starts = range(0, max(n - FF_BLOCK_ROWS, 0) + 1, FF_BLOCK_ROWS)
    out = np.empty((n, params[p + "ff_out_w"].shape[1]))
    a = np.empty((n - starts[-1], params[p + "ff_in_w"].shape[1]))  # the last block is the largest
    h = np.empty_like(a)
    for start, stop in zip(starts, [*starts[1:], n]):
        block, gate = a[:stop - start], h[:stop - start]
        _linear(params, p + "ff_in", rows[start:stop], out=block)
        block *= _gelu(block, out=gate)
        _linear(params, p + "ff_out", block, out=out[start:stop])
    return out.reshape(*x.shape[:-1], out.shape[-1])


def _forward(params, config, batch, rng, reads=None, keep=False):
    """(hidden states, cache) of forward; with keep, cache["layers"] holds
    each layer's activations, else none outlives its layer."""
    b, t = batch.shape
    if t > config.max_positions:
        raise ValueError(f"sequence length {t} exceeds max_positions {config.max_positions}")
    if batch.token_ids.min() < 0 or batch.token_ids.max() >= config.vocab_size:
        raise ValueError("token id outside vocabulary range")
    if reads is not None:  # the one check of the reads contract (see the module docstring)
        reads = np.asarray(reads, dtype=np.int64)
        flat = reads[:, 0] * t + reads[:, 1] if reads.ndim == 2 and reads.shape[1] == 2 else None
        if flat is None or ((reads < 0) | (reads >= (b, t))).any() or (np.diff(flat) <= 0).any():
            raise ValueError(f"reads must be [n, 2] (row, position) pairs in strictly ascending "
                             f"row-major order, none outside the {b} x {t} batch")

    rate, hd, nh = config.dropout, config.hidden_dim, config.n_heads
    cache = {"batch": batch, "layers": []}
    summed = params["tok_emb"][batch.token_ids]
    summed += params["pos_emb"][:t]
    summed += params["seg_emb"][batch.segment_ids]
    x, cache["emb_ln"] = _layer_norm(params, "emb_ln", summed)
    x = _drop(x, rate, rng, cache, "emb_drop")

    # masked keys get a large negative score
    attn_bias = np.where(batch.attention_mask[:, None, None, :] == 1, 0.0, _NEG_INF)

    for i in range(config.n_layers):
        p = f"layer{i}."
        lc = {"x_in": x}
        kh, vh = (_split_heads(_linear(params, p + name, x), nh) for name in ("attn_k", "attn_v"))
        if reads is None or i < config.n_layers - 1:
            qh = _split_heads(_linear(params, p + "attn_q", x), nh)
            ctx = _join_heads(_attention(qh, kh, vh, attn_bias, rate, rng, lc))
        else:
            # every key and value is needed; the queries and all that follows
            # them run at the read rows only, the queries in a [b, m] grid
            row, slot, m = _slots(reads, b)
            x = lc["q_in"] = x.reshape(-1, hd)[flat]
            q = np.zeros((b, m, hd))  # a slot no read fills stays zero
            q[row, slot] = _linear(params, p + "attn_q", x)
            ctx = _join_heads(_attention(_split_heads(q, nh), kh, vh, attn_bias, rate, rng, lc))
            ctx = ctx[row, slot]
            lc.update(reads=flat, row=row, slot=slot)
        proj = _drop(_linear(params, p + "attn_out", ctx), rate, rng, lc, "proj_drop")
        proj += x  # the residual sums go into the fresh sublayer outputs
        h1, ln1 = _layer_norm(params, p + "attn_ln", proj)
        if keep:  # not GELU's output: _backward rebuilds it as a * gate
            a = _linear(params, p + "ff_in", h1)
            gate = _gelu(a)
            f = _linear(params, p + "ff_out", a * gate)
            lc.update(ctx=ctx, ln1=ln1, h1=h1, a=a, gate=gate)
        else:
            f = _feed_forward_blocks(params, p, h1)
        f = _drop(f, rate, rng, lc, "ff_drop")
        f += h1
        x, lc["ln2"] = _layer_norm(params, p + "ff_ln", f)
        if keep:
            cache["layers"].append(lc)
        del lc, kh, vh, ctx, proj, ln1, h1, f  # only a kept lc still holds them
    return x, cache


def forward(params, config: EncoderConfig, batch: Batch, rng=None, reads=None) -> np.ndarray:
    """Hidden states [batch, positions, hidden_dim]. Dropout applies only
    with an rng (train mode).

    With reads, an [n, 2] int array of (row, position) pairs inside the
    batch, strictly ascending in row-major order (so each pair at most once),
    it returns only the hidden states at those pairs, [n, hidden_dim]: the
    last layer's keys and values cover every position, but its queries,
    attention scores, attention projection, feed-forward, layer norms and
    dropout masks run at the read rows only. In eval mode, or reading every
    position, these equal the full pass's rows up to rounding. Reads of
    another shape, outside the batch or out of order are refused.

    Each feed-forward sublayer runs in blocks of FF_BLOCK_ROWS (128) of its
    flattened rows, the last block taking any rest under 128, and gives the
    bits of the losses' unblocked pass (see the module docstring).
    """
    hidden, _ = _forward(params, config, batch, rng, reads)
    return hidden


def _backward(params, config, cache, d_hidden):
    """Gradients of every parameter, given d_hidden, that of _forward's
    output. Consumes cache["layers"]: each layer's activations are freed
    once its backward has run, so the layers below reuse their memory."""
    batch = cache["batch"]
    grads = params.like()
    hd, nh = config.hidden_dim, config.n_heads
    dx = d_hidden

    for i in reversed(range(config.n_layers)):
        p = f"layer{i}."
        lc = cache["layers"].pop()  # layer i's, freed with this iteration's temporaries

        d_res2 = _layer_norm_backward(params, grads, p + "ff_ln", dx, lc["ln2"])
        d_f = d_res2 * lc["ff_drop"] if "ff_drop" in lc else d_res2
        d_a = _linear_backward(params, grads, p + "ff_out", lc["a"] * lc["gate"], d_f)
        d_a *= _gelu_grad(lc["a"], lc["gate"])
        d_h1 = d_res2 + _linear_backward(params, grads, p + "ff_in", lc["h1"], d_a)

        dx = _layer_norm_backward(params, grads, p + "attn_ln", d_h1, lc["ln1"])
        d_proj = dx * lc["proj_drop"] if "proj_drop" in lc else dx
        d_ctx = _linear_backward(params, grads, p + "attn_out", lc["ctx"], d_proj)
        if "reads" in lc:  # from the read rows back to the query grid, then every position
            row, slot = lc["row"], lc["slot"]
            grid = np.zeros((batch.shape[0], lc["qh"].shape[2], hd))
            grid[row, slot] = d_ctx
            d_qh, d_kh, d_vh = _attention_backward(_split_heads(grid, nh), lc)
            dx += _linear_backward(params, grads, p + "attn_q", lc["q_in"],
                                   _join_heads(d_qh)[row, slot])
            d_read, dx = dx, np.zeros((*batch.shape, hd))
            dx.reshape(-1, hd)[lc["reads"]] = d_read  # the reads are distinct positions
        else:
            d_qh, d_kh, d_vh = _attention_backward(_split_heads(d_ctx, nh), lc)
            dx += _linear_backward(params, grads, p + "attn_q", lc["x_in"], _join_heads(d_qh))
        for name, d_head in (("attn_k", d_kh), ("attn_v", d_vh)):
            dx += _linear_backward(params, grads, p + name, lc["x_in"], _join_heads(d_head))
        del lc, d_res2, d_f, d_a, d_h1, d_proj, d_ctx, d_qh, d_kh, d_vh, d_head

    if "emb_drop" in cache:
        dx = dx * cache["emb_drop"]
    d_sum = _layer_norm_backward(params, grads, "emb_ln", dx, cache["emb_ln"])
    flat = d_sum.reshape(-1, hd)
    _add_rows(grads["tok_emb"], batch.token_ids.ravel(), flat)
    grads["pos_emb"][:batch.shape[1]] += d_sum.sum(axis=0)
    _add_rows(grads["seg_emb"], batch.segment_ids.ravel(), flat)
    return grads


def _add_rows(out, ids, rows):
    """out[ids[i]] += rows[i] for every i, as np.add.at, by one sorted reduceat."""
    order = np.argsort(ids, kind="stable")
    starts = np.flatnonzero(np.diff(ids[order], prepend=-1))  # where each id's run begins
    out[ids[order[starts]]] += np.add.reduceat(rows[order], starts, axis=0)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _head_width(params, head) -> int:
    """Number of scores of the linear head `head`; a store without it is refused."""
    if head + "_w" not in params:
        raise ValueError(f"the model has no {head} head ({head}_w, {head}_b)")
    return params[head + "_w"].shape[1]


def _head_logits(params, head, hidden, n_out=None):
    """Scores of the linear head `head` on hidden vectors [..., hidden_dim].
    When n_out is given, the head must have been built for that many."""
    width = _head_width(params, head)
    if n_out is not None and width != n_out:
        raise ValueError(f"head was built for {width} labels, asked for {n_out}")
    return hidden @ params[head + "_w"] + params[head + "_b"]


def _head_loss(params, config, batch, positions, head, targets, rng, binary=False):
    """Loss of the linear head `head` read at positions, the reads of
    forward, and exact gradients for every parameter.

    With binary False the loss is the mean cross-entropy of each read's
    scores against the class id in targets[i]; with binary True it is the
    mean binary cross-entropy over every cell of the 0/1 matrix targets, one
    row per read. Every loss's targets are checked here: an empty read set,
    targets not of shape (reads,) of integer class ids or (reads, head width)
    of 0/1 cells, and a class id outside the head are refused; _forward checks
    the reads.
    """
    n, width = len(positions), _head_width(params, head)
    if n == 0:
        raise ValueError(f"{head} loss needs at least one target position")
    targets = np.asarray(targets, dtype=np.float64 if binary else None)
    if not binary and not np.issubdtype(targets.dtype, np.integer):
        raise ValueError(f"{head} targets must be integer class ids, not {targets.dtype}")
    shape = (n, width) if binary else (n,)
    if targets.shape != shape:
        raise ValueError(f"{head} reads {n} position(s) but has targets of shape "
                         f"{targets.shape}, not {shape}")
    if binary and not np.isin(targets, (0.0, 1.0)).all():
        raise ValueError(f"{head} targets must be 0 or 1")
    if not binary and (targets.min() < 0 or targets.max() >= width):
        raise ValueError(f"label id outside the range of head {head}")
    hidden, cache = _forward(params, config, batch, rng, positions, keep=True)
    logits = _head_logits(params, head, hidden)
    if binary:
        # log(1 + e^z) - y*z, computed stably
        loss = float((np.logaddexp(0.0, logits) - targets * logits).mean())
        d_logits = (_sigmoid(logits) - targets) / targets.size
    else:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        total = exp.sum(axis=-1, keepdims=True)
        loss = float((np.log(total[:, 0]) - shifted[np.arange(n), targets]).mean())
        d_logits = exp / total  # softmax
        d_logits[np.arange(n), targets] -= 1.0
        d_logits /= n
    grads = _backward(params, config, cache, d_logits @ params[head + "_w"].T)
    grads[head + "_w"] += hidden.T @ d_logits
    grads[head + "_b"] += d_logits.sum(axis=0)
    return loss, grads


def mlm_forward_loss(params, config, batch, target_positions, target_ids, rng=None):
    """Masked-token prediction loss and exact gradients.

    target_positions, forward's reads, are the (row, position) pairs of the
    corrupted slots; target_ids holds the original token at each. The
    loss is the mean cross-entropy over all targets.
    """
    return _head_loss(params, config, batch, target_positions, "mlm", target_ids, rng)


def init_head(params, config, head, n_out, seed) -> ParamStore:
    """Copy of params with a fresh linear head `head`, one of HEADS, from
    hidden vectors to n_out scores (an mlm head's are the vocabulary's):
    weights drawn from N(0, 0.02^2), biases zero."""
    check_setting("n_labels", n_out, "int")
    if head not in HEADS:
        raise ValueError(f"no head {head!r}: a model holds only {', '.join(HEADS)}")
    if head == "mlm" and n_out != config.vocab_size:
        raise ValueError(f"mlm head width {n_out} is not the vocabulary's {config.vocab_size}")
    w, b = head + "_w", head + "_b"  # appended, or kept in place when params has them
    out = params.resized({**dict(params.layout), w: (config.hidden_dim, n_out), b: (n_out,)})
    out[w] = np.random.default_rng(seed).normal(0.0, 0.02, size=(config.hidden_dim, n_out))
    out[b][...] = 0.0
    return out


def token_classify_loss(params, config, batch, positions, tag_ids, rng=None):
    """Mean cross-entropy of the token head at positions, forward's reads
    (each word's first piece), against the tag id at each; no other position
    (padding, specials, continuation pieces) contributes."""
    return _head_loss(params, config, batch, positions, "head_token", tag_ids, rng)


def pair_classify_loss(params, config, batch, positions, class_ids, rng=None):
    """Mean cross-entropy of the pair head at positions, forward's reads
    (each row's (i, 0), its [CLS]), against the class id at each."""
    return _head_loss(params, config, batch, positions, "head_pair", class_ids, rng)


def multilabel_loss(params, config, batch, positions, label_matrix, rng=None):
    """Mean binary cross-entropy of the multi-label head at positions,
    forward's reads (each row's (i, 0), its [CLS]), over every (read, label)
    cell of the 0/1 label_matrix."""
    return _head_loss(params, config, batch, positions, "head_multi", label_matrix, rng,
                      binary=True)


def save_checkpoint(path, config: EncoderConfig, params) -> None:
    """Self-describing container: one JSON header line with the config,
    FIXED_CONFIG's keys included, and the tensor manifest in store order,
    then the store's flat vector as raw little-endian float64 bytes, written
    in one call. Identical state always produces identical bytes."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": {**asdict(config), **FIXED_CONFIG},
        "tensors": [{"name": n, "shape": list(shape)} for n, shape in params.layout],
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        handle.write(b"\n")
        handle.write(np.ascontiguousarray(params.flat, dtype="<f8"))


def load_checkpoint(path) -> tuple[EncoderConfig, ParamStore]:
    """Read a save_checkpoint file into a store laid out in manifest order,
    the body read in one call; a fault in its header or body, a
    FIXED_CONFIG key of another value, a NaN or an infinity included, fails
    as PATH: message."""
    with open(path, "rb") as handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a checkpoint (bad header)") from exc
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: unrecognized checkpoint format")
        version = header.get("version")
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: checkpoint version {version!r}, "
                             f"this release reads version {CHECKPOINT_VERSION}")
        if isinstance(header.get("config"), dict) and "hidden_act" not in header["config"]:
            raise ValueError(f"{path}: checkpoint has no hidden_act; it was trained with the "
                             f"erf GELU, which this release does not compute")
        names = {f.name for f in fields(EncoderConfig)} | FIXED_CONFIG.keys()
        if not isinstance(header.get("config"), dict) or set(header["config"]) != names:
            raise ValueError(f"{path}: checkpoint config keys must be exactly {sorted(names)}")
        settings = dict(header["config"])
        for key, value in FIXED_CONFIG.items():
            got = settings.pop(key)
            if type(got) is not type(value) or got != value:
                raise ValueError(f"{path}: checkpoint {key} is {got!r}, the encoder's is {value!r}")
        tensors = header.get("tensors")
        if not isinstance(tensors, list) or not all(
                isinstance(e, dict) and isinstance(e.get("name"), str)
                and isinstance(e.get("shape"), list)
                and all(isinstance(d, int) and d >= 0 for d in e["shape"]) for e in tensors):
            raise ValueError(f"{path}: every checkpoint tensor needs a string name "
                             f"and a list of non-negative int dims")
        try:
            config = EncoderConfig(**settings)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad checkpoint config: {exc}") from exc
        layout = {e["name"]: tuple(e["shape"]) for e in tensors}
        if len(layout) != len(tensors):
            raise ValueError(f"{path}: a checkpoint tensor name repeats")
        expected = param_shapes(config)
        for head in HEADS:  # optional, each as a well-formed pair
            w = layout.get(head + "_w")
            if w is not None and len(w) == 2 and w[1] >= 1:
                n = config.vocab_size if head == "mlm" else w[1]  # mlm scores the vocabulary
                expected.update({head + "_w": (config.hidden_dim, n), head + "_b": (n,)})
        for name in sorted(expected.keys() | layout.keys()):
            if layout.get(name) != expected.get(name):
                raise ValueError(f"{path}: tensor {name} has shape {layout.get(name, 'none')}, "
                                 f"the config needs {expected.get(name, 'none')}")
        need = 8 * sum(math.prod(shape) for shape in layout.values())
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        if size != need:
            raise ValueError(f"{path}: tensor body has {size} bytes, the manifest needs {need} "
                             f"({'truncated' if size < need else 'trailing bytes'})")
        body = np.empty(need // 8, dtype="<f8")
        handle.readinto(body)
    params = ParamStore(layout, body.astype(np.float64, copy=False))
    params.check_finite(f"{path}: tensor {{name}} holds a NaN or infinity")
    return config, params
