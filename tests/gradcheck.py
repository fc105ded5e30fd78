"""Central finite-difference gradient checking, and mlm_params, the
masked-LM model, shared across test files.

The audits difference forward-only reference losses: the public forward
plus the head weights, with cross-entropy and binary cross-entropy written
out. Each reference takes the losses' (row, position) pairs. In eval mode it
indexes the full pass, forward without reads, so the audit does not lean on
the read path it checks. In train mode it reads through forward(...,
reads=...), as the loss does: dropout draws one mask entry per entry a pass
computes, so only a pass that reads the same rows draws the same top-layer
masks. Each costs one forward pass per evaluation, where the library loss
would also run the backward pass and throw its gradients away.
"""

import numpy as np

from clinlm.encoder import (
    forward,
    init_head,
    init_params,
    mlm_forward_loss,
    multilabel_loss,
    pair_classify_loss,
    token_classify_loss,
)

STEP = 1e-5


def mlm_params(config, seed):
    """init_params(config, seed) with the masked-LM head attached as
    run_pretraining attaches it, from seed + 1."""
    return init_head(init_params(config, seed), config, "mlm", config.vocab_size, seed + 1)


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)


def max_rel_error(loss_fn, params, grads, step=STEP):
    """Worst relative error between analytic gradients and central finite
    differences over every entry of every parameter.

    loss_fn(params) must return a scalar and be deterministic.
    """
    worst = 0.0
    for name in sorted(params):
        p = params[name]
        g = grads[name]
        flat = p.reshape(-1)
        g_flat = np.asarray(g, dtype=np.float64).reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_fn(params)
            flat[i] = original - step
            down = loss_fn(params)
            flat[i] = original
            numeric = (up - down) / (2.0 * step)
            worst = max(worst, relative_error(float(g_flat[i]), numeric))
    return worst


def _head_scores(params, config, batch, rng, head, positions):
    reads = np.asarray(positions, dtype=np.int64).reshape(-1, 2)
    if rng is None:
        hidden = forward(params, config, batch)[tuple(reads.T)]
    else:
        hidden = forward(params, config, batch, rng, reads=reads)
    return hidden @ params[head + "_w"] + params[head + "_b"]


def _cross_entropy(logits, targets):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_total = np.log(np.exp(shifted).sum(axis=-1))
    return float((log_total - shifted[np.arange(len(targets)), targets]).mean())


def _reads_cross_entropy(params, config, batch, rng, head, positions, targets):
    logits = _head_scores(params, config, batch, rng, head, positions)
    return _cross_entropy(logits, np.asarray(targets, dtype=np.int64))


def mlm_reference(params, config, batch, target_positions, target_ids, rng=None):
    return _reads_cross_entropy(params, config, batch, rng, "mlm", target_positions, target_ids)


def token_reference(params, config, batch, positions, tag_ids, rng=None):
    return _reads_cross_entropy(params, config, batch, rng, "head_token", positions, tag_ids)


def pair_reference(params, config, batch, positions, class_ids, rng=None):
    return _reads_cross_entropy(params, config, batch, rng, "head_pair", positions, class_ids)


def multilabel_reference(params, config, batch, positions, label_matrix, rng=None):
    logits = _head_scores(params, config, batch, rng, "head_multi", positions)
    y = np.asarray(label_matrix, dtype=np.float64)
    return float((np.logaddexp(0.0, logits) - y * logits).mean())  # log(1 + e^z) - y z


REFERENCES = {mlm_forward_loss: mlm_reference, token_classify_loss: token_reference,
              pair_classify_loss: pair_reference, multilabel_loss: multilabel_reference}


def audit_gradients(loss, params, config, batch, *args, seed=None):
    """max_rel_error of loss's analytic gradients at params (every entry)
    against central differences of its forward-only reference, after
    asserting that the reference equals loss at params to 1e-12 relative.

    loss is one of the four library losses, called as loss(params, config,
    batch, *args, rng=...). With a seed both run in train mode, each call on
    a fresh np.random.default_rng(seed), so every call draws the same
    dropout masks and the loss is a fixed function of the parameters.
    """
    def rng():
        return None if seed is None else np.random.default_rng(seed)

    def reference(p):
        return REFERENCES[loss](p, config, batch, *args, rng=rng())

    value, grads = loss(params, config, batch, *args, rng=rng())
    expected = reference(params)
    assert abs(expected - value) <= 1e-12 * abs(value), (loss.__name__, expected, value)
    return max_rel_error(reference, params, grads)
